"""Execute rotation plans as shift-add micro-rotation sequences.

Each micro-rotation applies the unscaled matrix

    [1         -sigma*2**-i]
    [sigma*2**-i          1]

so a full plan realizes ``(1/gain) * R(angle)`` where ``R`` is a proper
rotation; multiplying by the plan gain afterwards restores unit norm.
In fixed-point mode the ``2**-i`` products become arithmetic right
shifts (floor semantics) on raw integers, and the gain compensation is
carried out by a canonical-signed-digit expansion so the whole datapath
stays multiplier-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fixedpoint import ArithmeticMode, OpCounter, fit_raw
from .planner import MicroRotation, RotationPlan


class CsdToleranceError(ValueError):
    """Greedy signed power-of-two expansion ran out of terms."""


@dataclass(frozen=True)
class Vector2:
    x: float
    y: float


@dataclass(frozen=True)
class Matrix2:
    """Row-major 2x2 matrix [[a, b], [c, d]]."""

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def matmul(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: Vector2) -> Vector2:
        return Vector2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def det(self) -> float:
        return self.a * self.d - self.b * self.c


def ideal_rotation_matrix(theta: float) -> Matrix2:
    """Exact binary64 rotation matrix [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return Matrix2(c, -s, s, c)


def step_matrix(step: MicroRotation) -> Matrix2:
    t = step.direction * 2.0 ** -step.index
    return Matrix2(1.0, -t, t, 1.0)


def plan_matrix(plan: RotationPlan) -> Matrix2:
    """Product of the plan's unscaled step matrices, in step order.

    Accumulated as ``M <- step @ M`` so its columns are bit-identical to
    folding :func:`micro_rotate` over (1,0) and (0,1).
    """
    m = Matrix2.identity()
    for step in plan.steps:
        m = step_matrix(step).matmul(m)
    return m


def micro_rotate(v: Vector2, step: MicroRotation, mode: ArithmeticMode = ArithmeticMode()) -> Vector2:
    """One unscaled micro-rotation of ``v`` (no gain compensation).

    Fixed-point mode quantizes, runs the raw shift-add kernel, and
    converts back; chained fixed-point steps should go through
    :func:`apply_plan`, which stays in the raw domain throughout.
    Raises ``ValueError`` on a non-finite component, in both modes.
    """
    _check_finite(v)
    if not mode.is_fixed:
        t = step.direction * 2.0 ** -step.index
        return Vector2(v.x - t * v.y, v.y + t * v.x)
    fmt = mode.fmt
    xr = fit_raw(fmt.to_raw(v.x), mode)
    yr = fit_raw(fmt.to_raw(v.y), mode)
    xr, yr = _micro_rotate_raw(xr, yr, step.index, step.direction, mode)
    return Vector2(fmt.from_raw(xr), fmt.from_raw(yr))


def _check_finite(v: Vector2) -> None:
    if not (math.isfinite(v.x) and math.isfinite(v.y)):
        raise ValueError(f"non-finite vector component in ({v.x!r}, {v.y!r})")


def _micro_rotate_raw(xr: int, yr: int, index: int, direction: int, mode: ArithmeticMode):
    # python's >> on negative ints is an arithmetic (floor) shift, same as
    # a two's-complement hardware shifter.
    sx = xr >> index
    sy = yr >> index
    if direction > 0:
        nx, ny = xr - sy, yr + sx
    else:
        nx, ny = xr + sy, yr - sx
    c = mode.counter
    if c is not None:
        c.shifts += 2
        c.adds += 2
    return fit_raw(nx, mode), fit_raw(ny, mode)


def apply_plan(
    v: Vector2,
    plan: RotationPlan,
    mode: ArithmeticMode = ArithmeticMode(),
    compensate: bool = False,
) -> Vector2:
    """Fold the plan's micro-rotations over ``v``, optionally gain-compensated.

    With ``compensate`` the result approximates the ideal rotation of
    ``v`` by ``plan.target`` to within the plan tolerance.  The
    fixed-point path compensates via a CSD expansion of the gain (shift
    and add only).  Raises ``ValueError`` on a non-finite component, in
    both modes.
    """
    _check_finite(v)
    if not mode.is_fixed:
        x, y = v.x, v.y
        for step in plan.steps:
            t = step.direction * 2.0 ** -step.index
            x, y = x - t * y, y + t * x
        if compensate:
            x *= plan.gain
            y *= plan.gain
        return Vector2(x, y)

    fmt = mode.fmt
    xr = fit_raw(fmt.to_raw(v.x), mode)
    yr = fit_raw(fmt.to_raw(v.y), mode)
    for step in plan.steps:
        xr, yr = _micro_rotate_raw(xr, yr, step.index, step.direction, mode)
    if compensate and plan.steps:
        scale = csd_scale(plan.gain, max_terms=16, tolerance=max(fmt.lsb / 2, 2.0 ** -18))
        xr = fit_raw(scale.apply_raw(xr, mode.counter), mode)
        yr = fit_raw(scale.apply_raw(yr, mode.counter), mode)
    return Vector2(fmt.from_raw(xr), fmt.from_raw(yr))


@dataclass(frozen=True)
class CsdScale:
    """Sparse signed power-of-two expansion of a positive constant.

    ``terms`` is a tuple of (shift, sign) pairs with strictly increasing
    shifts; the represented value is ``sum(sign * 2**-shift)`` and
    ``error`` bounds how far it sits from the requested constant.
    """

    terms: tuple[tuple[int, int], ...]
    error: float

    def value(self) -> float:
        return sum(sign * 2.0 ** -shift for shift, sign in self.terms)

    def apply_raw(self, raw: int, counter: OpCounter | None = None) -> int:
        """Multiply a raw fixed-point integer by the expansion, shift-add only."""
        acc = 0
        for shift, sign in self.terms:
            term = raw >> shift if shift >= 0 else raw << -shift
            acc = acc + term if sign > 0 else acc - term
        if counter is not None:
            counter.shifts += len(self.terms)
            counter.adds += len(self.terms)
        return acc


def csd_scale(value: float, max_terms: int = 16, tolerance: float = 1e-6) -> CsdScale:
    """Greedy CSD expansion of ``value`` in (0, 2).

    Repeatedly subtracts the signed power of two nearest to the remainder
    (ties go to the larger power) until ``|remainder| <= tolerance`` or
    ``max_terms`` is hit, in which case :class:`CsdToleranceError` is
    raised.  The greedy remainder at least halves per term, which also
    makes the emitted shifts strictly increasing.
    """
    if not 0.0 < value < 2.0:
        raise ValueError(f"value {value!r} outside (0, 2)")
    if not 1 <= max_terms <= 16:
        raise ValueError(f"max_terms {max_terms} outside [1, 16]")

    remainder = value
    terms = []
    while abs(remainder) > tolerance:
        if len(terms) >= max_terms:
            raise CsdToleranceError(
                f"|remainder| {abs(remainder):.3g} > tolerance {tolerance:g} "
                f"after {max_terms} terms for value {value!r}"
            )
        sign = 1 if remainder > 0 else -1
        a = abs(remainder)
        j = math.floor(-math.log2(a))
        if abs(a - 2.0 ** -j) > abs(a - 2.0 ** -(j + 1)):
            j += 1
        remainder -= sign * 2.0 ** -j
        terms.append((j, sign))

    assert all(terms[k][0] < terms[k + 1][0] for k in range(len(terms) - 1))
    return CsdScale(terms=tuple(terms), error=abs(remainder))
