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

The kernels -- :func:`rotate_float`, :func:`rotate_raw` and
:meth:`CsdScale.apply_raw` -- are written once, here.  Both rotations pass
each value they form through a ``fit`` their caller gives: the word's range
check, or no check.  Each updates by augmented assignment, in place on
NumPy arrays, the values it forms, and a rotation its ``x`` and ``y`` too
(see :func:`rotate_float`).  The scalar API runs them on Python numbers; the
batched DCT in ``dct8`` runs them on NumPy columns, and then they take
their shift amounts and ``2**-i`` factors as 0-d NumPy arrays, built once
at import: a ufunc converts a Python-number operand again on every call,
a third to a half of one op's cost on an 8-element column.  Both cross
the same input boundary, in ``fixedpoint``: one refusal of complex, non-finite and
too large components, and in fixed point one quantizer and range check
(:func:`~cordic_dct.fixedpoint.run_raw`).
A float rotation refuses a component beyond :func:`overflow_limit` of its
growth, a fixed one beyond ``overflow_limit(2**frac_bits)``, where the
quantizing multiply would overflow binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .fixedpoint import (ArithmeticMode, _unchecked, check_input, datapath_limit, overflow_limit,
                         run_raw)
from .planner import MicroRotation, RotationPlan


# The kernels' constants for each shift i in 0..63, the shifts an int64 word
# takes: the factor 2**-i as a float, and the shift and the factor as 0-d
# arrays, the operands a ufunc takes without converting them on every call.
# A NumPy column gets the arrays; every other operand (Python numbers, and
# the affine and traced values that derive the limits and check the
# datapath) gets Python ints and floats.
_POWERS = tuple(2.0 ** -i for i in range(64))
_ARRAY_POWERS = tuple(np.array(p) for p in _POWERS)
_ARRAY_SHIFTS = tuple(np.array(i, dtype=np.int64) for i in range(64))


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

    def apply(self, v: Vector2) -> Vector2:
        return Vector2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)


def ideal_rotation_matrix(theta: float) -> Matrix2:
    """Exact binary64 rotation matrix [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return Matrix2(c, -s, s, c)


def plan_matrix(plan: RotationPlan) -> Matrix2:
    """Product of the plan's unscaled step matrices, in step order: its
    columns are :func:`rotate_float` of (1,0) and (0,1)."""
    a, c = rotate_float(1.0, 0.0, plan.steps, _unchecked)
    b, d = rotate_float(0.0, 1.0, plan.steps, _unchecked)
    return Matrix2(a, b, c, d)


def micro_rotate(v: Vector2, step: MicroRotation, mode: ArithmeticMode = ArithmeticMode()) -> Vector2:
    """One unscaled micro-rotation of ``v`` (no gain compensation).

    Fixed-point mode quantizes, runs the raw shift-add kernel, and
    converts back; chained fixed-point steps should go through
    :func:`apply_plan`, which stays in the raw domain throughout.
    Raises ``ValueError`` on a complex component, on one that is
    non-finite or beyond :func:`overflow_limit` of the growth ``sqrt2 *
    hypot(1, 2**-i)`` in float or of ``2**frac_bits`` in fixed point, and
    on a ``mode`` that is not an :class:`ArithmeticMode`.
    """
    return _rotate_vector(v, (step,), math.hypot(1.0, 2.0 ** -step.index), None, mode)


def rotate_float(x, y, steps, fit):
    """Fold unscaled micro-rotations over ``(x, y)`` in binary64, each new
    value passed through ``fit`` before the next step, as in
    :func:`rotate_raw`.

    ``x`` and ``y`` are floats or NumPy arrays of them alike.  A step
    branches on its direction with the factor ``p = 2**-i``, as
    :func:`rotate_raw` does with its shift, for the bits of the signed
    factor ``t = direction * p``: ``t*y`` is ``-(p*y)`` exactly, and ``x -
    (-a)`` is ``x + a``.

    A step takes both products from its old values, then updates ``x`` and
    ``y`` by augmented assignment: NumPy arrays in place, so a caller's
    float64 arrays ``x`` and ``y`` are overwritten with the result, and
    must be values it formed and uses nowhere else.  Python numbers and
    other values just rebind.
    """
    powers = _ARRAY_POWERS if type(x) is ndarray else _POWERS
    for step in steps:
        p = powers[step.index]
        py, px = p * y, p * x
        if step.direction > 0:
            x -= py
            x = fit(x)
            y += px
        else:
            x += py
            x = fit(x)
            y -= px
        y = fit(y)
    return x, y


def rotate_raw(x, y, steps, fit):
    """Fold unscaled micro-rotations over raw two's-complement ``(x, y)``,
    shift-add only: 2 shifts and 2 adds per step, each new value passed
    through ``fit`` (the word's range check) before the next step.

    ``x`` and ``y`` are Python ints or int64 NumPy arrays alike; ``>>`` on
    either is an arithmetic (floor) shift, like a hardware shifter.  As in
    :func:`rotate_float`, a step shifts both old values, then updates
    ``x`` and ``y`` by augmented assignment: int64 arrays in place, so
    they must be values the caller formed and uses nowhere else.
    """
    arrays = type(x) is ndarray
    for step in steps:
        i = _ARRAY_SHIFTS[step.index] if arrays else step.index
        sx = x >> i
        sy = y >> i
        if step.direction > 0:
            x -= sy
            x = fit(x)
            y += sx
        else:
            x += sy
            x = fit(x)
            y -= sx
        y = fit(y)
    return x, y


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
    and add only).  Raises ``ValueError`` on a complex component, on one
    that is non-finite or beyond :func:`overflow_limit` of the growth
    ``sqrt2 / plan.gain`` in float or of ``2**frac_bits`` in fixed point,
    and on a ``compensate`` that is not a ``bool`` or a ``mode`` that is
    not an :class:`ArithmeticMode`.
    """
    # Read by truthiness, a look-alike such as "no" would compensate.
    if not isinstance(compensate, bool):
        raise ValueError(f"compensate must be a bool, got {compensate!r}")
    return _rotate_vector(v, plan.steps, 1.0 / plan.gain, plan.gain if compensate else None, mode)


def _rotate_vector(
    v: Vector2, steps, growth: float, gain: float | None, mode: ArithmeticMode
) -> Vector2:
    """Rotate one vector by ``steps``, which grow its norm ``growth``
    times, then scale it by ``gain`` if given.

    Fixed point quantizes, stays in the raw domain throughout, and
    compensates via a CSD expansion of the gain: 2 adds and 2 shifts per
    step, and 1 of each per CSD term applied to a component.
    """
    if not isinstance(mode, ArithmeticMode):
        raise ValueError(f"mode must be an ArithmeticMode, got {mode!r}")
    components = [v.x, v.y]
    # The norm is at most sqrt2 times the larger component, and each step
    # only grows it, so ``sqrt2 * growth`` bounds every component on the way.
    limit = datapath_limit(mode, lambda: overflow_limit(math.sqrt(2.0) * growth))
    check_input(components, limit, lambda limit: (
        f"vector component in ({v.x!r}, {v.y!r}) is non-finite or beyond "
        f"{limit:.4g}, where the rotation could overflow binary64"
    ))
    if not mode.is_fixed:
        x, y = rotate_float(v.x, v.y, steps, _unchecked)
        return Vector2(x, y) if gain is None else Vector2(x * gain, y * gain)

    lsb = mode.fmt.lsb

    def graph(raw, fit):
        x, y = rotate_raw(*raw, steps, fit)
        if gain is not None and steps:
            scale = csd_scale(gain, max_terms=16, tolerance=max(lsb / 2, 2.0 ** -18))
            x, y = fit(scale.apply_raw(x)), fit(scale.apply_raw(y))
        return x, y

    (x, y), _ = run_raw(components, mode, graph, None)
    return Vector2(x * lsb, y * lsb)


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

    def apply_raw(self, raw):
        """Multiply a raw fixed-point value by the expansion, shift-add only:
        one shift per term, and one add per term after the first, which
        seeds the sum.

        ``raw`` is a Python int or an int64 NumPy array alike.  The seed is
        negated only for a leading ``-`` term, which :func:`csd_scale`
        never emits (it expands a positive constant).  ``raw`` is only
        read: the sum, which the kernel forms, is the one value it updates
        by augmented assignment, an array in place.
        """
        arrays = type(raw) is ndarray
        acc = None
        for shift, sign in self.terms:
            if shift >= 0:  # a shift beyond the table stays a Python int
                term = raw >> (_ARRAY_SHIFTS[shift] if arrays and shift < 64 else shift)
            else:
                term = raw << -shift
            if acc is None:
                acc = term if sign > 0 else -term
            elif sign > 0:
                acc += term
            else:
                acc -= term
        return raw - raw if acc is None else acc

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
    if not tolerance >= 0.0:  # NaN too: the loop would stop at once, with no terms
        raise ValueError(f"tolerance {tolerance!r} is not a number >= 0")

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
