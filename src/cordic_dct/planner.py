"""Decompose rotation angles into arctangent-radix micro-rotations.

A target angle ``theta`` is approximated by a signed sum of micro-angles
``atan(2**-i)``.  The decomposition loop subtracts the micro-angle whose
shift ``i = round(-log2|residual|)`` is nearest to the residual in the
log2 domain, until the residual magnitude drops to the requested
tolerance ``epsilon``:

    residual_0 = theta
    residual_k = residual_{k-1} - sigma_k * atan(2**-i_k)

``sigma_k`` is always the sign of the residual before the step, so the
identity ``theta == sum(sigma_k * atan(2**-i_k)) + residual`` holds by
construction.  All shipped rotation tables follow this rule, and the
magnitude of the residual strictly decreases at every step.

The rule never looks at ``epsilon``, which only decides where the loop
stops.  So the plan for any ``epsilon`` is a prefix of one decomposition:
the shortest whose residual is within ``epsilon``, with the steps, residual
and gain the loop reaches there, bit for bit.  :class:`_Decomposition`
takes an angle's sequence once, at ``EPSILON_MIN``, and cuts any plan from
it; ``dct8.DctEngine`` builds its four plans that way.

Everything here is pure binary64 arithmetic over immutable values; plans
can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from io import StringIO

from .fixedpoint import _INTEGER, _REAL

INDEX_MAX = 30
MAX_STEPS = 64
EPSILON_MIN = 1e-9
EPSILON_MAX = 1e-1
ANGLE_MAX = math.pi / 2

# atan(2**-i) for i = 0..INDEX_MAX, the only micro-angles a plan may use.
ATAN_TABLE = tuple(math.atan(2.0 ** -i) for i in range(INDEX_MAX + 1))


@dataclass(frozen=True)
class MicroRotation:
    """One elementary rotation: shift amount ``index`` and sign ``direction``."""

    index: int
    direction: int

    def __post_init__(self):
        # An integer: a float or a string would index no table.
        if not (isinstance(self.index, _INTEGER) and 0 <= self.index <= INDEX_MAX):
            raise ValueError(f"shift index {self.index} outside [0, {INDEX_MAX}]")
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")

    @property
    def angle(self) -> float:
        """Signed micro-angle ``direction * atan(2**-index)``."""
        return self.direction * ATAN_TABLE[self.index]


# Every micro-rotation a plan may use, built once: ``_STEPS[i][sigma < 0]``.
_STEPS = tuple((MicroRotation(i, 1), MicroRotation(i, -1)) for i in range(INDEX_MAX + 1))
# The gain factor of each shift: sqrt(1/(1+t)) rather than 1/sqrt(1+t), one
# correctly-rounded operation per factor instead of two roundings.
_GAIN_FACTORS = tuple(math.sqrt(1.0 / (1.0 + 2.0 ** (-2 * i))) for i in range(INDEX_MAX + 1))


@dataclass(frozen=True)
class RotationPlan:
    """Ordered micro-rotation sequence approximating ``target`` to ``tolerance``.

    ``residual`` is the angle still missing after all steps and ``gain`` is
    the aggregate scale factor prod(1/sqrt(1 + 2**-2i)) of the unscaled
    shift-add realization, in (0, 1]: it depends only on the indices
    (repeats count), never on the directions.  Plans are immutable.
    """

    target: float
    tolerance: float
    steps: tuple[MicroRotation, ...]
    residual: float
    gain: float

    def __post_init__(self):
        if abs(self.residual) > self.tolerance:
            raise ValueError("plan residual exceeds tolerance")
        if bool(self.steps) == (abs(self.target) <= self.tolerance):
            raise ValueError("steps must be empty exactly when the target is within tolerance")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.steps)

    @property
    def directions(self) -> tuple[int, ...]:
        return tuple(s.direction for s in self.steps)

    @property
    def indices_str(self) -> str:
        """The shift indices, slash-separated, as the tables print them."""
        return "/".join(str(i) for i in self.indices)

    @property
    def directions_str(self) -> str:
        """The directions as ``+``/``-``, one character per step."""
        return "".join("+" if d > 0 else "-" for d in self.directions)


def _check_angle(theta: float) -> None:
    if not (isinstance(theta, _REAL) and -ANGLE_MAX <= theta <= ANGLE_MAX):  # NaN fails both
        raise ValueError(f"angle {theta!r} outside [-pi/2, pi/2]")


def _check_epsilon(epsilon: float) -> None:
    if not (isinstance(epsilon, _REAL) and EPSILON_MIN <= epsilon <= EPSILON_MAX):
        raise ValueError(f"epsilon {epsilon!r} outside [{EPSILON_MIN:g}, {EPSILON_MAX:g}]")


def _micro_rotations(theta: float, epsilon: float):
    """Yield ``(step, residual, gain)`` after each step of the loop of
    :func:`decompose`: the step, and the residual and gain of the plan that
    ends with it."""
    residual = theta
    gain = 1.0
    n = 0
    while abs(residual) > epsilon:
        if n >= MAX_STEPS:
            raise RuntimeError(f"no convergence after {MAX_STEPS} steps")
        # The loop runs only while |residual| > epsilon >= 1e-9, where
        # the rule picks i <= 30 = INDEX_MAX.
        i = max(round(-math.log2(abs(residual))), 0)
        sigma = 1 if residual > 0 else -1
        nxt = residual - sigma * ATAN_TABLE[i]
        assert abs(nxt) < abs(residual), "micro-rotation must shrink the residual"
        residual = nxt
        gain *= _GAIN_FACTORS[i]
        n += 1
        yield _STEPS[i][sigma < 0], residual, gain


def decompose(theta: float, epsilon: float) -> RotationPlan:
    """Compute the micro-rotation plan for ``theta`` to precision ``epsilon``,
    taking shift ``max(round(-log2|residual|), 0)`` at every step.

    Raises ValueError if |theta| > pi/2 or epsilon is outside [1e-9, 1e-1],
    with the same message if either is not a real number (a string,
    ``None``, a complex), and RuntimeError if the loop fails to make
    progress (which would indicate a bug in the index rule, not bad input).
    """
    _check_angle(theta)
    _check_epsilon(epsilon)
    steps, residual, gain = [], theta, 1.0
    for step, residual, gain in _micro_rotations(theta, epsilon):
        steps.append(step)
    return RotationPlan(
        target=theta,
        tolerance=epsilon,
        steps=tuple(steps),
        residual=residual,
        gain=gain,
    )


class _Decomposition:
    """The decomposition of ``theta`` at ``EPSILON_MIN``, from which
    :meth:`plan` cuts the plan for any ``epsilon``: ``decompose(theta,
    epsilon)``, bit for bit, without running the loop again."""

    def __init__(self, theta: float):
        _check_angle(theta)
        entries = list(_micro_rotations(theta, EPSILON_MIN))
        self.theta = theta
        self.steps = tuple(step for step, _, _ in entries)
        # The residual and gain after each prefix, the empty one first, and
        # -|residual|, which rises with the prefix's length.
        self.residuals = (theta,) + tuple(residual for _, residual, _ in entries)
        self.gains = (1.0,) + tuple(gain for _, _, gain in entries)
        self._keys = [-abs(residual) for residual in self.residuals]

    def plan(self, epsilon: float) -> RotationPlan:
        """The shortest prefix whose |residual| is within ``epsilon``.
        Raises the ValueError of :func:`decompose` on an ``epsilon`` outside
        [1e-9, 1e-1], NaN or not a real number."""
        _check_epsilon(epsilon)
        k = bisect_left(self._keys, -epsilon)
        # by position, which is cheaper than by keyword
        return RotationPlan(self.theta, epsilon, self.steps[:k], self.residuals[k], self.gains[k])


def reconstruct_angle(plan: RotationPlan) -> float:
    """Signed sum of the plan's micro-angles, i.e. the angle it realizes."""
    total = 0.0
    for step in plan.steps:
        total += step.angle
    return total


def generate_table(angles, epsilons) -> list[RotationPlan]:
    """Decompose every (angle, epsilon) pair, angles outer: one plan per
    row of the rendered table."""
    return [decompose(theta, eps) for theta in angles for eps in epsilons]


TABLE_CSV_HEADER = "angle_rad,epsilon,indices,directions,residual_rad,gain"


def table_to_csv(plans) -> str:
    """Render plans as CSV rows (indices slash-separated, directions +/-)."""
    buf = StringIO()
    buf.write(TABLE_CSV_HEADER + "\n")
    for p in plans:
        buf.write(
            f"{p.target!r},{p.tolerance:g},{p.indices_str},{p.directions_str},"
            f"{p.residual!r},{p.gain!r}\n"
        )
    return buf.getvalue()


def table_to_json(plans) -> str:
    payload = [
        {
            "angle_rad": p.target,
            "epsilon": p.tolerance,
            "indices": list(p.indices),
            "directions": p.directions_str,
            "residual_rad": p.residual,
            "gain": p.gain,
        }
        for p in plans
    ]
    return json.dumps(payload, indent=2)
