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

Everything here is pure binary64 arithmetic over immutable values; plans
can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from io import StringIO

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
        if not 0 <= self.index <= INDEX_MAX:
            raise ValueError(f"shift index {self.index} outside [0, {INDEX_MAX}]")
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")

    @property
    def angle(self) -> float:
        """Signed micro-angle ``direction * atan(2**-index)``."""
        return self.direction * ATAN_TABLE[self.index]


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


def decompose(theta: float, epsilon: float) -> RotationPlan:
    """Compute the micro-rotation plan for ``theta`` to precision ``epsilon``,
    taking shift ``max(round(-log2|residual|), 0)`` at every step.

    Raises ValueError if |theta| > pi/2 or epsilon is outside [1e-9, 1e-1],
    and RuntimeError if the loop fails to make progress (which would
    indicate a bug in the index rule, not bad input).
    """
    if not math.isfinite(theta) or abs(theta) > ANGLE_MAX:
        raise ValueError(f"angle {theta!r} outside [-pi/2, pi/2]")
    if not (EPSILON_MIN <= epsilon <= EPSILON_MAX):
        raise ValueError(f"epsilon {epsilon!r} outside [{EPSILON_MIN:g}, {EPSILON_MAX:g}]")

    residual = theta
    steps = []
    while abs(residual) > epsilon:
        if len(steps) >= MAX_STEPS:
            raise RuntimeError(f"no convergence after {MAX_STEPS} steps")
        # The loop runs only while |residual| > epsilon >= 1e-9, where
        # the rule picks i <= 30 = INDEX_MAX.
        i = max(round(-math.log2(abs(residual))), 0)
        sigma = 1 if residual > 0 else -1
        nxt = residual - sigma * ATAN_TABLE[i]
        assert abs(nxt) < abs(residual), "micro-rotation must shrink the residual"
        residual = nxt
        steps.append(MicroRotation(i, sigma))

    gain = 1.0
    for step in steps:
        # sqrt(1/(1+t)) rather than 1/sqrt(1+t): one correctly-rounded
        # operation per factor instead of two roundings
        gain *= math.sqrt(1.0 / (1.0 + 2.0 ** (-2 * step.index)))
    return RotationPlan(
        target=theta,
        tolerance=epsilon,
        steps=tuple(steps),
        residual=residual,
        gain=gain,
    )


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
