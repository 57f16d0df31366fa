"""Test oracles shared by the planner and acceptance tests."""

import math

from cordic_dct.planner import ANGLE_MAX, ATAN_TABLE, INDEX_MAX, MAX_STEPS


def greedy_reference_steps(theta: float, epsilon: float) -> list[tuple[int, int]]:
    """Brute-force reference decomposition used to validate the index rule.

    At every step this scans all shifts 0..INDEX_MAX and takes the one
    that leaves the smallest next residual.  It shares no index-selection
    code with :func:`decompose`.  Note that minimizing the next residual
    is not always the same choice as the nearest shift: whenever the
    residual falls between two micro-angles, this picks the closer
    micro-angle in the linear domain while ``decompose`` picks the closer
    one in the log2 domain, and the two selections differ on a narrow
    band of residuals (about 8% of each octave).
    """
    if abs(theta) > ANGLE_MAX:
        raise ValueError(f"angle {theta!r} outside [-pi/2, pi/2]")
    residual = theta
    out = []
    while abs(residual) > epsilon and len(out) < MAX_STEPS:
        sigma = 1 if residual > 0 else -1
        best = min(range(INDEX_MAX + 1), key=lambda i: abs(residual - sigma * ATAN_TABLE[i]))
        residual -= sigma * ATAN_TABLE[best]
        out.append((best, sigma))
    return out


def tan_rule_steps(theta: float, epsilon: float) -> list[tuple[int, int]]:
    """Decomposition under the rule ``i = floor(-log2(tan|residual|)) + 1``,
    a comparison for the nearest-shift rule of :func:`decompose`.

    It converges too, but picks different, usually more, steps: it takes
    the largest micro-angle below the residual, so it never overshoots,
    where the nearest shift may.
    """
    residual = theta
    out = []
    while abs(residual) > epsilon and len(out) < MAX_STEPS:
        sigma = 1 if residual > 0 else -1
        i = max(math.floor(-math.log2(math.tan(abs(residual)))) + 1, 0)
        residual -= sigma * ATAN_TABLE[i]
        out.append((i, sigma))
    return out
