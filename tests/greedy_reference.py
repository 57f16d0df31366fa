"""Test oracle shared by the planner and acceptance tests."""

from cordic_dct.planner import ANGLE_MAX, ATAN_TABLE, INDEX_MAX, MAX_STEPS


def greedy_reference_steps(theta: float, epsilon: float) -> list[tuple[int, int]]:
    """Brute-force reference decomposition used to validate index policies.

    At every step this scans all shifts 0..INDEX_MAX and takes the one
    that leaves the smallest next residual.  It shares no index-selection
    code with :func:`decompose`.  Note that minimizing the next residual
    is not always the same choice as ``NEAREST``: whenever the residual
    falls between two micro-angles, this picks the closer micro-angle in
    the linear domain while ``NEAREST`` picks the closer one in the log2
    domain, and the two selections differ on a narrow band of residuals
    (about 8% of each octave).
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
