"""8-point DCT built from butterflies, fixed-angle shift-add rotators and
post-scaling, plus exact matrix oracles and the separable 8x8 transform.
The 2-D transform and the 2-D oracles take one 8x8 block or an
``(..., 8, 8)`` stack of blocks.

The 1-D transform uses the classic even/odd factorization: sums and
differences of mirrored inputs feed an even half (two plane rotations by
pi/4 and 3pi/8) and an odd half (rotations by pi/16 and 3pi/16 followed
by recombination butterflies).  Rotations run as uncompensated
micro-rotation sequences; all constant factors -- the 1/2 and 1/(2*sqrt2)
normalization and the rotator gains -- are folded into eight per-output
post-scales applied once at the end.

The two odd rotators have different gains, so a purely per-output scale
cannot absorb both.  In the default ``folded`` compensation mode the
pi/16 rotator pair is brought onto the 3pi/16 rotator's scale by one
extra path-equalizing constant (realized as a CSD shift-add in fixed
point) before the recombination butterflies; ``per_rotator`` mode instead
compensates every rotator by its own gain right away.  Both modes agree
with the exact-matrix oracle to the plan tolerance.

In fixed point every add, micro-rotation step and constant scale is
range-checked against the word, unless the quantized input stays within
the engine's :meth:`DctEngine.safe_input_bound`, below which no node can
leave the word and the checks are skipped as provable no-ops.  Under
``SATURATE`` the transform returns how many values it clipped.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from .fixedpoint import (
    ArithmeticMode,
    FixedPointFormat,
    FixedPointOverflowError,
    OverflowPolicy,
    fit_raw,
)
from .planner import IndexPolicy, RotationPlan, decompose
from .rotator import CsdScale, csd_scale, overflow_limit, rotate_float, rotate_raw

# The four rotation angles the flow graph needs, keyed for readability.
DCT_ANGLES = {
    "pi/4": math.pi / 4,
    "3pi/8": 3 * math.pi / 8,
    "pi/16": math.pi / 16,
    "3pi/16": 3 * math.pi / 16,
}

_CSD_TOLERANCE = 2.0 ** -14  # constant-scale expansion error, fixed-point path
_BUTTERFLY_ADDS = 20  # adds and subtracts of the flow graph outside its rotators
_BOUND_FRAC_BITS = 64  # fraction bits of the scaled integers in a _NodeBound


def dct_matrix() -> np.ndarray:
    """Exact 8x8 transform matrix M[k][x] = 1/2 * C(k) * cos((2x+1)k*pi/16)."""
    m = np.empty((8, 8))
    for k in range(8):
        ck = 1.0 / math.sqrt(2.0) if k == 0 else 1.0
        for x in range(8):
            m[k, x] = 0.5 * ck * math.cos((2 * x + 1) * k * math.pi / 16.0)
    return m


DCT_MATRIX = dct_matrix()


def dct8_oracle(x) -> np.ndarray:
    """Reference 1-D DCT, straight binary64 matrix evaluation."""
    return DCT_MATRIX @ np.asarray(x, dtype=np.float64)


def idct8_oracle(coefs) -> np.ndarray:
    """Exact inverse of :func:`dct8_oracle` (the matrix is orthonormal)."""
    return DCT_MATRIX.T @ np.asarray(coefs, dtype=np.float64)


def _as_blocks(block) -> np.ndarray:
    """One 8x8 block or an (..., 8, 8) stack of them, as float64."""
    b = np.asarray(block, dtype=np.float64)
    if b.ndim < 2 or b.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 block or a stack of them, got shape {b.shape}")
    return b


def dct2d_oracle(block) -> np.ndarray:
    """Reference 8x8 DCT of one block or of each block of an (..., 8, 8) stack."""
    return DCT_MATRIX @ _as_blocks(block) @ DCT_MATRIX.T


def idct2d_oracle(block) -> np.ndarray:
    """Exact inverse of :func:`dct2d_oracle`, for one block or a stack."""
    return DCT_MATRIX.T @ _as_blocks(block) @ DCT_MATRIX


class DctEngine:
    """Immutable bundle of rotation plans, scales and arithmetic mode.

    Parameters
    ----------
    epsilon:
        Shared angle tolerance for the four rotation plans.
    policy:
        Index policy handed to the planner.
    mode:
        ``ArithmeticMode.exact()`` or an ``ArithmeticMode.fixed(...)``.
    compensation:
        ``"folded"`` (gains inside the eight post-scales plus one odd-path
        equalizer) or ``"per_rotator"`` (each rotator compensated inline).
    fold_into_quantizer:
        When True the eight post-scales are *not* applied by the
        transform; a quantizing codec is expected to divide them into its
        step sizes instead.
    """

    def __init__(
        self,
        epsilon: float = 1e-4,
        policy: IndexPolicy = IndexPolicy.NEAREST,
        mode: ArithmeticMode | None = None,
        compensation: str = "folded",
        fold_into_quantizer: bool = False,
    ):
        if compensation not in ("folded", "per_rotator"):
            raise ValueError(f"unknown compensation mode {compensation!r}")
        self.epsilon = epsilon
        self.policy = policy
        self.mode = mode if mode is not None else ArithmeticMode.exact()
        self.compensation = compensation
        self.fold_into_quantizer = fold_into_quantizer

        self.plans: dict[str, RotationPlan] = {
            name: decompose(angle, epsilon, policy) for name, angle in DCT_ANGLES.items()
        }
        g = {name: plan.gain for name, plan in self.plans.items()}

        half = 0.5
        eighth_norm = 0.5 / math.sqrt(2.0)  # the 1/(2*sqrt2) factor on F3/F5
        if compensation == "folded":
            # Odd-path equalizer puts the pi/16 pair on the 3pi/16 scale.
            self.equalizer = g["pi/16"] / g["3pi/16"]
            self.post_scales = np.array(
                [
                    g["pi/4"] * half,      # F0
                    g["3pi/16"] * half,    # F1
                    g["3pi/8"] * half,     # F2
                    g["3pi/16"] * eighth_norm,  # F3
                    g["pi/4"] * half,      # F4
                    g["3pi/16"] * eighth_norm,  # F5
                    g["3pi/8"] * half,     # F6
                    g["3pi/16"] * half,    # F7
                ]
            )
        else:
            self.equalizer = 1.0
            self.post_scales = np.array(
                [half, half, half, eighth_norm, half, eighth_norm, half, half]
            )

    @cached_property
    def _csd(self) -> dict[float, CsdScale]:
        """Shift-add expansion of every constant the fixed-point flow graph
        can scale a column by, keyed by the constant.  Built on first use:
        a float engine never reads it."""
        gains = [plan.gain for plan in self.plans.values()]
        constants = {self.equalizer, *self.post_scales.tolist(), *gains}
        return {c: csd_scale(c, max_terms=16, tolerance=_CSD_TOLERANCE) for c in constants}

    def operation_counts(self) -> dict:
        """Adds/shifts/multiplies for one 8-point transform, JSON-friendly.

        Read off the static cost model of the fixed-point flow graph (the
        shift-add realization is the same whatever the engine's own
        arithmetic mode or word format); nothing is run.
        """
        adds, shifts = self._row_cost
        return {
            "adds": adds,
            "shifts": shifts,
            "multiplies": 0,
            "rotation_steps": {name: len(p.steps) for name, p in self.plans.items()},
        }

    @cached_property
    def _row_cost(self) -> tuple[int, int]:
        """(adds, shifts) of one row through :func:`_flow_raw`: 2 of each per
        micro-rotation step, 1 of each per CSD term applied to a column, and
        the butterfly adds."""
        steps = sum(len(p.steps) for p in self.plans.values())
        if self.compensation == "per_rotator":
            compensation = [plan.gain for plan in self.plans.values()]
        else:
            compensation = [self.equalizer]
        scaled = 2 * compensation  # each scales the two outputs of a rotator
        if not self.fold_into_quantizer:
            scaled += self.post_scales.tolist()
        csd = sum(len(self._csd[c].terms) for c in scaled)
        return _BUTTERFLY_ADDS + 2 * steps + csd, 2 * steps + csd

    def safe_input_bound(self, fmt: FixedPointFormat) -> int:
        """Largest input magnitude ``max|raw|`` for which no range-checked
        node of the fixed-point transform in ``fmt`` can leave the word.

        Derived once per engine by interval propagation over the flow
        graph (see :class:`_NodeBound`).  The bound is sound, so the
        range checks the transform skips below it are no-ops.
        """
        gain, offset = self._node_growth
        # An all-zero input keeps every node at 0, so 0 is always safe.
        return max(0, ((fmt.max_raw << _BOUND_FRAC_BITS) - offset) // gain)

    @cached_property
    def input_limit(self) -> float:
        """Largest sample magnitude :func:`transform8` accepts.

        It is :func:`~cordic_dct.rotator.overflow_limit` of the largest
        factor by which a float value the transform computes can exceed
        ``max|x|``: the float flow graph's growth (see :class:`_Magnitude`),
        or in fixed point the quantizing multiply by ``2**frac_bits``, after
        which the graph runs on range-checked integers.
        """
        if self.mode.is_fixed:
            return overflow_limit(float(self.mode.fmt.raw_scale))
        # The post-scales (at most 1/2) only shrink the graph's outputs.
        unit = _Magnitude(1.0)
        outputs = _flow(self, [unit] * 8, rotate_float, operator.mul, _unchecked)
        return overflow_limit(max(node.peak for node in outputs))

    @cached_property
    def _node_growth(self) -> tuple[int, int]:
        """(gain, offset) with |node| <= (gain*M + offset) / 2**_BOUND_FRAC_BITS
        at every range-checked node, for inputs with max|raw| <= M."""
        gain, offset = 0, 0

        def record(node: _NodeBound) -> _NodeBound:
            nonlocal gain, offset
            gain, offset = max(gain, node.gain), max(offset, node.offset)
            return node

        unit = _NodeBound(1 << _BOUND_FRAC_BITS, 0)
        _flow_raw(self, [unit] * 8, record)
        return gain, offset


class _NodeBound:
    """Upper bound ``(gain*M + offset) / 2**_BOUND_FRAC_BITS`` on the
    magnitude of one flow-graph node, for inputs with max|raw| <= M.

    It supports what :func:`_flow_raw` does to raw columns:
    ``|a +- b| <= A + B``, ``|a << k| = A * 2**k`` and, for
    the floor shift, ``|a >> i| <= ceil(A / 2**i) < A / 2**i + 1``.
    Scaled values round up, so each bound stays an upper bound.
    """

    __slots__ = ("gain", "offset")

    def __init__(self, gain: int, offset: int):
        self.gain = gain
        self.offset = offset

    def __add__(self, other: "_NodeBound") -> "_NodeBound":
        return _NodeBound(self.gain + other.gain, self.offset + other.offset)

    __sub__ = __add__

    def __lshift__(self, k: int) -> "_NodeBound":
        return _NodeBound(self.gain << k, self.offset << k)

    def __rshift__(self, i: int) -> "_NodeBound":
        return _NodeBound(-(-self.gain >> i), -(-self.offset >> i) + (1 << _BOUND_FRAC_BITS))


class _Magnitude:
    """Upper bound ``bound * max|x|`` on the magnitude of one float
    flow-graph node, and ``peak``, the largest bound of any node on the
    way to it.

    It supports what :func:`_flow` does to float columns:
    ``|a +- b| <= A + B`` and ``|c * a| = |c| * A`` for a constant ``c``.
    The bounds are rounded floats; the overflow margin covers that.
    """

    __slots__ = ("bound", "peak")

    def __init__(self, bound: float, peak: float = 0.0):
        self.bound = bound
        self.peak = max(peak, bound)

    def __add__(self, other: "_Magnitude") -> "_Magnitude":
        return _Magnitude(self.bound + other.bound, max(self.peak, other.peak))

    __sub__ = __add__

    def __mul__(self, c: float) -> "_Magnitude":
        return _Magnitude(self.bound * abs(c), self.peak)

    __rmul__ = __mul__


def _unchecked(value):
    return value


def _flow(engine: DctEngine, x: list, rotate, scale, fit) -> list:
    """The DCT flow graph on eight input columns, before the post-scales:
    the even/odd butterflies, the four rotators, their compensation (the
    ``folded`` equalizer or the ``per_rotator`` gains) and the
    recombination butterflies.

    The arithmetic comes from the op set: ``rotate(x, y, steps)`` folds a
    plan's unscaled micro-rotations, ``scale(column, constant)`` multiplies
    by one of the engine's constants, and ``fit`` takes every sum the
    graph forms.  Float passes :func:`rotate_float`, ``operator.mul`` and
    :func:`_unchecked`; fixed point passes the raw op set of
    :func:`_flow_raw`.  The columns are Python numbers (one sample vector)
    or NumPy arrays (a batch of rows) alike, with the same bits either
    way, and also the bound types :class:`_Magnitude` and
    :class:`_NodeBound`, which is how the engine's input limits are
    derived.
    """
    plans = engine.plans
    x0, x1, x2, x3, x4, x5, x6, x7 = x

    u0, u1, u2, u3 = fit(x0 + x7), fit(x1 + x6), fit(x2 + x5), fit(x3 + x4)
    v0, v1, v2, v3 = fit(x0 - x7), fit(x1 - x6), fit(x2 - x5), fit(x3 - x4)

    p, q = fit(u0 + u3), fit(u1 + u2)
    r, s = fit(u0 - u3), fit(u1 - u2)
    g0, g1 = rotate(p, q, plans["pi/4"].steps)
    h0, h1 = rotate(r, s, plans["3pi/8"].steps)
    a1, a0 = rotate(v3, v0, plans["pi/16"].steps)
    b1, b0 = rotate(v2, v1, plans["3pi/16"].steps)

    if engine.compensation == "per_rotator":
        g0, g1 = scale(g0, plans["pi/4"].gain), scale(g1, plans["pi/4"].gain)
        h0, h1 = scale(h0, plans["3pi/8"].gain), scale(h1, plans["3pi/8"].gain)
        a0, a1 = scale(a0, plans["pi/16"].gain), scale(a1, plans["pi/16"].gain)
        b0, b1 = scale(b0, plans["3pi/16"].gain), scale(b1, plans["3pi/16"].gain)
    else:
        a0, a1 = scale(a0, engine.equalizer), scale(a1, engine.equalizer)

    # Under ERROR the first node that leaves the word raises, so this
    # order (1, 7, 3, 5) fixes which error a call reports.
    f1, f7 = fit(a0 + b0), fit(b1 - a1)
    f3 = fit(fit(a0 - a1) - fit(b0 + b1))
    f5 = fit(fit(a0 + a1) - fit(b0 - b1))
    return [g1, f1, h1, f3, g0, f5, h0, f7]


def _columns(X: np.ndarray, axis: int) -> list:
    """The eight flow-graph inputs of ``X``: its slices along ``axis``."""
    return list(X.swapaxes(0, axis))


def _stack(cols: list, axis: int) -> np.ndarray:
    """The eight flow-graph outputs stacked along ``axis``; along axis 0
    through ``np.array``, which costs a few microseconds less per call
    than ``np.stack``."""
    return np.array(cols) if axis == 0 else np.stack(cols, axis=axis)


def _transform8_float(engine: DctEngine, X: np.ndarray, axis: int) -> np.ndarray:
    cols = X.tolist() if X.ndim == 1 else _columns(X, axis)
    F = _stack(_flow(engine, cols, rotate_float, operator.mul, _unchecked), axis)
    if not engine.fold_into_quantizer:
        scales = engine.post_scales
        if axis < F.ndim - 1:  # one multiply, the scales broadcast along ``axis``
            scales = scales.reshape((8,) + (1,) * (F.ndim - 1 - axis))
        F *= scales
    return F


def _to_raw_array(X: np.ndarray, fmt: FixedPointFormat, check) -> tuple[np.ndarray, float]:
    """Quantize to raw integers, range-checked by ``check`` if any is out
    of the word; also return max|raw| before any clipping."""
    scaled = X * float(fmt.raw_scale)
    rounded = np.trunc(scaled + np.copysign(0.5, scaled))
    peak = float(np.abs(rounded).max(initial=0.0))
    if peak > fmt.max_raw:
        # Range-check while still in float: casting a float beyond int64 is
        # undefined (INT64_MIN on x86, whatever the sign).
        rounded = check(rounded)
    return rounded.astype(np.int64), peak


def _fit_array(raw: np.ndarray, mode: ArithmeticMode) -> tuple[np.ndarray, int]:
    """Clamp or reject the values of ``raw`` outside the word; also return
    how many were clamped."""
    fmt = mode.fmt
    low = (raw < fmt.min_raw)
    high = (raw > fmt.max_raw)
    n_out = int(low.sum()) + int(high.sum())
    if n_out:
        if mode.overflow is OverflowPolicy.ERROR:
            raise FixedPointOverflowError(
                f"{n_out} value(s) outside {fmt.total_bits}.{fmt.frac_bits} range"
            )
        raw = np.clip(raw, fmt.min_raw, fmt.max_raw)
    return raw, n_out


def _flow_raw(engine: DctEngine, x: list, fit) -> list:
    """The fixed-point flow graph on eight raw input columns, post-scales
    included: :func:`_flow` on the raw op set, shift-add only.

    Every node that can leave the word goes through ``fit``: the range
    check of the mode, or :func:`_unchecked` once the input is known to
    be within the engine's safe input bound.  Each constant is applied as
    its CSD expansion (``DctEngine._csd``).  The graph only adds,
    subtracts and shifts, so it also runs on :class:`_NodeBound` values,
    which is how that bound is derived.  Its cost per row is
    ``DctEngine._row_cost``.
    """
    csd = engine._csd

    def rotate(x, y, steps):
        return rotate_raw(x, y, steps, fit)

    def scale(col, constant):
        return fit(csd[constant].apply_raw(col))

    cols = _flow(engine, x, rotate, scale, fit)
    if not engine.fold_into_quantizer:
        cols = [scale(c, s) for c, s in zip(cols, engine.post_scales.tolist())]
    return cols


def _transform8_fixed(engine: DctEngine, X: np.ndarray, axis: int) -> tuple[np.ndarray, int]:
    mode, fmt = engine.mode, engine.mode.fmt
    saturations = 0  # values clipped by ``check``, the input's included
    if X.ndim == 1:  # Python ints, through the scalar boundary converters
        def check(r):
            nonlocal saturations
            fitted = fit_raw(r, mode)
            saturations += fitted != r
            return fitted

        cols = [fmt.to_raw(v) for v in X.tolist()]
        peak = max(map(abs, cols))
        if peak > fmt.max_raw:
            cols = [check(r) for r in cols]
    else:
        def check(a):
            nonlocal saturations
            a, clipped = _fit_array(a, mode)
            saturations += clipped
            return a

        raw, peak = _to_raw_array(X, fmt, check)
        cols = _columns(raw, axis)
    # Below the bound no node can leave the word: every check is a no-op.
    fit = _unchecked if peak <= engine.safe_input_bound(fmt) else check
    cols = _flow_raw(engine, cols, fit)
    return _stack(cols, axis) * fmt.lsb, saturations


def transform8(engine: DctEngine, X, *, _axis: int | None = None) -> tuple[np.ndarray, int]:
    """Run the flow graph on each row of an (n, 8) array, or on one vector.

    Returns the coefficients and the number of values clipped under
    ``OverflowPolicy.SATURATE``, at input quantization and at every
    range-checked node; the count is 0 in float, under ``ERROR``, and for
    input within :meth:`DctEngine.safe_input_bound`.  The cost in adds and
    shifts is ``rows x DctEngine.operation_counts()``.

    One ``(8,)`` vector runs the flow graph on Python numbers; a batch
    runs the same graph on NumPy columns, for the same bits.  Raises
    ``ValueError`` on any other shape (a block stack goes through
    :func:`dct2d`) and on a sample that is non-finite or beyond the
    engine's :attr:`DctEngine.input_limit`, in both arithmetic modes.

    ``_axis`` is internal to :func:`_dct2d_planes`: it runs the graph
    along that axis of an array of any shape, whose slices along it are
    the graph's eight input columns, and stacks the outputs back along it.
    """
    arr = np.asarray(X, dtype=np.float64)
    if _axis is None:
        if arr.shape != (8,) and (arr.ndim != 2 or arr.shape[1] != 8):
            raise ValueError(f"expected rows of 8 samples, got shape {arr.shape}")
        _axis = arr.ndim - 1
    limit = engine.input_limit
    if arr.ndim == 1:  # on Python floats, cheaper than two NumPy reductions
        within = all(-limit <= v <= limit for v in arr.tolist())
    else:  # two reductions and no temporary
        within = -limit <= arr.min(initial=limit) and arr.max(initial=-limit) <= limit
    if not within:  # NaN fails every comparison
        raise ValueError(
            f"transform input non-finite or beyond {limit:.4g}, where the "
            "transform could overflow binary64"
        )
    if engine.mode.is_fixed:
        return _transform8_fixed(engine, arr, _axis)
    return _transform8_float(engine, arr, _axis), 0


def dct8_cordic(x, engine: DctEngine) -> np.ndarray:
    """Shift-add 8-point DCT of one sample vector."""
    return transform8(engine, x)[0]


def _planes(blocks: np.ndarray) -> np.ndarray:
    """An (..., 8, 8) or (n, 64) block stack as C-ordered (64, n) planes of
    its dtype: row ``p`` holds in-block position ``p`` (raster order) of
    every block.  Always a copy."""
    return np.array(blocks.reshape(-1, 64).T, order="C")


def _dct2d_planes(engine: DctEngine, planes: np.ndarray) -> tuple[np.ndarray, int]:
    """Separable 8x8 transform of a C-ordered (64, n) plane array: row
    ``p`` holds in-block position ``p`` (raster order) of all ``n``
    blocks, and so does row ``p`` of the (64, n) result.  Also returns
    the values both passes clipped (see :func:`transform8`).

    The row pass runs the flow graph on the eight (8, n) column planes
    and stacks its outputs along axis 1, which leaves each row of every
    block as one contiguous (8, n) plane; the column pass runs on those
    and stacks along axis 0, straight into coefficient planes.  Each pass
    is one :func:`transform8` call over all ``8 n`` rows, its post-scales
    one multiply, so the planes are never transposed or copied between
    passes.
    """
    n = planes.shape[1]
    # [row, column, block]; one block as an 8x8 array, whose columns are
    # 1-D and cheaper per ufunc call
    blocks = planes.reshape(8, 8) if n == 1 else planes.reshape(8, 8, n)
    rows, row_sats = transform8(engine, blocks, _axis=1)  # [row, horizontal frequency, block]
    coefs, col_sats = transform8(engine, rows.reshape(8, 8 * n), _axis=0)
    return coefs.reshape(64, n), row_sats + col_sats


def dct2d(block, engine: DctEngine) -> np.ndarray:
    """Separable 8x8 transform of one block or of each block of an
    (..., 8, 8) stack: rows, then columns.

    The stack is transposed once into (64, n) planes (:func:`_planes`) for
    :func:`_dct2d_planes`, and the result is a view of its coefficient
    planes in the stack's shape.  Each pass is one :func:`transform8`
    call over every row of the stack, with the bits, refusals and
    saturations of a row pass over the stack, then a row pass over the
    swapped stack.
    """
    b = _as_blocks(block)
    coefs, _ = _dct2d_planes(engine, _planes(b))
    return coefs.T.reshape(b.shape)
