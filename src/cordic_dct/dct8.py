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

Samples enter either arithmetic through the input boundary the scalar
rotator uses too, in ``fixedpoint``: one refusal (complex, non-finite, or
beyond :attr:`DctEngine.input_limit`) and, in fixed point, one quantizer
and range check (:func:`~cordic_dct.fixedpoint.run_raw`).  There each
add, micro-rotation step and compensation product is a node,
range-checked against the word only when the quantized input's peak
exceeds the node's threshold: the largest peak at which neither the node
nor a node it is formed from can leave the word, so the checks skipped
are provable no-ops.  The thresholds come from each node's exact affine
form (:class:`_Affine`), derived once for all the engines that share a
plan set (:class:`_PlanSet`).  Under ``SATURATE`` the transform returns
how many values it clipped.  The fixed 2-D transform quantizes its input
once: the row pass hands its raw words to the column pass as they are,
and only the coefficients are multiplied by the LSB.

An engine runs no decomposition: each of its four plans is the shortest
prefix within its epsilon of the angle's decomposition at ``EPSILON_MIN``,
taken once at import (``_DECOMPOSITIONS``), which is
:func:`~cordic_dct.planner.decompose`'s plan bit for bit (the prefix rule
in ``planner``).  The engines of one plan set -- equal plans, compensation
and fold -- read one :class:`_PlanSet` from ``_PLAN_SETS``: the steps and
constants the graph runs on, and what is derived from them once, on first
use: the CSD expansions, the node data, the thresholds in each word and
the float limit.

On NumPy columns the kernels take their constants as 0-d arrays, which a
ufunc does not convert on every call as it converts a Python number: the
shift tables of ``rotator``, and each plan set's scale constants
(``_PlanSet.array_constants``), built on first use.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from .fixedpoint import (ArithmeticMode, FixedPointFormat, _unchecked, check_input,
                         datapath_limit, overflow_limit, run_raw)
from .planner import RotationPlan, _Decomposition
from .rotator import CsdScale, csd_scale, rotate_float, rotate_raw

# The four rotation angles the flow graph needs, keyed for readability.
DCT_ANGLES = {
    "pi/4": math.pi / 4,
    "3pi/8": 3 * math.pi / 8,
    "pi/16": math.pi / 16,
    "3pi/16": 3 * math.pi / 16,
}
# Each angle's decomposition at EPSILON_MIN, from which every engine cuts
# its plan for its own epsilon as a prefix (see ``planner``).
_DECOMPOSITIONS = {name: _Decomposition(angle) for name, angle in DCT_ANGLES.items()}

# Per output of ``_flow``, F0 to F7: its normalization (1/2, or 1/(2*sqrt2)
# on F3/F5) and the rotator whose gain it carries.  The odd outputs carry
# the 3pi/16 gain: the ``folded`` equalizer puts the pi/16 pair on that scale.
_OUTPUT_SCALES = tuple(zip(
    [0.5, 0.5, 0.5, 0.5 / math.sqrt(2.0), 0.5, 0.5 / math.sqrt(2.0), 0.5, 0.5],
    ["pi/4", "3pi/16", "3pi/8", "3pi/16", "pi/4", "3pi/16", "3pi/8", "3pi/16"],
))
_CSD_TOLERANCE = 2.0 ** -14  # constant-scale expansion error, fixed-point path
_BUTTERFLY_ADDS = 20  # adds and subtracts of the flow graph outside its rotators

# The plan set of each engine built so far, keyed by its four plans' prefix
# lengths, its compensation and its fold: each plan is a prefix of its
# angle's ``_DECOMPOSITIONS`` entry, so its length fixes its steps.  The
# whole epsilon range [1e-9, 1e-1] gives 27 distinct sets of four plans, so
# this holds at most 108 entries.
_PLAN_SETS: dict[tuple, "_PlanSet"] = {}


def dct_matrix() -> np.ndarray:
    """Exact 8x8 transform matrix M[k][x] = 1/2 * C(k) * cos((2x+1)k*pi/16)."""
    m = np.empty((8, 8))
    for k in range(8):
        ck = 1.0 / math.sqrt(2.0) if k == 0 else 1.0
        for x in range(8):
            m[k, x] = 0.5 * ck * math.cos((2 * x + 1) * k * math.pi / 16.0)
    return m


DCT_MATRIX = dct_matrix()


def _real(x) -> np.ndarray:
    """``x`` as a float64 array.  Refuses every dtype but bool, integer and
    float: the cast would drop a complex value's imaginary part with only a
    ``ComplexWarning``, count a datetime in days since 1970, and parse a
    string, also one held in an object array."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"expected real samples, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def dct8_oracle(x) -> np.ndarray:
    """Reference 1-D DCT, straight binary64 matrix evaluation."""
    return DCT_MATRIX @ _real(x)


def idct8_oracle(coefs) -> np.ndarray:
    """Exact inverse of :func:`dct8_oracle` (the matrix is orthonormal)."""
    return DCT_MATRIX.T @ _real(coefs)


def _as_blocks(block) -> np.ndarray:
    """One 8x8 block or an (..., 8, 8) stack of them, as float64."""
    b = _real(block)
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

    The engines of one plan set read one :class:`_PlanSet`, whose
    read-only array is their ``post_scales`` and whose flag is their
    ``fold_into_quantizer``.  Rebinding or deleting an attribute raises
    ``AttributeError``.

    Parameters
    ----------
    epsilon:
        Shared angle tolerance for the four rotation plans, each
        :func:`~cordic_dct.planner.decompose` of its angle, bit for bit: the
        shortest prefix within ``epsilon`` of the angle's decomposition at
        ``EPSILON_MIN`` (``_DECOMPOSITIONS``), so building an engine runs
        no decomposition.
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
        mode: ArithmeticMode | None = None,
        compensation: str = "folded",
        fold_into_quantizer: bool = False,
    ):
        if compensation not in ("folded", "per_rotator"):
            raise ValueError(f"unknown compensation mode {compensation!r}")
        if mode is not None and not isinstance(mode, ArithmeticMode):
            raise ValueError(f"mode must be None or an ArithmeticMode, got {mode!r}")
        # Read by truthiness, a look-alike such as "False" would fold.
        if not isinstance(fold_into_quantizer, bool):
            raise ValueError(f"fold_into_quantizer must be a bool, got {fold_into_quantizer!r}")
        plans: dict[str, RotationPlan] = {
            name: sequence.plan(epsilon) for name, sequence in _DECOMPOSITIONS.items()
        }
        key = (*[len(p.steps) for p in plans.values()], compensation, fold_into_quantizer)
        plan_set = _PLAN_SETS.get(key)
        if plan_set is None:  # two threads may both build it; both keep the one stored
            plan_set = _PLAN_SETS.setdefault(
                key, _PlanSet(plans, compensation, fold_into_quantizer))
        # Set once, here: ``__setattr__`` refuses every later write.
        self.__dict__.update(
            epsilon=epsilon, mode=mode if mode is not None else ArithmeticMode.exact(),
            compensation=compensation, plans=plans, _set=plan_set)

    def __setattr__(self, name, value):
        raise AttributeError(f"DctEngine is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DctEngine is immutable: cannot delete {name!r}")

    @property
    def post_scales(self) -> np.ndarray:
        """The plan set's eight read-only post-scales."""
        return self._set.post_scales

    @property
    def fold_into_quantizer(self) -> bool:
        return self._set.fold_into_quantizer

    def operation_counts(self) -> dict:
        """Adds/shifts/multiplies for one 8-point transform, JSON-friendly.

        Read off the static cost model of the fixed-point flow graph (the
        shift-add realization is the same whatever the engine's own
        arithmetic mode or word format); nothing is run.
        """
        adds, shifts = self._set.row_cost
        return {
            "adds": adds,
            "shifts": shifts,
            "multiplies": 0,
            "rotation_steps": {name: len(p.steps) for name, p in self.plans.items()},
        }

    def safe_input_bound(self, fmt: FixedPointFormat) -> int:
        """Largest input ``max|raw|`` for which no node of the fixed-point
        transform in ``fmt`` can leave the word, so a call at or below it
        checks no node: the least node threshold
        (:meth:`_PlanSet.thresholds`).  Above it, a call checks only the
        nodes whose threshold its peak exceeds."""
        # An all-zero input keeps every node at 0, so 0 is always safe.
        return max(0, self._set.thresholds(fmt)[1])

    @cached_property
    def input_limit(self) -> float:
        """Largest sample magnitude :func:`transform8` accepts:
        :func:`~cordic_dct.fixedpoint.overflow_limit` of the largest factor by
        which a float value the transform computes can exceed ``max|x|``,
        the rule of :func:`~cordic_dct.fixedpoint.datapath_limit`.

        In fixed point that is the quantizing multiply by ``2**frac_bits``,
        after which the graph runs on range-checked integers; a fixed engine
        never derives the float factor.  In float it is the largest l1 norm
        of a node's exact linear form plus rounding: a path from an input
        rounds at most ``d`` times (four butterfly adds, one compensating
        multiply, one add per rotator step), so a node is off its form by at
        most ``gamma_d`` (Higham, "Accuracy and Stability of Numerical
        Algorithms", 3.1) times its sum of |path products|, the error of unit
        inputs carrying ``[-gamma, gamma]``.  ``gamma = d * 2**-52``, twice
        ``gamma_d``, also covers rounding.  A post-scale product is at most
        half of the node it scales."""
        return datapath_limit(self.mode, lambda: self._set.float_limit)


class _PlanSet:
    """What fixes every number of an engine's flow graph, shared by all
    the engines of one plan set (``_PLAN_SETS``).  Set here: each rotator's
    steps, the compensation constants, the fold, the post-scales and the
    row constants.  Derived on first use, once for the set: the CSD
    expansions, the 0-d array constants, the row cost, the node data, the
    thresholds in each word and the float limit.  Two threads may both
    derive one first; they store equal values."""

    def __init__(self, plans: dict[str, RotationPlan], compensation: str,
                 fold_into_quantizer: bool):
        self.steps = {name: plan.steps for name, plan in plans.items()}
        self.fold_into_quantizer = fold_into_quantizer
        g = {name: plan.gain for name, plan in plans.items()}
        # ``compensation`` maps a rotator's name to the constant that
        # scales both its outputs, in graph order; a rotator it leaves out
        # stays uncompensated, and its gain goes into the post-scales.
        if compensation == "folded":
            # Odd-path equalizer puts the pi/16 pair on the 3pi/16 scale.
            self.compensation = {"pi/16": g["pi/16"] / g["3pi/16"]}
        else:
            self.compensation = g
        # Every engine of the set holds this array: it must not be written.
        self.post_scales = np.array([
            norm * (1.0 if rotator in self.compensation else g[rotator])
            for norm, rotator in _OUTPUT_SCALES
        ])
        self.post_scales.flags.writeable = False
        # The constant of each column scale one row of the flow graph
        # applies, in order: each compensation constant on both outputs of
        # its rotator, then the post-scales unless they are folded into the
        # quantizer.
        self.row_constants = [c for c in self.compensation.values() for _ in range(2)]
        if not fold_into_quantizer:
            self.row_constants += self.post_scales.tolist()
        self._thresholds: dict[FixedPointFormat, tuple[tuple[int, ...], int]] = {}

    @cached_property
    def csd(self) -> dict[float, CsdScale]:
        """Shift-add expansion of each distinct row constant, and of nothing
        else, keyed by the constant: a float engine never reads it."""
        return {c: csd_scale(c, max_terms=16, tolerance=_CSD_TOLERANCE)
                for c in dict.fromkeys(self.row_constants)}

    def scale_raw(self, raw, constant: float):
        """``raw`` times ``constant``, shift-add only: the raw op set's
        scale, through the constant's CSD expansion in :attr:`csd`."""
        return self.csd[constant].apply_raw(raw)

    @cached_property
    def array_constants(self) -> dict[float, np.ndarray]:
        """Each row constant as a 0-d float64 array, keyed by the constant:
        the operand a ufunc takes without converting it on every call.  A
        fixed engine never reads it."""
        return {c: np.array(c) for c in self.row_constants}

    def scale_array(self, column: np.ndarray, constant: float) -> np.ndarray:
        """``column`` times ``constant``: the float op set's scale on a NumPy
        column, through :attr:`array_constants`.  On Python numbers it is
        ``operator.mul``."""
        return column * self.array_constants[constant]

    @cached_property
    def row_cost(self) -> tuple[int, int]:
        """(adds, shifts) of one row through :func:`_flow` on the raw op
        set: 2 of each per micro-rotation step, 1 of each per CSD term
        applied to a column, and the butterfly adds."""
        steps = sum(map(len, self.steps.values()))
        csd = sum(len(self.csd[c].terms) for c in self.row_constants)
        return _BUTTERFLY_ADDS + 2 * steps + csd, 2 * steps + csd

    @cached_property
    def nodes(self) -> tuple:
        """``(l1, err, exp, parents)`` of each node of the raw op set, in
        ``fit`` order: its affine form's l1 norm and floor-shift error
        magnitude, both at its scale ``2**exp``, and the indices of the
        nodes it is formed from.  Nothing here depends on the word format."""
        return tuple(
            (sum(map(abs, node.lanes)), max(-node.lo, node.hi), node.exp,
             tuple(j for j in range(node.parents.bit_length()) if node.parents >> j & 1))
            for node in _walk(self, rotate_raw, self.scale_raw, 0, 0)
        )

    def thresholds(self, fmt: FixedPointFormat) -> tuple[tuple[int, ...], int]:
        """Each node's threshold in ``fmt``, and their least value, derived
        once per word: what :func:`~cordic_dct.fixedpoint.run_raw` reads on
        every fixed-point call.  A node's threshold is the largest input
        ``max|raw|`` at which neither it nor a node it is formed from can
        leave the word.

        A node whose ancestors stay in the word is its affine form, so it stays
        in the word up to ``T = floor((max_raw * 2**exp - err) / l1)``; its
        threshold is the least of ``T`` and its parents' thresholds.  Under
        ``SATURATE`` a clamped ancestor breaks the form, so every node
        downstream of one that may clamp is checked too."""
        word = self._thresholds.get(fmt)
        if word is None:
            per_node = []
            for l1, err, exp, parents in self.nodes:
                own = ((fmt.max_raw << exp) - err) // l1
                per_node.append(min([own] + [per_node[j] for j in parents]))
            word = self._thresholds[fmt] = tuple(per_node), min(per_node)
        return word

    @cached_property
    def float_limit(self) -> float:
        """:attr:`DctEngine.input_limit` in float: the nodes' largest l1 norm
        and error magnitude on the float op set, at their finest scale."""
        steps = sum(map(len, self.steps.values()))
        nodes = _walk(self, rotate_float, operator.mul, 52, 5 + steps)
        exp = max(node.exp for node in nodes)
        gain = max(sum(map(abs, node.lanes)) << (exp - node.exp) for node in nodes)
        error = max(max(-node.lo, node.hi) << (exp - node.exp) for node in nodes)
        return overflow_limit((gain + error) / (1 << exp))

class _Affine:
    """A flow-graph node as an exact affine form in the eight inputs (Stolfi
    & de Figueiredo, affine arithmetic, 1997): ``(sum(lanes[j] * x[j]) +
    e) / 2**exp`` for some ``e`` in ``[lo, hi]``, all Python ints.  ``+``,
    ``-`` and multiplying by a float (an exact dyadic) are exact; a floor
    shift ``v >> i`` of an integer is ``v / 2**i - f``, ``f`` in ``[0, 1 -
    2**-i]`` (Hu, "The quantization effects of the CORDIC algorithm", IEEE
    Trans. Signal Processing 1992).  The graph's constants are below 1.5,
    so no CSD term shifts left, and the type has no ``<<``.

    ``parents`` has bit ``j`` set when the value is formed from node ``j``,
    the ``j``-th value a walk of :func:`_flow` passed through ``fit``, since
    the last ``fit``; the operations keep the union of their operands'."""

    __slots__ = ("lanes", "lo", "hi", "exp", "parents")

    def __init__(self, lanes: tuple, lo: int, hi: int, exp: int, parents: int = 0):
        self.lanes, self.lo, self.hi, self.exp = lanes, lo, hi, exp
        self.parents = parents

    def _at(self, exp: int) -> tuple:  # (lanes, lo, hi) at a finer scale 2**exp
        k = exp - self.exp
        if k:
            return tuple([c << k for c in self.lanes]), self.lo << k, self.hi << k
        return self.lanes, self.lo, self.hi

    def __add__(self, other: "_Affine") -> "_Affine":
        exp = max(self.exp, other.exp)
        (a, alo, ahi), (b, blo, bhi) = self._at(exp), other._at(exp)
        return _Affine(tuple(map(operator.add, a, b)), alo + blo, ahi + bhi, exp,
                       self.parents | other.parents)

    def __sub__(self, other: "_Affine") -> "_Affine":
        exp = max(self.exp, other.exp)
        (a, alo, ahi), (b, blo, bhi) = self._at(exp), other._at(exp)
        return _Affine(tuple(map(operator.sub, a, b)), alo - bhi, ahi - blo, exp,
                       self.parents | other.parents)

    def __rshift__(self, i: int) -> "_Affine":
        return _Affine(self.lanes, self.lo - (((1 << i) - 1) << self.exp), self.hi, self.exp + i,
                       self.parents)

    def __mul__(self, c: float) -> "_Affine":
        num, den = c.as_integer_ratio()
        lo, hi = sorted((self.lo * num, self.hi * num))
        return _Affine(tuple([v * num for v in self.lanes]), lo, hi,
                       self.exp + den.bit_length() - 1, self.parents)

    __rmul__ = __mul__


def _walk(plan_set: _PlanSet, rotate, scale, exp: int, error: int) -> list[_Affine]:
    """Walk :func:`_flow` of ``plan_set`` on the op set ``rotate``, ``scale`` over the eight
    unit inputs, at the scale ``2**exp`` with the error ``[-error, error]``,
    with a ``fit`` that records every node; return the nodes in ``fit``
    order, each with the ``parents`` it was formed from."""
    nodes = []

    def record(node: _Affine) -> _Affine:
        nodes.append(node)
        return _Affine(node.lanes, node.lo, node.hi, node.exp, 1 << (len(nodes) - 1))

    units = [_Affine((0,) * j + (1 << exp,) + (0,) * (7 - j), -error, error, exp)
             for j in range(8)]
    _flow(plan_set, units, rotate, scale, record)
    return nodes


def _flow(plan_set: _PlanSet, x: list, rotate, scale, fit) -> list:
    """The DCT flow graph of ``plan_set`` on eight input columns: the
    even/odd butterflies, the four rotators, their compensation (the
    constants of ``_PlanSet.compensation``), the recombination butterflies
    and the post-scales, unless they are folded into the quantizer.

    The arithmetic comes from the op set: ``rotate(x, y, steps, fit)``
    folds a plan's unscaled micro-rotations, ``scale(column, constant)``
    multiplies by one of the set's constants, and ``fit`` takes every
    node: each butterfly sum, both values of each micro-rotation step and
    each compensation product.  The post-scale products are not nodes.
    Float passes :func:`rotate_float`, ``operator.mul`` (on Python numbers)
    or ``_PlanSet.scale_array`` (on NumPy columns) and
    :func:`_unchecked`; fixed point passes :func:`rotate_raw`,
    ``_PlanSet.scale_raw`` (shift-add only, at the cost
    ``_PlanSet.row_cost``) and the word's range check on each node whose
    threshold the input's peak exceeds (``_PlanSet.thresholds``), the
    ``i``-th call of ``fit`` being node ``i``.  The columns are Python numbers (one
    sample vector) or NumPy arrays (a batch of rows) alike, with the same
    bits either way, or :class:`_Affine` nodes, from which the input limits
    and node thresholds come.

    The rotations update their two inputs by augmented assignment, NumPy
    columns in place, so only values the graph forms and uses nowhere else
    go into them: ``p``, ``q``, ``r``, ``s`` and ``v0`` to ``v3``.  The
    input columns, views of the caller's array, are only read.
    """
    steps = plan_set.steps
    x0, x1, x2, x3, x4, x5, x6, x7 = x

    u0, u1, u2, u3 = fit(x0 + x7), fit(x1 + x6), fit(x2 + x5), fit(x3 + x4)
    v0, v1, v2, v3 = fit(x0 - x7), fit(x1 - x6), fit(x2 - x5), fit(x3 - x4)

    p, q = fit(u0 + u3), fit(u1 + u2)
    r, s = fit(u0 - u3), fit(u1 - u2)
    pairs = {  # each rotator's two outputs, in the order they are scaled
        "pi/4": rotate(p, q, steps["pi/4"], fit),  # (g0, g1)
        "3pi/8": rotate(r, s, steps["3pi/8"], fit),  # (h0, h1)
        "pi/16": rotate(v3, v0, steps["pi/16"], fit)[::-1],  # (a0, a1)
        "3pi/16": rotate(v2, v1, steps["3pi/16"], fit)[::-1],  # (b0, b1)
    }
    for name, constant in plan_set.compensation.items():
        pairs[name] = [fit(scale(col, constant)) for col in pairs[name]]
    (g0, g1), (h0, h1), (a0, a1), (b0, b1) = pairs.values()

    # Under ERROR the first node that leaves the word raises, so this
    # order (rotators, compensation, then 1, 7, 3, 5) fixes which error a
    # call reports.
    f1, f7 = fit(a0 + b0), fit(b1 - a1)
    f3 = fit(fit(a0 - a1) - fit(b0 + b1))
    f5 = fit(fit(a0 + a1) - fit(b0 - b1))
    cols = [g1, f1, h1, f3, g0, f5, h0, f7]
    # Free the inner nodes before the post-scales allocate theirs: kept
    # alive, they made a fixed dct2d of 1024 blocks about 30% slower.
    del u0, u1, u2, u3, v0, v1, v2, v3, p, q, r, s, pairs, a0, a1, b0, b1
    if plan_set.fold_into_quantizer:
        return cols
    # No fit: a post-scale is at most 1/2 (a norm times a gain <= 1), so its CSD
    # product of a node in an n-bit word is below 2**(n-2) + 2**(n-15) + 16 < max_raw.
    return [scale(col, c) for col, c in zip(cols, plan_set.post_scales.tolist())]


def _columns(X, axis: int) -> list:
    """The eight flow-graph inputs of ``X``: one vector as a list of Python
    numbers itself, or the slices of an array along ``axis``."""
    return X if isinstance(X, list) else list(X.swapaxes(0, axis))


def _stack(cols: list, axis: int) -> np.ndarray:
    """The eight flow-graph outputs stacked along ``axis``; along axis 0
    through ``np.array``, which costs a few microseconds less per call
    than ``np.stack``."""
    return np.array(cols) if axis == 0 else np.stack(cols, axis=axis)


def transform8(engine: DctEngine, X, *, _axis: int | None = None) -> tuple[np.ndarray, int]:
    """Run the flow graph on each row of an (n, 8) array, or on one vector.

    Returns the coefficients and the number of values clipped under
    ``OverflowPolicy.SATURATE``, at input quantization and at every
    range-checked node; the count is 0 in float, under ``ERROR``, and for
    input within :meth:`DctEngine.safe_input_bound`.  In fixed point a node
    is range-checked only when the input's ``max|raw|`` exceeds its
    threshold (:meth:`_PlanSet.thresholds`), so every check skipped is a no-op and
    the bits and counts are those of checking every node.  The cost in adds
    and shifts is ``rows x DctEngine.operation_counts()``.

    One ``(8,)`` vector runs the flow graph on Python numbers; a batch
    runs the same graph on NumPy columns, for the same bits.  Raises
    ``ValueError`` on any other shape (a block stack goes through
    :func:`dct2d`), on complex samples, and on a sample that is non-finite
    or beyond the engine's :attr:`DctEngine.input_limit`, in both
    arithmetic modes.

    ``_axis`` is internal to :func:`_dct2d_planes`: it runs the graph
    along that axis of an array of any shape, whose slices along it are
    the graph's eight input columns, and stacks the outputs back along it.
    In fixed point such a pass returns raw int64 words, not multiplied by
    the LSB, and takes float64 samples or the int64 words a pass returned.
    """
    words = _axis is not None  # a pass of ``_dct2d_planes``: raw words out
    if not words:
        arr = _real(X)
        if arr.shape != (8,) and (arr.ndim != 2 or arr.shape[1] != 8):
            raise ValueError(f"expected rows of 8 samples, got shape {arr.shape}")
        _axis = arr.ndim - 1
        # One vector runs on Python floats, cheaper than NumPy per call.
        X = arr.tolist() if arr.ndim == 1 else arr
    # Words a pass returned are fitted nodes or post-scale products of them,
    # in the word: they need no refusal, and ``run_raw`` does not quantize them.
    if not words or X.dtype != np.int64:
        check_input(X, engine.input_limit, _refusal)
    plan_set = engine._set
    if not engine.mode.is_fixed:
        scale = operator.mul if isinstance(X, list) else plan_set.scale_array
        cols = _flow(plan_set, _columns(X, _axis), rotate_float, scale, _unchecked)
        return _stack(cols, _axis), 0

    def graph(raw, fit):
        return _flow(plan_set, _columns(raw, _axis), rotate_raw, plan_set.scale_raw, fit)

    # ``run_raw`` checks only the nodes whose threshold the peak exceeds.
    cols, saturations = run_raw(X, engine.mode, graph, plan_set.thresholds(engine.mode.fmt))
    out = _stack(cols, _axis)
    return (out if words else out * engine.mode.fmt.lsb), saturations


def _refusal(limit: float) -> str:
    return (f"transform input non-finite or beyond {limit:.4g}, where the "
            "transform could overflow binary64")


def dct8_cordic(x, engine: DctEngine) -> np.ndarray:
    """Shift-add 8-point DCT of one sample vector."""
    return transform8(engine, x)[0]


def _planes(blocks: np.ndarray) -> np.ndarray:
    """An (..., 8, 8) or (n, 64) block stack as C-ordered (64, n) planes of
    its dtype: row ``p`` holds in-block position ``p`` (raster order) of
    every block.  Always a copy."""
    return np.array(blocks.reshape(-1, 64).T, order="C")


def _dct2d_planes(engine: DctEngine, planes: np.ndarray) -> tuple[np.ndarray, int]:
    """Separable 8x8 transform of a C-ordered float64 (64, n) plane
    array: row ``p`` holds in-block position ``p`` (raster order) of all
    ``n`` blocks, and so does row ``p`` of the (64, n) result.  Also
    returns the values both passes clipped (see :func:`transform8`).

    The row pass runs the flow graph on the eight (8, n) column planes
    and stacks its outputs along axis 1, which leaves each row of every
    block as one contiguous (8, n) plane; the column pass runs on those
    and stacks along axis 0, straight into coefficient planes.  Each pass
    is one :func:`transform8` call over all ``8 n`` rows, so the planes are
    never transposed or copied between passes.

    In fixed point the input is quantized once: the row pass hands its raw
    words to the column pass as they are, as a row-column datapath keeps
    them in its transposition memory, and only the coefficients are
    multiplied by the LSB.  Each row output is in the word, so the column
    pass's refusal and quantization would change nothing, and its node
    checks read the peak they would read after them.
    """
    n = planes.shape[1]
    # [row, column, block]; one block as an 8x8 array, whose columns are
    # 1-D and cheaper per ufunc call
    blocks = planes.reshape(8, 8) if n == 1 else planes.reshape(8, 8, n)
    rows, row_sats = transform8(engine, blocks, _axis=1)  # [row, horizontal frequency, block]
    coefs, col_sats = transform8(engine, rows.reshape(8, 8 * n), _axis=0)
    coefs = coefs.reshape(64, n)
    if engine.mode.is_fixed:
        coefs = coefs * engine.mode.fmt.lsb
    return coefs, row_sats + col_sats


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
