"""DCT tests: exact-matrix oracle properties, flow-graph equivalence,
fixed-point behaviour and the separable 2-D transform."""

import itertools
import json
import math
import operator
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordic_dct import codec, dct8, fixedpoint
from cordic_dct.dct8 import (
    DCT_MATRIX,
    DctEngine,
    dct2d,
    dct2d_oracle,
    dct8_cordic,
    dct8_oracle,
    idct2d_oracle,
    idct8_oracle,
    transform8,
)
from cordic_dct.fixedpoint import (
    ArithmeticMode,
    FixedPointFormat,
    FixedPointOverflowError,
    OverflowPolicy,
    fit_raw,
)
from cordic_dct.images import photo_proxy
from cordic_dct.planner import ATAN_TABLE, EPSILON_MAX, EPSILON_MIN, decompose
from cordic_dct.rotator import CsdScale, rotate_float, rotate_raw

RNG = np.random.default_rng(20240601)
WORD_FORMATS = [(24, 8), (16, 5), (20, 10), (32, 16), (12, 3)]
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

# Expected impulse response of the reference transform, frozen from direct
# evaluation of 0.5*C(k)*cos(k*pi/16).
IMPULSE_COEFS = [
    0.3535533905932738,
    0.4903926402016152,
    0.4619397662556434,
    0.4157348061512726,
    0.3535533905932738,
    0.2777851165098011,
    0.1913417161825449,
    0.0975451610080642,
]


class TestOracle:
    def test_constant_input(self):
        F = dct8_oracle(np.ones(8))
        assert F[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
        assert np.abs(F[1:]).max() < 1e-15

    def test_impulse_input(self):
        F = dct8_oracle([1, 0, 0, 0, 0, 0, 0, 0])
        assert F == pytest.approx(IMPULSE_COEFS, abs=1e-15)

    def test_constant_scales_linearly(self):
        for a in RNG.uniform(-100, 100, size=5):
            F = dct8_oracle(np.full(8, a))
            assert F[0] == pytest.approx(a * 2.0 * math.sqrt(2.0), rel=1e-13)
            assert np.abs(F[1:]).max() < 1e-12 * max(1.0, abs(a))

    def test_matrix_is_orthonormal(self):
        gram = DCT_MATRIX @ DCT_MATRIX.T
        assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_inverse_round_trip(self):
        for _ in range(100):
            x = RNG.uniform(-256, 255, size=8)
            assert np.abs(idct8_oracle(dct8_oracle(x)) - x).max() < 1e-12

    def test_2d_round_trip(self):
        for _ in range(20):
            b = RNG.uniform(-256, 255, size=(8, 8))
            assert np.abs(idct2d_oracle(dct2d_oracle(b)) - b).max() < 1e-9
        zero = np.zeros((8, 8))
        assert np.all(dct2d_oracle(zero) == 0)
        assert np.all(idct2d_oracle(zero) == 0)


class TestFlowGraph:
    def test_zero_input(self):
        eng = DctEngine(epsilon=1e-4)
        assert np.all(dct8_cordic(np.zeros(8), eng) == 0.0)

    def test_constant_input(self):
        eng = DctEngine(epsilon=1e-4)
        F = dct8_cordic(np.ones(8), eng)
        assert F[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
        assert np.abs(F[1:]).max() < 1e-3

    def test_impulse_matches_oracle(self):
        eng = DctEngine(epsilon=1e-4)
        x = np.zeros(8)
        x[0] = 1.0
        assert np.abs(dct8_cordic(x, eng) - dct8_oracle(x)).max() < 1e-3

    @pytest.mark.parametrize("eps,bound", [(1e-3, 1.5), (1e-4, 0.15)])
    def test_random_equivalence_bound(self, eps, bound):
        eng = DctEngine(epsilon=eps)
        X = RNG.integers(-128, 128, size=(2000, 8)).astype(np.float64)
        err = np.abs(transform8(eng, X)[0] - X @ DCT_MATRIX.T).max()
        assert err <= bound

    def test_error_monotone_in_epsilon(self):
        X = RNG.integers(-128, 128, size=(2000, 8)).astype(np.float64)
        ref = X @ DCT_MATRIX.T
        means = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-6):
            eng = DctEngine(epsilon=eps)
            means.append(np.abs(transform8(eng, X)[0] - ref).mean())
        assert all(a >= b for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("alpha", [-1.0, 2.0])
    def test_linearity_exact_for_power_of_two_scales(self, alpha):
        # every op in the float flow commutes exactly with *2 and with
        # negation, so this holds bitwise
        eng = DctEngine(epsilon=1e-4)
        x = RNG.uniform(-100, 100, size=8)
        assert np.all(dct8_cordic(alpha * x, eng) == alpha * dct8_cordic(x, eng))

    def test_per_rotator_compensation_equivalent(self):
        X = RNG.integers(-128, 128, size=(500, 8)).astype(np.float64)
        ref = X @ DCT_MATRIX.T
        folded = DctEngine(epsilon=1e-4, compensation="folded")
        per_rot = DctEngine(epsilon=1e-4, compensation="per_rotator")
        assert np.abs(transform8(folded, X)[0] - ref).max() <= 0.15
        assert np.abs(transform8(per_rot, X)[0] - ref).max() <= 0.15

    def test_even_odd_stage_fidelity(self):
        # the flow's even outputs must realize the exact 4x4 half matrices
        # of the even/odd factorization, up to the plan tolerance
        A = math.cos(math.pi / 4)
        B = math.sin(3 * math.pi / 8)
        C = math.cos(3 * math.pi / 8)
        D = math.sin(7 * math.pi / 16)
        E = math.cos(3 * math.pi / 16)
        Fc = math.sin(3 * math.pi / 16)
        G = math.cos(7 * math.pi / 16)
        even = 0.5 * np.array([[A, A, A, A], [B, C, -C, -B], [A, -A, -A, A], [C, -B, B, -C]])
        odd = 0.5 * np.array([[D, E, Fc, G], [E, -G, -D, -Fc], [Fc, -D, G, E], [G, -Fc, E, -D]])

        eng = DctEngine(epsilon=1e-4)
        for _ in range(50):
            x = RNG.integers(-128, 128, size=8).astype(np.float64)
            u = np.array([x[0] + x[7], x[1] + x[6], x[2] + x[5], x[3] + x[4]])
            v = np.array([x[0] - x[7], x[1] - x[6], x[2] - x[5], x[3] - x[4]])
            F = dct8_cordic(x, eng)
            assert F[[0, 2, 4, 6]] == pytest.approx(even @ u, abs=0.15)
            assert F[[1, 3, 5, 7]] == pytest.approx(odd @ v, abs=0.15)

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            DctEngine(compensation="inline")
        with pytest.raises(ValueError):
            DctEngine(epsilon=0.5)
        with pytest.raises(ValueError):
            transform8(DctEngine(), np.zeros((4, 7)))
        with pytest.raises(ValueError):  # a block stack, not rows
            transform8(DctEngine(), np.zeros((2, 8, 8)))

    @pytest.mark.parametrize("fold", ["False", "", 0, 1, None, np.bool_(False)])
    def test_fold_into_quantizer_must_be_a_bool(self, fold):
        # Read by truthiness, "False" would skip the post-scales.
        with pytest.raises(ValueError, match="fold_into_quantizer must be a bool"):
            DctEngine(1e-3, fold_into_quantizer=fold)

    @pytest.mark.parametrize("bits", [None, (16, 5)])
    def test_complex_samples_refused(self, bits):
        # The float64 cast would drop the imaginary part with a warning.
        mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        engine = DctEngine(1e-3, mode=mode)
        for x in (np.array([1 + 1j] * 8), [1j] + [0.0] * 7, np.zeros((3, 8), np.complex64)):
            with pytest.raises(ValueError, match="expected real samples"):
                dct8_cordic(x, engine)
        with pytest.raises(ValueError, match="expected real samples"):
            transform8(engine, np.zeros((3, 8), np.complex128))
        with pytest.raises(ValueError, match="expected real samples"):
            dct2d(np.full((2, 8, 8), 1 + 1j), engine)
        for oracle, shape in ((dct8_oracle, 8), (idct8_oracle, 8),
                              (dct2d_oracle, (8, 8)), (idct2d_oracle, (8, 8))):
            with pytest.raises(ValueError, match="expected real samples"):
                oracle(np.full(shape, 1j))

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    def test_post_scales_match_the_hand_written_lists(self, compensation):
        # The eight scales as two lists written out per compensation, from
        # the plan gains; one misordered output or rotator fails.
        half, eighth_norm = 0.5, 0.5 / math.sqrt(2.0)
        for eps in np.geomspace(1e-9, 1e-1, 60):
            engine = DctEngine(float(eps), compensation=compensation)
            g = {name: plan.gain for name, plan in engine.plans.items()}
            if compensation == "folded":
                expected = [g["pi/4"] * half, g["3pi/16"] * half, g["3pi/8"] * half,
                            g["3pi/16"] * eighth_norm, g["pi/4"] * half,
                            g["3pi/16"] * eighth_norm, g["3pi/8"] * half, g["3pi/16"] * half]
            else:
                expected = [half, half, half, eighth_norm, half, eighth_norm, half, half]
            assert engine.post_scales.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_every_op_set_fits_the_same_nodes(self, compensation, fold, eps):
        # One node set in either arithmetic: the 20 butterfly sums, both
        # values of each micro-rotation step, and both compensation products
        # of each compensated rotator; the post-scale products are not.  The
        # k-th node of the float walk is the k-th of the raw walk, so on
        # the same input (in units of 2**-20) the two agree to the
        # floor-shift error.
        engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
        steps = sum(len(plan.steps) for plan in engine.plans.values())
        x = RNG.integers(-2**20, 2**20, size=8).tolist()
        walks = []
        for cols, rotate, scale in (([v * 2.0 ** -20 for v in x], rotate_float, operator.mul),
                                    (x, rotate_raw, engine._set.scale_raw)):
            nodes = []
            dct8._flow(engine._set, cols, rotate, scale, lambda node: nodes.append(node) or node)
            assert len(nodes) == 20 + 2 * steps + 2 * len(engine._set.compensation)
            walks.append(nodes)
        assert all(type(node) is float for node in walks[0])
        assert all(type(node) is int for node in walks[1])
        assert np.abs(np.array(walks[0]) - np.array(walks[1]) * 2.0 ** -20).max() < 1e-3

    def test_post_scales_positive_and_plans_share_epsilon(self):
        eng = DctEngine(epsilon=1e-3)
        assert np.all(eng.post_scales > 0)
        assert len(eng.post_scales) == 8
        assert {p.tolerance for p in eng.plans.values()} == {1e-3}

    @pytest.mark.parametrize("bits", [None, (24, 8)])
    def test_post_scales_are_read_only(self, bits):
        # The engines of a plan set hold one post-scale array: a write
        # through one engine is refused, and its sibling's output stays.
        mode = None if bits is None else ArithmeticMode.fixed(*bits)
        engine, sibling = DctEngine(1e-4, mode=mode), DctEngine(8e-5, mode=mode)
        assert sibling._set is engine._set and sibling.post_scales is engine.post_scales
        block = RNG.integers(-128, 128, size=(8, 8)).astype(np.float64)
        before = dct2d(block, sibling).tobytes(), dct8_cordic(block[0], sibling).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            engine.post_scales *= 2
        with pytest.raises(ValueError, match="read-only"):
            engine.post_scales[0] = 1.0
        after = dct2d(block, sibling).tobytes(), dct8_cordic(block[0], sibling).tobytes()
        assert after == before

    @pytest.mark.parametrize("name", ["epsilon", "mode", "compensation", "plans", "_set",
                                      "post_scales", "fold_into_quantizer", "input_limit"])
    def test_attributes_cannot_be_rebound_or_deleted(self, name):
        # A rebound post_scales would move the codec's fold divisor but not
        # the scales the transform applies; a rebound mode would keep the
        # old mode's cached input_limit.  A fixed input_limit is a new
        # float at each derivation, so ``is`` also shows it stays cached.
        engine = DctEngine(1e-4, mode=ArithmeticMode.fixed(24, 8), fold_into_quantizer=True)
        block = RNG.integers(-128, 128, size=(8, 8)).astype(np.float64)
        before = getattr(engine, name)
        divisor = codec._divisor(engine, np.ones((64, 1))).tobytes()
        coefs = dct2d(block, engine).tobytes()
        with pytest.raises(AttributeError, match="immutable"):
            setattr(engine, name, np.ones(8) if name == "post_scales" else before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(engine, name)
        assert getattr(engine, name) is before
        assert codec._divisor(engine, np.ones((64, 1))).tobytes() == divisor
        assert dct2d(block, engine).tobytes() == coefs


class TestDct2d:
    def test_constant_block(self):
        eng = DctEngine(epsilon=1e-4)
        F = dct2d(np.ones((8, 8)), eng)
        assert F[0, 0] == pytest.approx(8.0, abs=8e-3)
        mask = np.ones((8, 8), dtype=bool)
        mask[0, 0] = False
        assert np.abs(F[mask]).max() < 8e-3

    def test_zero_block(self):
        eng = DctEngine(epsilon=1e-4)
        assert np.all(dct2d(np.zeros((8, 8)), eng) == 0.0)

    def test_random_blocks_match_2d_oracle(self):
        eng = DctEngine(epsilon=1e-4)
        bound = 2 * math.sqrt(8) * 0.15
        for _ in range(50):
            b = RNG.integers(-128, 128, size=(8, 8)).astype(np.float64)
            assert np.abs(dct2d(b, eng) - dct2d_oracle(b)).max() <= bound

    def test_fold_into_quantizer_defers_scales(self):
        plain = DctEngine(epsilon=1e-4)
        folded = DctEngine(epsilon=1e-4, fold_into_quantizer=True)
        x = RNG.uniform(-100, 100, size=8)
        deferred = dct8_cordic(x, folded) * folded.post_scales
        assert np.all(deferred == dct8_cordic(x, plain))

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("bits", [None, (16, 5)])
    def test_stack_equals_per_block_calls(self, compensation, bits):
        mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        eng = DctEngine(epsilon=1e-3, mode=mode, compensation=compensation)
        stack = RNG.integers(-128, 128, size=(3, 5, 8, 8)).astype(np.float64)
        per_block = np.array([dct2d(b, eng) for b in stack.reshape(-1, 8, 8)])
        assert np.array_equal(dct2d(stack, eng), per_block.reshape(stack.shape))

    def test_oracles_on_stack_equal_per_block_calls(self):
        stack = RNG.uniform(-128, 128, size=(37, 8, 8))
        for oracle in (dct2d_oracle, idct2d_oracle):
            per_block = np.array([oracle(b) for b in stack])
            assert np.array_equal(oracle(stack), per_block)

    @pytest.mark.parametrize("bits", [None, (24, 8), (16, 5)])
    @pytest.mark.parametrize("shape", [(8, 8), (1, 8, 8), (5, 8, 8)])
    def test_fixed_input_is_quantized_once(self, monkeypatch, bits, shape):
        # The row pass hands its raw words to the column pass, which runs
        # them as they are: one quantization per call in fixed point, none
        # in float.  ``to_raw`` calls the same function, so the count is
        # also of any per-value quantization.  Samples up to 4000 saturate
        # 16.5 at quantization.
        calls = [0]
        round_half_away = fixedpoint._round_half_away

        def counting(*args, **kwargs):
            calls[0] += 1
            return round_half_away(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "_round_half_away", counting)
        mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        engine = DctEngine(1e-4, mode=mode)
        blocks = RNG.uniform(-4000.0, 4000.0, size=shape)
        expected = 0 if bits is None else 1
        dct2d(blocks, engine)
        assert calls[0] == expected
        calls[0] = 0
        _, saturations = dct8._dct2d_planes(engine, dct8._planes(blocks))
        assert calls[0] == expected
        assert (saturations > 0) == (bits == (16, 5))

    @pytest.mark.parametrize("shape", [(8,), (8, 7), (4, 8, 9), (64,)])
    def test_bad_trailing_shape_rejected(self, shape):
        eng = DctEngine(epsilon=1e-3)
        for fn in (lambda b: dct2d(b, eng), dct2d_oracle, idct2d_oracle):
            with pytest.raises(ValueError):
                fn(np.zeros(shape))


def _dct2d_reference(blocks: np.ndarray, engine: DctEngine) -> tuple[np.ndarray, int]:
    """The separable transform as two row passes of ``transform8`` over a
    block stack, with the swaps written out: rows, then the rows of the
    swapped stack, swapped back; and the saturations of both passes."""
    rows, row_sats = transform8(engine, blocks.reshape(-1, 8))
    swapped = rows.reshape(blocks.shape).swapaxes(-1, -2)
    cols, col_sats = transform8(engine, swapped.reshape(-1, 8))
    return cols.reshape(blocks.shape).swapaxes(-1, -2), row_sats + col_sats


def _dct2d_counted(blocks: np.ndarray, engine: DctEngine) -> tuple[np.ndarray, int]:
    """``dct2d`` of a block stack and the saturations ``_dct2d_planes``
    returns for it."""
    out = dct2d(blocks, engine)
    coefs, saturations = dct8._dct2d_planes(engine, dct8._planes(blocks))
    assert coefs.T.reshape(blocks.shape).tobytes() == out.tobytes()
    return out, saturations


@settings(max_examples=80)
@given(
    n=st.one_of(st.integers(1, 9), st.integers(1, 2100)),
    bits=st.sampled_from([None] + WORD_FORMATS),
    policy=st.sampled_from([OverflowPolicy.SATURATE, OverflowPolicy.ERROR]),
    compensation=st.sampled_from(["folded", "per_rotator"]),
    fold=st.booleans(),
    eps=st.sampled_from([1e-2, 1e-4, 1e-6]),
    scale=st.sampled_from([1.0, 128.0, 4000.0, 70000.0]),
    # a sample transform8 refuses, in one example of two
    poison=st.sampled_from([None, None, None, math.nan, math.inf, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dct2d_planes_equal_two_row_passes(n, bits, policy, compensation, fold, eps, scale,
                                           poison, seed):
    """``dct2d`` runs both passes on (64, n) planes; it must give the bytes,
    saturation counts and refusals of two ``transform8`` row passes over
    the stack."""
    rng = np.random.default_rng(seed)
    blocks = rng.uniform(-scale, scale, size=(n, 8, 8))
    if poison is not None:
        blocks[rng.integers(n), rng.integers(8), rng.integers(8)] = poison
    results = []
    mode = None if bits is None else ArithmeticMode(FixedPointFormat(*bits), policy)
    engine = DctEngine(eps, mode=mode, compensation=compensation, fold_into_quantizer=fold)
    for transform in (_dct2d_counted, _dct2d_reference):
        try:
            out, saturations = transform(blocks, engine)
        except (ValueError, FixedPointOverflowError) as exc:
            results.append(type(exc))
        else:
            results.append((out.shape, out.tobytes(), saturations))
    assert results[0] == results[1]


class TestFixedPointPath:
    @pytest.mark.parametrize("mode", ["fixed", "float", (24, 8), FixedPointFormat(24, 8)])
    def test_mode_must_be_an_arithmetic_mode(self, mode):
        with pytest.raises(ValueError, match="ArithmeticMode"):
            DctEngine(1e-3, mode=mode)

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    def test_csd_holds_exactly_the_applied_expansions(self, monkeypatch, compensation, fold):
        # Every expansion the engine builds is applied by one row, and no
        # other: a folded engine needs no rotator gain, a per-rotator one
        # no equalizer, and a folding one no post-scale.
        mode = ArithmeticMode.fixed(24, 8)
        eng = DctEngine(1e-4, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        eng.safe_input_bound(mode.fmt)  # runs the graph once, on affine values
        applied = []
        apply_raw = CsdScale.apply_raw

        def record(self, raw):
            applied.append(self)
            return apply_raw(self, raw)

        monkeypatch.setattr(CsdScale, "apply_raw", record)
        dct8_cordic([10.0, -3.0, 7.5, 0.0, 1.0, -8.0, 2.0, 4.0], eng)
        assert {id(s) for s in applied} == {id(s) for s in eng._set.csd.values()}
        assert len(applied) == (2 if compensation == "folded" else 8) + (0 if fold else 8)

    def test_tracks_float_path(self):
        mode = ArithmeticMode.fixed(24, 8)
        eng_fix = DctEngine(epsilon=1e-4, mode=mode)
        eng_flt = DctEngine(epsilon=1e-4)
        X = RNG.integers(-128, 128, size=(500, 8)).astype(np.float64)
        err = np.abs(transform8(eng_fix, X)[0] - transform8(eng_flt, X)[0]).max()
        assert err <= 0.2  # a few dozen floor-rounded shifts at lsb 2^-8

    def test_no_multiplies(self):
        # The datapath itself runs on values that refuse multiplication in
        # criterion 9's traced tests (test_acceptance.py).
        counts = DctEngine(epsilon=1e-3, mode=ArithmeticMode.fixed(24, 8)).operation_counts()
        assert counts["multiplies"] == 0
        assert counts["adds"] > counts["shifts"] > 0

    def test_saturation_counted_not_silent(self):
        mode = ArithmeticMode.fixed(12, 2, OverflowPolicy.SATURATE)
        eng = DctEngine(epsilon=1e-3, mode=mode)
        for x in (np.full((1, 8), 250.0), np.full(8, 250.0)):
            _, saturations = transform8(eng, x)
            assert saturations > 0
        # within the word nothing is clipped, and float never clips
        assert transform8(eng, np.full((1, 8), 1.0))[1] == 0
        assert transform8(DctEngine(epsilon=1e-3), np.full((1, 8), 250.0))[1] == 0

    def test_one_engine_shared_across_threads(self):
        # Each call returns its own count: four threads sharing one
        # SATURATE engine each get, on every call, a lone call's count.
        mode = ArithmeticMode.fixed(16, 5, OverflowPolicy.SATURATE)
        engine = DctEngine(epsilon=1e-3, mode=mode)
        rng = np.random.default_rng(41)
        inputs = [rng.uniform(-k, k, size=(256, 8)) for k in (100.0, 1000.0, 3000.0, 9000.0)]
        alone = [transform8(engine, x) for x in inputs]
        assert len({sats for _, sats in alone}) == 4  # distinct, so a mixed-up count shows

        def run(k):
            return [transform8(engine, inputs[k]) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the calls
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for k, calls in enumerate(results):
            for out, sats in calls:
                assert sats == alone[k][1]
                assert np.array_equal(out, alone[k][0])

    def test_overflow_error_policy_raises(self):
        from cordic_dct.fixedpoint import FixedPointOverflowError

        mode = ArithmeticMode.fixed(12, 2, OverflowPolicy.ERROR)
        eng = DctEngine(epsilon=1e-3, mode=mode)
        with pytest.raises(FixedPointOverflowError):
            transform8(eng, np.full((1, 8), 250.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_input_saturates_to_its_own_rail(self, sign):
        fmt = ArithmeticMode.fixed(16, 5).fmt
        rail = fmt.max_raw * fmt.lsb if sign > 0 else fmt.min_raw * fmt.lsb
        outs, sats = [], []
        mode = ArithmeticMode.fixed(16, 5, OverflowPolicy.SATURATE)
        for first in (sign * 1e300, rail):
            out, saturations = transform8(DctEngine(epsilon=1e-3, mode=mode), [first] + [0.0] * 7)
            outs.append(out)
            sats.append(saturations)
        assert np.array_equal(outs[0], outs[1])
        assert sats[0] == sats[1] + 1

    def test_huge_input_raises_under_error_policy(self):
        from cordic_dct.fixedpoint import FixedPointOverflowError

        eng = DctEngine(epsilon=1e-3, mode=ArithmeticMode.fixed(24, 8, OverflowPolicy.ERROR))
        with pytest.raises(FixedPointOverflowError):
            transform8(eng, [1e300] + [0.0] * 7)

    def test_operation_counts_report(self):
        eng = DctEngine(epsilon=1e-3)
        counts = eng.operation_counts()
        assert counts["multiplies"] == 0
        assert counts["adds"] > 0
        assert counts["shifts"] > 0
        assert counts["rotation_steps"]["pi/4"] == 1
        json.dumps(counts)  # must be serializable

    def test_operation_counts_match_benchmark_golden(self):
        golden = json.loads((GOLDEN_DIR / "op_counts.json").read_text())
        assert len(golden) == 6
        for key, counts in golden.items():
            compensation, eps = key.split("/")
            assert DctEngine(float(eps), compensation=compensation).operation_counts() == counts

    def test_float_engine_builds_no_csd_constants(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csd_scale called")

        # Cold: the expansions are shared per plan set, and another test's
        # fixed engine may already have derived these.
        monkeypatch.setattr(dct8, "_PLAN_SETS", {})
        monkeypatch.setattr(dct8, "csd_scale", refuse)
        X = RNG.integers(-128, 128, size=(4, 8, 8)).astype(np.float64)
        for compensation in ("folded", "per_rotator"):
            for fold in (False, True):
                eng = DctEngine(1e-4, compensation=compensation, fold_into_quantizer=fold)
                transform8(eng, X[0])
                dct8_cordic(X[0, 0], eng)
                dct2d(X, eng)
        with pytest.raises(AssertionError, match="csd_scale called"):
            DctEngine(1e-4).operation_counts()  # the cost model reads the expansions

    def test_building_an_engine_derives_no_constant_table(self, monkeypatch):
        # The scale constants, as CSD expansions or as 0-d arrays, are built
        # on first use, never by the constructor.
        def refuse(*args, **kwargs):
            raise AssertionError("constant table derived")

        monkeypatch.setattr(dct8, "_PLAN_SETS", {})
        monkeypatch.setattr(dct8, "csd_scale", refuse)
        monkeypatch.setattr(dct8._PlanSet, "array_constants", property(refuse))
        modes = [None, ArithmeticMode.fixed(24, 8),
                 ArithmeticMode.fixed(16, 5, OverflowPolicy.SATURATE)]
        for mode, compensation, fold in itertools.product(
                modes, ("folded", "per_rotator"), (False, True)):
            DctEngine(1e-4, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        with pytest.raises(AssertionError, match="constant table derived"):
            DctEngine(1e-4)._set.array_constants

    def test_fixed_engine_builds_no_array_constants(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("array constants read")

        monkeypatch.setattr(dct8._PlanSet, "array_constants", property(refuse))
        X = RNG.integers(-128, 128, size=(4, 8, 8)).astype(np.float64)
        mode = ArithmeticMode.fixed(24, 8)
        for compensation, fold in itertools.product(("folded", "per_rotator"), (False, True)):
            eng = DctEngine(1e-4, mode=mode, compensation=compensation, fold_into_quantizer=fold)
            transform8(eng, X[0])
            dct8_cordic(X[0, 0], eng)
            dct2d(X, eng)
        dct8_cordic(X[0, 0], DctEngine(1e-4))  # one float vector runs on Python floats
        with pytest.raises(AssertionError, match="array constants read"):
            dct2d(X, DctEngine(1e-4))

    def test_fixed_engine_operation_counts_match_benchmark_golden(self):
        golden = json.loads((GOLDEN_DIR / "op_counts.json").read_text())
        mode = ArithmeticMode.fixed(24, 8)
        for key, counts in golden.items():
            compensation, eps = key.split("/")
            eng = DctEngine(float(eps), mode=mode, compensation=compensation)
            assert eng.operation_counts() == counts


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("bits", [None, (24, 8)])
def test_non_finite_input_refused(value, bits):
    mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
    eng = DctEngine(epsilon=1e-3, mode=mode)
    x = np.zeros((3, 8))
    x[1, 5] = value
    with pytest.raises(ValueError):
        transform8(eng, x)
    with pytest.raises(ValueError):
        dct8_cordic(x[1], eng)
    block = np.zeros((8, 8))
    block[2, 3] = value
    with pytest.raises(ValueError):
        dct2d(block, eng)


def scalar_transform8(engine: DctEngine, row) -> tuple[list[float], dict]:
    """One row through the fixed-point flow graph of ``engine`` on Python
    ints, written out here rather than taken from the library kernels:
    floor-shift micro-rotations and CSD sums, every node range-checked by
    ``fit_raw``.  Also returns its own tally, made per node: adds, shifts
    and the values ``fit_raw`` clipped."""
    mode, fmt = engine.mode, engine.mode.fmt
    ops = {"adds": 0, "shifts": 0, "saturations": 0}

    def fit(raw):
        fitted = fit_raw(raw, mode)
        ops["saturations"] += fitted != raw
        return fitted

    def add(a, b):
        ops["adds"] += 1
        return fit(a + b)

    def sub(a, b):
        ops["adds"] += 1
        return fit(a - b)

    def rotate(x, y, name):
        for step in engine.plans[name].steps:
            sx, sy = x >> step.index, y >> step.index
            x, y = fit(x - step.direction * sy), fit(y + step.direction * sx)
            ops["adds"] += 2
            ops["shifts"] += 2
        return x, y

    def scale(raw, csd):
        ops["adds"] += len(csd.terms)
        ops["shifts"] += len(csd.terms)
        terms = (sign * (raw >> k if k >= 0 else raw << -k) for k, sign in csd.terms)
        return fit(sum(terms))

    x = [fit(fmt.to_raw(float(v))) for v in row]
    u = [add(x[k], x[7 - k]) for k in range(4)]
    v = [sub(x[k], x[7 - k]) for k in range(4)]
    g0, g1 = rotate(add(u[0], u[3]), add(u[1], u[2]), "pi/4")
    h0, h1 = rotate(sub(u[0], u[3]), sub(u[1], u[2]), "3pi/8")
    a1, a0 = rotate(v[3], v[0], "pi/16")
    b1, b0 = rotate(v[2], v[1], "3pi/16")
    csd = engine._set.csd
    if engine.compensation == "per_rotator":
        gains = {name: csd[plan.gain] for name, plan in engine.plans.items()}
        g0, g1 = scale(g0, gains["pi/4"]), scale(g1, gains["pi/4"])
        h0, h1 = scale(h0, gains["3pi/8"]), scale(h1, gains["3pi/8"])
        a0, a1 = scale(a0, gains["pi/16"]), scale(a1, gains["pi/16"])
        b0, b1 = scale(b0, gains["3pi/16"]), scale(b1, gains["3pi/16"])
    else:
        gains = {name: plan.gain for name, plan in engine.plans.items()}
        equalizer = csd[gains["pi/16"] / gains["3pi/16"]]
        a0, a1 = scale(a0, equalizer), scale(a1, equalizer)
    cols = [
        g1,
        add(a0, b0),
        h1,
        sub(sub(a0, a1), add(b0, b1)),
        g0,
        sub(add(a0, a1), sub(b0, b1)),
        h0,
        sub(b1, a1),
    ]
    if not engine.fold_into_quantizer:
        cols = [scale(c, csd[s]) for c, s in zip(cols, engine.post_scales)]
    return [c * fmt.lsb for c in cols], ops


def scalar_transform8_rows(engine: DctEngine, X) -> tuple[np.ndarray, int]:
    """:func:`scalar_transform8` of each row of ``X``, and the saturations
    of all of them; the rows' adds and shifts must be the cost model's."""
    outs, saturations = [], 0
    model = engine.operation_counts()
    for row in X:
        out, ops = scalar_transform8(engine, row)
        assert (ops["adds"], ops["shifts"]) == (model["adds"], model["shifts"])
        outs.append(out)
        saturations += ops["saturations"]
    return np.array(outs), saturations


class TestSafeInputBound:
    @given(
        data=st.data(),
        eps=st.floats(1e-6, 1e-2),
        bits=st.sampled_from(WORD_FORMATS),
        compensation=st.sampled_from(["folded", "per_rotator"]),
        fold=st.booleans(),
        policy=st.sampled_from([OverflowPolicy.SATURATE, OverflowPolicy.ERROR]),
        above=st.booleans(),
    )
    def test_array_path_equals_scalar_reference(
        self, data, eps, bits, compensation, fold, policy, above
    ):
        fmt = FixedPointFormat(*bits)
        make = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
        bound = make.safe_input_bound(fmt)
        if above:  # far past the bound, up to 4x the word: checks run, most rows saturate
            values = st.floats(-4 * fmt.max_raw * fmt.lsb, 4 * fmt.max_raw * fmt.lsb)
        else:  # exact raw values within the bound: the checks are skipped
            values = st.integers(-bound, bound).map(lambda r: r * fmt.lsb)
        rows = data.draw(st.lists(st.lists(values, min_size=8, max_size=8), min_size=1, max_size=4))
        X = np.array(rows, dtype=np.float64)

        mode = ArithmeticMode(fmt, policy)
        engine = DctEngine(eps, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        results = []
        for run in (transform8, scalar_transform8_rows):
            try:
                results.append(run(engine, X))
            except FixedPointOverflowError:
                results.append(None)
        if results[0] is None or results[1] is None:
            assert policy is OverflowPolicy.ERROR
            assert results[0] is results[1] is None
            return
        (out_a, sats_a), (out_s, sats_s) = results
        assert np.array_equal(out_a, out_s)
        assert sats_a == sats_s
        if not above:
            assert sats_a == 0

    @given(
        data=st.data(),
        eps=st.floats(1e-6, 1e-2),
        bits=st.sampled_from([None] + WORD_FORMATS),
        compensation=st.sampled_from(["folded", "per_rotator"]),
        fold=st.booleans(),
        policy=st.sampled_from([OverflowPolicy.SATURATE, OverflowPolicy.ERROR]),
        above=st.booleans(),
    )
    def test_single_vector_equals_one_row_batch(
        self, data, eps, bits, compensation, fold, policy, above
    ):
        # One vector runs the flow graph on Python numbers, a batch on NumPy
        # columns; both must give the same bytes, counts and refusals.
        fmt = FixedPointFormat(*(bits or (24, 8)))  # float draws from the 24.8 ranges
        bound = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold
                          ).safe_input_bound(fmt)
        if above:
            values = st.floats(-4 * fmt.max_raw * fmt.lsb, 4 * fmt.max_raw * fmt.lsb)
        else:
            values = st.integers(-bound, bound).map(lambda r: r * fmt.lsb)
        x = np.array(data.draw(st.lists(values, min_size=8, max_size=8)), dtype=np.float64)

        mode = ArithmeticMode() if bits is None else ArithmeticMode(fmt, policy)
        engine = DctEngine(eps, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        results = []
        for single in (True, False):
            try:
                out, saturations = transform8(engine, x if single else x[None])
            except Exception as exc:
                results.append(type(exc))
            else:
                out = out if single else out[0]
                results.append((out.shape, out.tobytes(), saturations))
        assert results[0] == results[1]

    @pytest.mark.parametrize("bits", [(24, 8), (16, 5)])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_no_node_overflows_at_the_bound(self, bits, compensation, fold, eps):
        mode = ArithmeticMode(FixedPointFormat(*bits), OverflowPolicy.ERROR)
        engine = DctEngine(eps, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        bound = engine.safe_input_bound(mode.fmt)
        signs = np.array(list(itertools.product((-1, 1), repeat=8)))
        rng = np.random.default_rng(int(eps * 1e6) + bits[0])
        rows = np.concatenate([signs * bound, rng.integers(-bound, bound + 1, size=(64, 8))])
        X = rows * mode.fmt.lsb
        # The scalar reference checks every node, so it raises on any overflow.
        ref, _ = scalar_transform8_rows(engine, X)
        assert np.array_equal(transform8(engine, X)[0], ref)
        # Not vacuous: twice the bound does overflow some node.
        with pytest.raises(FixedPointOverflowError):
            for row in signs * min(2 * bound, mode.fmt.max_raw) * mode.fmt.lsb:
                scalar_transform8(engine, row)

    @pytest.mark.parametrize("bits", [(24, 8), (16, 5)])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_some_node_nears_the_rail_at_the_bound(self, bits, compensation, fold, eps):
        # Tight: at the bound some sign vertex drives a range-checked node
        # to within 1% of max_raw.
        fmt = FixedPointFormat(*bits)
        engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
        signs = np.array(list(itertools.product((-1, 1), repeat=8)))
        peak = 0

        def record(col):
            nonlocal peak
            peak = max(peak, int(np.abs(col).max()))
            return col

        x = list((signs * engine.safe_input_bound(fmt)).T)
        dct8._flow(engine._set, x, rotate_raw, engine._set.scale_raw, record)
        assert 0.99 * fmt.max_raw <= peak <= fmt.max_raw

    @pytest.mark.parametrize("bits", [(24, 8), (16, 5)])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_every_node_lies_in_its_affine_form(self, bits, compensation, fold, eps):
        # Each range-checked node of a raw row within the bound equals its
        # exact linear form plus an error inside its floor-shift interval.
        fmt = FixedPointFormat(*bits)
        engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
        bound = engine.safe_input_bound(fmt)

        def nodes_of(x):
            nodes = []
            dct8._flow(engine._set, x, rotate_raw, engine._set.scale_raw,
                       lambda node: nodes.append(node) or node)
            return nodes

        units = [dct8._Affine(tuple(int(j == k) for k in range(8)), 0, 0, 0) for j in range(8)]
        forms = nodes_of(units)
        signs = list(itertools.product((-1, 1), repeat=8))
        rows = [[bound * s for s in row] for row in signs]
        rows += RNG.integers(-bound, bound + 1, size=(32, 8)).tolist()
        for row in rows:
            values = nodes_of(row)
            assert len(values) == len(forms)
            for value, form in zip(values, forms):
                error = (value << form.exp) - sum(c * x for c, x in zip(form.lanes, row))
                assert form.lo <= error <= form.hi

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    def test_8_bit_blocks_skip_the_checks(self, compensation, fold, monkeypatch):
        fmt = FixedPointFormat(24, 8)
        for eps in np.geomspace(1e-6, 1e-2, 17):
            engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
            assert engine.safe_input_bound(fmt) >= 512 * 2 ** fmt.frac_bits

        def no_checks(raw, mode):
            raise AssertionError("range check ran")

        monkeypatch.setattr(fixedpoint, "_fit_array", no_checks)
        mode = ArithmeticMode(fmt, OverflowPolicy.SATURATE)
        engine = DctEngine(1e-4, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        dct2d(RNG.integers(-128, 128, size=(16, 8, 8)).astype(np.float64), engine)
        dct2d(np.full((8, 8), -128.0), engine)
        beyond = (engine.safe_input_bound(fmt) + 1) * fmt.lsb
        with pytest.raises(AssertionError, match="range check ran"):
            transform8(engine, np.full((1, 8), beyond))

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    def test_8_bit_vector_skips_the_checks(self, compensation, fold, monkeypatch):
        checked = []

        def counting_fit_raw(raw, mode):
            checked.append(raw)
            return fit_raw(raw, mode)

        monkeypatch.setattr(fixedpoint, "fit_raw", counting_fit_raw)
        mode = ArithmeticMode(FixedPointFormat(24, 8), OverflowPolicy.SATURATE)
        engine = DctEngine(1e-4, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        for row in RNG.integers(-128, 128, size=(16, 8)).astype(np.float64):
            dct8_cordic(row, engine)
        dct8_cordic(np.full(8, -128.0), engine)
        assert checked == []
        dct8_cordic(np.full(8, (engine.safe_input_bound(mode.fmt) + 1) * mode.fmt.lsb), engine)
        assert checked  # above the bound, the nodes whose threshold it exceeds are checked


def _all_checked(engine: DctEngine, X: np.ndarray) -> tuple[np.ndarray, int]:
    """``transform8`` of one vector or a batch of rows with every node
    range-checked: ``run_raw`` with no thresholds, on the same graph."""
    axis = X.ndim - 1

    def graph(raw, fit):
        return dct8._flow(engine._set, dct8._columns(raw, axis), rotate_raw, engine._set.scale_raw,
                          fit)

    values = X.tolist() if X.ndim == 1 else X
    cols, saturations = fixedpoint.run_raw(values, engine.mode, graph, None)
    return dct8._stack(cols, axis) * engine.mode.fmt.lsb, saturations


def _outcome(transform, engine, X):
    """The bytes and saturations of ``transform(engine, X)``, or the type
    and message of the overflow that refused it."""
    try:
        out, saturations = transform(engine, X)
    except FixedPointOverflowError as exc:
        return type(exc), str(exc)
    return out.shape, out.tobytes(), saturations


SIGN_VERTICES = np.array(list(itertools.product((-1, 1), repeat=8)))


class TestNodeThresholds:
    """A node is range-checked only when the input's peak exceeds its
    threshold; the checks skipped must be no-ops."""

    @pytest.mark.parametrize("bits", [(12, 2), (16, 5), (16, 8), (24, 8)])
    @pytest.mark.parametrize("policy", [OverflowPolicy.SATURATE, OverflowPolicy.ERROR])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_elided_checks_change_nothing(self, bits, policy, compensation, fold, eps):
        # A node may go unchecked only where its affine form keeps it in
        # the word, and that form holds only while no node it is formed
        # from has been clamped: its threshold is at most its own bound
        # and each parent's threshold.
        mode = ArithmeticMode(FixedPointFormat(*bits), policy)
        engine = DctEngine(eps, mode=mode, compensation=compensation, fold_into_quantizer=fold)
        per_node, least = engine._set.thresholds(mode.fmt)
        assert least == min(per_node)
        assert least == engine.safe_input_bound(mode.fmt)
        own = [((mode.fmt.max_raw << exp) - err) // l1 for l1, err, exp, _ in engine._set.nodes]
        for i, (*_, parents) in enumerate(engine._set.nodes):
            assert per_node[i] <= min([own[i]] + [per_node[j] for j in parents])
        # At each threshold or own bound t some node starts to be checked,
        # or would without its parents: the sign vertices of peaks t and
        # t + 1 drive it to the rail and past it.  Batch and single vector
        # must give the bytes, saturations and refusals of checking every
        # node.
        rng = np.random.default_rng(bits[0] * 100 + bits[1])
        for peak in sorted({p for t in per_node + tuple(own) for p in (t, t + 1) if p > 0}):
            noise = rng.integers(-peak, peak + 1, size=(16, 8))
            noise[np.arange(16), rng.integers(8, size=16)] = peak * rng.choice((-1, 1), size=16)
            X = np.concatenate([SIGN_VERTICES * peak, noise]) * mode.fmt.lsb
            assert np.abs(X).max() == peak * mode.fmt.lsb
            assert _outcome(transform8, engine, X) == _outcome(_all_checked, engine, X)
            for row in X[rng.choice(len(X), size=3, replace=False)]:
                assert _outcome(transform8, engine, row) == _outcome(_all_checked, engine, row)

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    def test_each_node_knows_the_nodes_it_is_formed_from(self, compensation):
        # The first butterfly sums come from inputs only; p = u0 + u3 and
        # q = u1 + u2 from those; every later node from one or two earlier.
        nodes = DctEngine(1e-4, compensation=compensation)._set.nodes
        parents = [node[3] for node in nodes]
        assert parents[:8] == [()] * 8
        assert parents[8:10] == [(0, 3), (1, 2)]
        assert all(1 <= len(p) <= 2 and max(p) < i for i, p in enumerate(parents) if i >= 8)

    def test_post_scale_products_stay_in_the_word(self):
        # ``_flow`` passes no post-scale product through ``fit``: each
        # post-scale is at most 1/2 and scales a node in the word, so its
        # CSD product, at most 2**(n-2) + 2**(n-15) + 16, stays in the word
        # for every raw value of an n-bit word.  Every plan set of the
        # epsilon range, both compensations; every raw value of the short
        # words and the rails of the long ones.
        expansions = {}
        for eps in np.geomspace(1e-9, 1e-1, 2000):
            for compensation in ("folded", "per_rotator"):
                engine = DctEngine(float(eps), compensation=compensation)
                for c in engine.post_scales.tolist():
                    if c not in expansions:
                        assert 0 < c <= 0.5
                        expansions[c] = engine._set.csd[c]
        for bits, frac in ((8, 0), (12, 0), (16, 0), (24, 8), (32, 20)):
            fmt = FixedPointFormat(bits, frac)
            if bits <= 16:
                raw = np.arange(fmt.min_raw, fmt.max_raw + 1, dtype=np.int64)
            else:
                raw = np.array([fmt.min_raw, fmt.max_raw], dtype=np.int64)
            bound = 2 ** (bits - 2) + 2 ** (bits - 15) + 16
            for csd in expansions.values():
                product = csd.apply_raw(raw)
                assert fmt.min_raw <= product.min() and product.max() <= fmt.max_raw
                assert np.abs(product).max() <= bound

    def test_fit_array_within_the_rails_returns_its_input(self):
        mode = ArithmeticMode.fixed(16, 5, OverflowPolicy.ERROR)
        raw = np.array([mode.fmt.min_raw, -1, 0, 5, mode.fmt.max_raw], dtype=np.int64)
        out, n = fixedpoint._fit_array(raw, mode)
        assert out is raw and n == 0
        empty = np.zeros(0, dtype=np.int64)
        assert fixedpoint._fit_array(empty, mode) == (empty, 0)
        with pytest.raises(FixedPointOverflowError, match="1 value"):
            fixedpoint._fit_array(raw + 1, mode)

    @pytest.mark.parametrize("bits,eps,row_checks,col_checks,nodes,compensation", [
        ((16, 5), 1e-3, 0, 14, 46, "folded"),
        ((16, 5), 1e-4, 0, 18, 52, "folded"),
        ((16, 5), 1e-3, 0, 16, 52, "per_rotator"),
        ((16, 5), 1e-4, 0, 20, 58, "per_rotator"),
        ((24, 8), 1e-3, 0, 0, 46, "folded"),
        ((24, 8), 1e-4, 0, 0, 52, "folded"),
    ])
    def test_checks_per_pass_on_a_photo_tile(self, monkeypatch, bits, eps, row_checks,
                                            col_checks, nodes, compensation):
        # The 128x128 sweep tile of the benchmark, level-shifted as ``sweep``
        # transforms it: the 16.5 row pass (peak 3424 raw) stays within the
        # safe input bound, and the column pass (peak 6335 raw) checks only
        # the nodes whose threshold lies below its peak.  The post-scale
        # products are not nodes.
        mode = ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        engine = DctEngine(eps, mode=mode, compensation=compensation)
        assert len(engine._set.thresholds(mode.fmt)[0]) == nodes
        blocks = codec._blocks_of(codec._pad_to_blocks(photo_proxy(128).samples))
        planes = np.subtract(dct8._planes(blocks.reshape(-1, 64)), 128.0, dtype=np.float64)
        expected = dct8._dct2d_planes(engine, planes)

        calls, passes = [0], []
        fit_array, transform = fixedpoint._fit_array, dct8.transform8

        def counting_fit_array(raw, mode):
            calls[0] += 1
            return fit_array(raw, mode)

        def counting_transform8(*args, **kwargs):
            calls[0] = 0
            result = transform(*args, **kwargs)
            passes.append(calls[0])
            return result

        monkeypatch.setattr(fixedpoint, "_fit_array", counting_fit_array)
        monkeypatch.setattr(dct8, "transform8", counting_transform8)
        coefs, saturations = dct8._dct2d_planes(engine, planes)
        assert coefs.tobytes() == expected[0].tobytes() and saturations == expected[1]
        assert passes == [row_checks, col_checks]


def _residuals(theta: float) -> list[float]:
    """|residual| after each prefix of ``decompose(theta, EPSILON_MIN)``, the
    empty prefix first, replayed with the loop's own subtraction."""
    residual, out = theta, [abs(theta)]
    for step in decompose(theta, EPSILON_MIN).steps:
        residual = residual - step.direction * ATAN_TABLE[step.index]
        out.append(abs(residual))
    return out


def _prefix_epsilons() -> list[float]:
    """Every epsilon where a DCT angle's plan gains or loses a step, and its
    neighbours both ways, within [EPSILON_MIN, EPSILON_MAX]."""
    edges = {EPSILON_MIN, EPSILON_MAX}
    for theta in dct8.DCT_ANGLES.values():
        for r in _residuals(theta):
            edges.update((math.nextafter(r, 0.0), r, math.nextafter(r, 1.0)))
    return sorted(e for e in edges if EPSILON_MIN <= e <= EPSILON_MAX)


class TestPlanPrefixes:
    """An engine cuts its plans from one decomposition per angle, and gets
    :func:`decompose`'s plans bit for bit."""

    EPSILONS = _prefix_epsilons() + np.geomspace(EPSILON_MIN, EPSILON_MAX, 301).tolist()

    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    def test_plans_equal_decompose(self, compensation):
        cut = set()
        for eps in self.EPSILONS:
            engine = DctEngine(eps, compensation=compensation)
            expected = {name: decompose(theta, eps) for name, theta in dct8.DCT_ANGLES.items()}
            assert list(engine.plans) == list(expected)
            for name, plan in engine.plans.items():
                want = expected[name]
                # dataclass equality, and the floats' bits
                assert plan == want and plan.tolerance is eps
                assert [plan.residual.hex(), plan.gain.hex()] == [want.residual.hex(),
                                                                  want.gain.hex()]
                cut.add((name, len(plan.steps)))
        # every prefix of every angle was cut at least once
        for name, theta in dct8.DCT_ANGLES.items():
            lengths = {k for n, k in cut if n == name}
            reachable = [k for k, r in enumerate(_residuals(theta)) if r <= EPSILON_MAX]
            assert lengths == set(range(min(reachable), len(_residuals(theta))))

    def test_boundaries_move_by_one_step(self):
        for theta in dct8.DCT_ANGLES.values():
            for k, r in enumerate(_residuals(theta)):
                if not EPSILON_MIN <= r <= EPSILON_MAX:
                    continue
                assert len(decompose(theta, r).steps) == k
                if math.nextafter(r, 0.0) >= EPSILON_MIN:
                    assert len(decompose(theta, math.nextafter(r, 0.0)).steps) == k + 1

    def test_gains_and_residuals_are_the_loops_arithmetic(self):
        for theta in dct8.DCT_ANGLES.values():
            for eps in (EPSILON_MIN, 1e-6, 3e-4, EPSILON_MAX):
                plan = decompose(theta, eps)
                residual, gain = theta, 1.0
                for step in plan.steps:
                    residual = residual - step.direction * ATAN_TABLE[step.index]
                for step in plan.steps:
                    gain *= math.sqrt(1.0 / (1.0 + 2.0 ** (-2 * step.index)))
                assert (plan.residual, plan.gain) == (residual, gain)

    @pytest.mark.parametrize("eps", [1e-12, 0.5, math.nan, math.nextafter(EPSILON_MIN, 0.0),
                                     math.nextafter(EPSILON_MAX, 1.0)])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    def test_refusals_match_decompose(self, eps, compensation):
        with pytest.raises(ValueError) as want:
            decompose(math.pi / 4, eps)
        with pytest.raises(ValueError) as got:
            DctEngine(eps, compensation=compensation)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"epsilon {eps!r} outside [1e-09, 0.1]")


class TestSharedDerivation:
    """The node data and the float limit are derived once per plan set."""

    def test_equal_plans_derive_once(self, monkeypatch):
        monkeypatch.setattr(dct8, "_PLAN_SETS", {})
        walks = []
        walk = dct8._walk

        def counting_walk(plan_set, *args):
            walks.append(plan_set)
            return walk(plan_set, *args)

        monkeypatch.setattr(dct8, "_walk", counting_walk)
        x = np.full((1, 8), 100.0)
        for bits in ((16, 5), (24, 8), (16, 5)):
            transform8(DctEngine(1e-4, mode=ArithmeticMode.fixed(*bits)), x)
        # 8e-5 gives the plans of 1e-4, and the float limit is its own walk
        DctEngine(8e-5).safe_input_bound(FixedPointFormat(12, 2))
        assert DctEngine(8e-5)._set is DctEngine(1e-4)._set
        assert len(walks) == 1
        DctEngine(1e-4).input_limit
        DctEngine(8e-5).input_limit
        assert len(walks) == 2
        DctEngine(1e-4, compensation="per_rotator").safe_input_bound(FixedPointFormat(16, 5))
        DctEngine(1e-4, fold_into_quantizer=True).safe_input_bound(FixedPointFormat(16, 5))
        assert len(walks) == 4 and len(set(walks)) == 3
        assert len(dct8._PLAN_SETS) == 3

    def test_the_epsilon_range_has_27_plan_sets(self, monkeypatch):
        # Two engines hold the same plan set exactly when their plans'
        # steps, their compensation and their fold are equal; each set is
        # made by the first engine of it, before anything is derived.
        monkeypatch.setattr(dct8, "_PLAN_SETS", {})
        sets = {}
        for eps in np.geomspace(1e-9, 1e-1, 2000):
            for compensation, fold in itertools.product(("folded", "per_rotator"), (False, True)):
                engine = DctEngine(float(eps), compensation=compensation, fold_into_quantizer=fold)
                steps = tuple((p.indices, p.directions) for p in engine.plans.values())
                assert sets.setdefault((steps, compensation, fold), engine._set) is engine._set
        assert len({id(plan_set) for plan_set in sets.values()}) == len(sets)
        assert len({steps for steps, _, _ in sets}) <= 27
        assert len(dct8._PLAN_SETS) == len(sets) <= 108
        assert all("nodes" not in vars(plan_set) for plan_set in sets.values())


DBL_MAX = sys.float_info.max
LIMIT_MODES = [None, (24, 8), (16, 5), (32, 30)]


def _limit_engine(eps, compensation, fold, bits):
    mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
    return DctEngine(eps, mode=mode, compensation=compensation, fold_into_quantizer=fold)


class TestInputLimit:
    """``transform8`` refuses samples beyond ``input_limit``; below it no
    float value the transform computes overflows binary64."""

    @given(
        eps=st.floats(1e-6, 1e-2),
        compensation=st.sampled_from(["folded", "per_rotator"]),
        fold=st.booleans(),
        bits=st.sampled_from(LIMIT_MODES),
        rows=st.lists(
            st.lists(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
                     min_size=8, max_size=8),
            min_size=1, max_size=4,
        ),
    )
    def test_inputs_up_to_the_limit_stay_finite(self, eps, compensation, fold, bits, rows):
        engine = _limit_engine(eps, compensation, fold, bits)
        x = np.array(rows) * engine.input_limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            batch, _ = transform8(engine, x)
            single = dct8_cordic(x[0], engine)
            assert np.isfinite(batch).all() and np.isfinite(single).all()
            if bits is None:  # what the CLI computes next
                assert np.isfinite(single - dct8_oracle(x[0])).all()

    @pytest.mark.parametrize("bits", LIMIT_MODES)
    def test_inputs_beyond_the_limit_are_refused(self, bits):
        engine = _limit_engine(1e-4, "folded", False, bits)
        beyond = np.nextafter(engine.input_limit, math.inf)
        for value in (beyond, -beyond, DBL_MAX, 1e308):
            x = np.zeros((2, 8))
            x[1, 3] = value
            with pytest.raises(ValueError, match="beyond"):
                transform8(engine, x)
            with pytest.raises(ValueError, match="beyond"):
                dct8_cordic(x[1], engine)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    def test_limit_keeps_the_graph_within_half_of_dbl_max(self, eps, compensation):
        # At the limit, no sign vertex drives an unscaled output past
        # DBL_MAX / 2, so a caller can still subtract a reference from it.
        # Folded into the quantizer, the post-scales (at most 1/2) do not
        # shrink the outputs; the engine's limit is the same either way.
        engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=True)
        assert engine.input_limit == DctEngine(eps, compensation=compensation).input_limit
        vertices = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
        x = list((vertices * engine.input_limit).T)
        cols = dct8._flow(engine._set, x, rotate_float, operator.mul, dct8._unchecked)
        assert np.abs(np.stack(cols, axis=1)).max() <= DBL_MAX / 2

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    def test_some_node_nears_half_of_dbl_max_at_the_limit(self, eps, compensation, fold):
        # Tight: at the limit some sign vertex drives a float value of the
        # graph, a micro-rotation step's included, to within 1% of DBL_MAX / 2.
        engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
        vertices = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
        peak = 0.0

        def record(col):
            nonlocal peak
            peak = max(peak, float(np.abs(col).max()))
            return col

        x = list((vertices * engine.input_limit).T)
        dct8._flow(engine._set, x, rotate_float, operator.mul, record)
        assert 0.99 * DBL_MAX / 2 <= peak <= DBL_MAX / 2

    def test_1e300_is_answered(self):
        for bits in (None, (24, 8)):
            out = dct8_cordic([1e300] + [0.0] * 7, _limit_engine(1e-4, "folded", False, bits))
            assert np.isfinite(out).all()

    def test_float_limit_builds_no_csd_constants(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csd_scale called")

        monkeypatch.setattr(dct8, "csd_scale", refuse)
        assert 1e307 < DctEngine(1e-4).input_limit < 1.2e307
