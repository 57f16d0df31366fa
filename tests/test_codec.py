"""Codec tests: quantization tables, block round trips, PSNR, image sweep,
PGM io."""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cordic_dct.codec import (
    BASE_LUMA_QUANT,
    GrayImage,
    decode_block,
    encode_block,
    psnr,
    quant_table_for_quality,
    roundtrip_image,
    sweep,
)
from cordic_dct.dct8 import (
    DctEngine,
    _dct2d_planes,
    _planes,
    dct2d,
    dct2d_oracle,
    dct8_cordic,
    idct2d_oracle,
    transform8,
)
from cordic_dct.fixedpoint import _BELOW_HALF, ArithmeticMode, OverflowPolicy, _round_half_away
from cordic_dct.images import gradient_image, photo_proxy, seeded_texture, zone_plate
from cordic_dct.pgm import read_pgm, write_pgm

RNG = np.random.default_rng(20240602)


class TestQuantTables:
    def test_q50_is_base_table(self):
        assert np.array_equal(quant_table_for_quality(50), BASE_LUMA_QUANT)

    def test_q100_all_ones(self):
        assert np.all(quant_table_for_quality(100) == 1)

    def test_q95_scales_to_ten_percent(self):
        q = quant_table_for_quality(95)
        assert q[0, 0] == 2  # floor((10*16 + 50)/100)

    def test_q1_clamps_at_255(self):
        assert quant_table_for_quality(1).max() == 255

    def test_entries_always_in_range(self):
        for quality in (1, 10, 25, 50, 75, 90, 99, 100):
            q = quant_table_for_quality(quality)
            assert q.min() >= 1 and q.max() <= 255

    @pytest.mark.parametrize("quality", [0, 101, -5])
    def test_domain(self, quality):
        with pytest.raises(ValueError):
            quant_table_for_quality(quality)

    @pytest.mark.parametrize("quality", [75.5, 75.0])
    def test_non_integral_quality_refused(self, quality):
        with pytest.raises(ValueError, match="not an integer"):
            quant_table_for_quality(quality)
        with pytest.raises(ValueError, match="not an integer"):
            sweep(photo_proxy(16), [1e-3], [95, quality])

    def test_sweep_validates_qualities_before_sorting_them(self):
        # A string quality next to an int cannot be ordered; it must end in
        # the table's ValueError, not in sorted's TypeError.
        with pytest.raises(ValueError, match="not an integer"):
            sweep(photo_proxy(16), [1e-3], ["75", 50])

    @pytest.mark.parametrize("quality", [True, False, np.bool_(True)])
    def test_bool_quality_refused(self, quality):
        # True is an Integral, but not a quality.
        with pytest.raises(ValueError, match="not an integer"):
            quant_table_for_quality(quality)
        with pytest.raises(ValueError, match="not an integer"):
            sweep(photo_proxy(16), [1e-3], [quality, 50])

    @pytest.mark.parametrize("epsilons,qualities,repeated", [
        ([1e-3, 1e-4, np.float64(1e-3)], [90], "epsilon 0.001"),
        ([1e-3], [90, 75, np.int64(90)], "quality 90"),
        ([1e-4, 1e-4], [95, 95], "epsilon 0.0001"),
    ])
    def test_sweep_refuses_a_repeated_cell(self, epsilons, qualities, repeated, monkeypatch):
        # Equal in value whatever the number type; refused before any
        # engine is built, not reported twice.
        def no_engine(*args, **kwargs):
            raise AssertionError("engine built")

        monkeypatch.setattr("cordic_dct.codec.DctEngine", no_engine)
        with pytest.raises(ValueError, match=f"^{repeated} repeated"):
            sweep(photo_proxy(16), epsilons, qualities)

    def test_numpy_integer_quality_accepted(self):
        assert np.array_equal(quant_table_for_quality(np.int64(95)), quant_table_for_quality(95))


class TestBlockCodec:
    @pytest.mark.parametrize("step", [0.0, -16.0, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        # A zero step made INT64_MIN levels with only RuntimeWarnings.
        q = quant_table_for_quality(50).astype(np.float64)
        q[3, 5] = step
        with pytest.raises(ValueError, match="quantizer table"):
            encode_block(np.zeros((8, 8)), DctEngine(1e-3), q)
        with pytest.raises(ValueError, match="quantizer table"):
            decode_block(np.zeros((2, 8, 8)), q)
        with pytest.raises(ValueError, match="quantizer table"):
            encode_block(np.zeros((8, 8)), DctEngine(1e-3), np.full((8, 8), step))

    def test_flat_midgray_encodes_to_zero(self):
        eng = DctEngine(epsilon=1e-4)
        coefs = encode_block(np.full((8, 8), 128.0), eng, quant_table_for_quality(50))
        assert np.all(coefs == 0)

    def test_flat_white_dc_value(self):
        eng = DctEngine(epsilon=1e-4)
        coefs = encode_block(np.full((8, 8), 255.0), eng, quant_table_for_quality(50))
        assert coefs[0, 0] == 64  # round(127*8/16)
        mask = np.ones((8, 8), dtype=bool)
        mask[0, 0] = False
        assert np.all(coefs[mask] == 0)

    def test_q100_is_rounded_raw_transform(self):
        eng = DctEngine(epsilon=1e-4)
        block = RNG.integers(0, 256, size=(8, 8)).astype(np.float64)
        coefs = encode_block(block, eng, quant_table_for_quality(100))
        raw = dct2d(block - 128.0, eng)
        expected = np.trunc(raw + np.copysign(0.5, raw)).astype(np.int64)
        assert np.array_equal(coefs, expected)

    def test_decode_zero_coefs_gives_midgray(self):
        out = decode_block(np.zeros((8, 8), dtype=np.int64), quant_table_for_quality(50))
        assert np.all(out == 128)

    def test_white_block_round_trip(self):
        eng = DctEngine(epsilon=1e-4)
        q = quant_table_for_quality(50)
        out = decode_block(encode_block(np.full((8, 8), 255.0), eng, q), q)
        assert np.all(np.abs(out - 255) <= 1)

    def test_q100_high_precision_round_trip(self):
        eng = DctEngine(epsilon=1e-6)
        q = quant_table_for_quality(100)
        for _ in range(20):
            block = RNG.integers(0, 256, size=(8, 8)).astype(np.float64)
            out = decode_block(encode_block(block, eng, q), q)
            assert np.abs(out - block).max() <= 1

    def test_fold_into_quantizer_round_trip_matches(self):
        plain = DctEngine(epsilon=1e-4)
        folded = DctEngine(epsilon=1e-4, fold_into_quantizer=True)
        q = quant_table_for_quality(75)
        block = RNG.integers(0, 256, size=(8, 8)).astype(np.float64)
        a = decode_block(encode_block(block, plain, q), q)
        b = decode_block(encode_block(block, folded, q), q)
        assert np.abs(a - b).max() <= 1


class TestPsnr:
    def _img(self, arr):
        return GrayImage.from_array(np.asarray(arr, dtype=np.uint8))

    def test_identical_is_infinite(self):
        img = self._img(RNG.integers(0, 256, size=(16, 16)))
        assert psnr(img, img) == math.inf

    def test_uniform_plus_one(self):
        a = self._img(np.full((32, 32), 100))
        b = self._img(np.full((32, 32), 101))
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2), abs=1e-12)

    def test_half_pixels_differ_by_two(self):
        base = np.full((2, 32), 100, dtype=np.uint8)
        other = base.copy()
        other[0, :] += 2  # half of the pixels off by 2 -> MSE = 2
        assert psnr(self._img(base), self._img(other)) == pytest.approx(
            10 * math.log10(255**2 / 2.0), abs=1e-12
        )

    def test_dimension_mismatch(self):
        a = self._img(np.zeros((8, 8)))
        b = self._img(np.zeros((8, 16)))
        with pytest.raises(ValueError):
            psnr(a, b)


class TestRoundtripImage:
    def test_flat_midgray_is_lossless(self):
        img = GrayImage.from_array(np.full((64, 64), 128, dtype=np.uint8))
        out = roundtrip_image(img, DctEngine(epsilon=1e-4), 75)
        assert np.array_equal(out.samples, img.samples)
        assert psnr(img, out) == math.inf

    def test_single_block_image_equals_block_path(self):
        eng = DctEngine(epsilon=1e-4)
        q = quant_table_for_quality(80)
        block = RNG.integers(0, 256, size=(8, 8)).astype(np.uint8)
        img = GrayImage.from_array(block)
        via_image = roundtrip_image(img, eng, 80).samples
        via_block = decode_block(encode_block(block.astype(np.float64), eng, q), q)
        assert np.array_equal(via_image, via_block.astype(np.uint8))

    def test_padding_of_awkward_sizes(self):
        img = GrayImage.from_array(RNG.integers(0, 256, size=(13, 20)).astype(np.uint8))
        out = roundtrip_image(img, DctEngine(epsilon=1e-3), 90)
        assert (out.width, out.height) == (20, 13)
        assert out.samples.dtype == np.uint8

    def test_coarser_quality_degrades_noise_image(self):
        img = GrayImage.from_array(RNG.integers(0, 256, size=(128, 128)).astype(np.uint8))
        eng = DctEngine(epsilon=1e-3)
        hi = psnr(img, roundtrip_image(img, eng, 95))
        lo = psnr(img, roundtrip_image(img, eng, 75))
        assert hi > lo


class TestSweep:
    def test_single_cell(self, photo256):
        report = sweep(photo256, [1e-3], [95])
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.epsilon == 1e-3
        assert row.quality == 95
        assert row.psnr_db > 0
        assert row.saturations == 0

    def test_rows_carry_python_numbers(self):
        # NumPy scalars must not reach the rows: to_json() cannot
        # serialize an int64.
        img = photo_proxy(16)
        plain = sweep(img, [1e-3, 1e-4], [90, 50])
        for report in (sweep(img, np.array([1e-3, 1e-4]), np.array([90, 50])),
                       sweep(img, [np.float64(1e-3), 1e-4], [np.int32(90), np.int64(50)])):
            assert [(type(r.epsilon), type(r.quality)) for r in report.rows] == [(float, int)] * 4
            assert report.to_json() == plain.to_json()
            assert report.to_csv() == plain.to_csv()
        low = sweep(img, [np.float32(1e-3)], [50])
        assert type(low.rows[0].epsilon) is float
        assert json.loads(low.to_json())[0]["epsilon"] == float(np.float32(1e-3))

    def test_quality_monotonicity(self, photo256):
        report = sweep(photo256, [1e-3], [95, 90, 85, 80, 75])
        vals = [r.psnr_db for r in report.rows]
        qualities = [r.quality for r in report.rows]
        assert qualities == [95, 90, 85, 80, 75]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_quality_monotonicity_across_corpus(self):
        # every bundled image must order the quality factors; 256px keeps
        # this quick (below ~200px the smooth gradient gets quantization
        # luck at coarse Q)
        from cordic_dct.images import bundled_corpus

        for name, img in bundled_corpus(256).items():
            vals = [r.psnr_db for r in sweep(img, [1e-3], [95, 85, 75]).rows]
            assert vals[0] > vals[1] > vals[2], name

    def test_precision_saturation_band(self, photo256):
        report = sweep(photo256, [1e-3, 1e-4], [95, 85, 75])
        by = {(r.epsilon, r.quality): r.psnr_db for r in report.rows}
        for quality in (95, 85, 75):
            delta = by[(1e-4, quality)] - by[(1e-3, quality)]
            assert -0.05 <= delta <= 0.2

    def test_coef_error_shrinks_with_epsilon(self, photo256):
        report = sweep(photo256, [1e-3, 1e-4], [95])
        by_eps = {r.epsilon: r.mean_abs_coef_err for r in report.rows}
        assert by_eps[1e-4] < by_eps[1e-3]

    def test_oracle_encoder_equivalence(self, photo256):
        # swapping the shift-add forward transform for the exact matrix
        # must barely move PSNR
        from cordic_dct import codec
        from cordic_dct.dct8 import dct2d_oracle

        eng = DctEngine(epsilon=1e-4)
        for quality in (95, 75):
            q = quant_table_for_quality(quality)
            padded = codec._pad_to_blocks(photo256.samples).astype(np.float64)
            out = np.empty_like(padded)
            h, w = padded.shape
            for by in range(0, h, 8):
                for bx in range(0, w, 8):
                    blk = padded[by : by + 8, bx : bx + 8]
                    coefs = _round_half_away(dct2d_oracle(blk - 128.0) / q)
                    out[by : by + 8, bx : bx + 8] = decode_block(coefs.astype(np.int64), q)
            oracle_img = GrayImage(
                photo256.width,
                photo256.height,
                out[: photo256.height, : photo256.width].astype(np.uint8),
            )
            a = psnr(photo256, roundtrip_image(photo256, eng, quality))
            b = psnr(photo256, oracle_img)
            assert abs(a - b) <= 0.2

    def test_report_formats(self, photo256):
        report = sweep(photo256, [1e-3], [95, 75])
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "epsilon,quality,psnr_db,mean_abs_coef_err,saturations"
        assert len(lines) == 3
        # three-decimal PSNR column
        psnr_field = lines[1].split(",")[2]
        assert len(psnr_field.split(".")[1]) == 3

        import json

        payload = json.loads(report.to_json())
        assert payload[0]["quality"] == 95
        assert set(payload[0]) == {
            "epsilon",
            "quality",
            "psnr_db",
            "mean_abs_coef_err",
            "saturations",
        }

    def test_determinism(self, photo256):
        a = sweep(photo256, [1e-3], [95, 85]).to_csv()
        b = sweep(photo256, [1e-3], [95, 85]).to_csv()
        assert a == b

    def test_fold_into_quantizer_sweep_equivalent(self, photo256):
        plain = sweep(photo256, [1e-4], [95]).rows[0].psnr_db
        folded = sweep(photo256, [1e-4], [95], fold_into_quantizer=True).rows[0].psnr_db
        assert abs(plain - folded) <= 0.2


@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-1e-300, 1e-300),  # subnormals and signed zeros
            st.integers(-(2**20), 2**20).map(lambda k: k + 0.5),  # ties
            st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 5e-324, -5e-324]),
        ),
        min_size=1, max_size=40,
    )
)
def test_array_rounding_is_exact_and_keeps_zero_inf_and_nan(values):
    """``_round_half_away`` of a float64 array rounds each finite value to
    the nearest integer, ties away from zero, as exact arithmetic does, with
    the value's sign on a zero result; it gives back an infinity, and a NaN
    for a NaN.  Pinned bits: -0.0 and the values in (-1/2, -0] give -0.0,
    +-inf and the quiet NaNs of either sign give themselves."""
    v = np.array(values)
    got, nan = _round_half_away(v), np.isnan(v)
    want = np.array([x if not math.isfinite(x) else math.copysign(
        float(math.floor(abs(Fraction(x)) + Fraction(1, 2))), x) for x in values])
    assert np.isnan(got[nan]).all()
    assert got[~nan].view(np.int64).tolist() == want[~nan].view(np.int64).tolist()
    special = np.array([-0.0, -0.3, -5e-324, math.inf, -math.inf, math.nan, -math.nan])
    assert _round_half_away(special).view(np.uint64).tolist() == [
        0x8000000000000000, 0x8000000000000000, 0x8000000000000000,
        0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000]


def _divisors() -> list:
    """Every step of the quality tables, the fold divisors of both
    compensations at three qualities, and tiny steps whose quotients
    overflow to +-inf."""
    from cordic_dct import codec

    steps = {float(v) for quality in range(1, 101)
             for v in quant_table_for_quality(quality).ravel()}
    for compensation in ("folded", "per_rotator"):
        engine = DctEngine(1e-4, compensation=compensation, fold_into_quantizer=True)
        for quality in (10, 50, 100):
            step = codec._step(quant_table_for_quality(quality))
            steps.update(codec._divisor(engine, step).ravel().tolist())
    return sorted(steps) + [2.0**-60, 1e-300, 2.0**-1022, 5e-324]


@settings(max_examples=200)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.49999999999999994,
                             -0.49999999999999994, 5e-324, -5e-324]),
            st.integers(-(2**20), 2**20).map(lambda k: k + 0.5),  # ties
            st.integers(-8, 8).map(lambda k: 2.0**52 + k),  # adding 0.5 is inexact here
            st.integers(-8, 8).map(lambda k: -(2.0**53) + k),
            st.floats(-1e-300, 1e-300),  # subnormals and signed zeros
            st.floats(1e300, 1.7e308).flatmap(lambda v: st.sampled_from([v, -v])),
            st.floats(allow_nan=False),
        ),
        min_size=1, max_size=40,
    ),
    divisor=st.sampled_from(_divisors()),
)
@example(values=[0.49999999999999994, -0.49999999999999994, 2.0**52 + 1, -(2.0**52 + 1),
                 2.5, -2.5, -0.0], divisor=1.0)
def test_hoisted_sign_rounds_as_the_quotient(values, divisor):
    """``_quantize`` rounds ``c / d`` with the signed halves of ``c``, taken
    once for every step ``d``: ``trunc(c / d + half(c))`` has the bits of
    ``_round_half_away(c / d)``, -0.0 and +-inf included, because a
    quotient by a positive, finite step has the sign of its dividend.  Both
    equal round-half-away of the quotient in exact arithmetic, which a half
    of +0.5, or one without the sign bit, misses.  The coefficients are the
    values and the values times the step, so that ties and the integers
    about 2**52 are quotients too."""
    from cordic_dct import codec

    d = np.float64(divisor)
    with np.errstate(over="ignore"):  # products and quotients beyond DBL_MAX are +-inf
        c = np.array(values)
        c = np.concatenate([c, c * d])
        quotients = c / d
        got = codec._quantize(c, d, np.copysign(_BELOW_HALF, c))
    assert got.view(np.int64).tolist() == _round_half_away(quotients).view(np.int64).tolist()
    want = np.array([q if math.isinf(q) else math.copysign(
        float(math.floor(abs(Fraction(q)) + Fraction(1, 2))), q) for q in quotients.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=40)
@given(
    n=st.one_of(st.integers(1, 9), st.integers(1, 2100)),
    quality=st.integers(1, 100),
    spread=st.sampled_from([2, 40, 1024]),
    seed=st.integers(0, 2**32 - 1),
)
def test_plane_decode_equals_per_block_inverse(n, quality, spread, seed):
    """The plane decode's large matrix products give the pixels of one
    ``idct2d_oracle`` call per block, rounded half away and clamped.

    Bit for bit up to the sign of zero: the reference rounds a value in
    (-0.5, 0) to -0.0, which ``np.clip`` keeps, where the decode's
    ``floor(v + 0.5)`` gives 0.0; adding 0.0 makes both 0.0.
    """
    from cordic_dct import codec

    rng = np.random.default_rng(seed)
    levels = rng.integers(-spread, spread + 1, size=(n, 8, 8)).astype(np.float64)
    q = quant_table_for_quality(quality)
    want = np.array([
        np.clip(_round_half_away(idct2d_oracle(block * q) + 128.0), 0, 255)
        for block in levels
    ]) + 0.0
    planes = codec._planes(levels)
    got = codec._decode(planes, codec._step(q))
    assert got.shape == (64, n)
    assert got.T.reshape(n, 8, 8).tobytes() == want.tobytes()
    assert np.array_equal(decode_block(levels, q), want)


def test_decode_rounds_one_addition_as_two(monkeypatch):
    """``_decode`` adds 128.5 where the per-block reference adds 128 and
    then rounds half away from zero: the same pixels on the values where
    the two can differ.  With an identity matrix in place of the DCT the
    decoded pixel of a level ``x`` (step 1) is the rounding of ``x``
    alone, probed around every half tie ``k + 0.5`` and every power of
    two ``M`` up to 256, where ``x + 128`` and ``x + 128.5`` can lie in
    different binades, below zero and above 255."""
    from cordic_dct import codec

    edges = np.concatenate([np.arange(-2, 259) - 128.5, 2.0 ** np.arange(-8, 9) - 128.5])
    near = [edges + j * 2.0**-46 for j in range(-8, 9)] + [edges + j * 2.0**-45 for j in (-3, 3)]
    for direction in (-np.inf, np.inf):
        x = edges
        for _ in range(6):
            x = np.nextafter(x, direction)
            near.append(x)
    x = np.concatenate(near + [np.random.default_rng(5).uniform(-200.0, 400.0, 4096)])
    x = x[: len(x) // 64 * 64]
    want = np.clip(_round_half_away(x + 128.0), 0, 255) + 0.0
    monkeypatch.setattr(codec, "DCT_MATRIX", np.eye(8))
    got = codec._decode(codec._planes(x.reshape(-1, 8, 8)), np.ones((64, 1)))
    assert got.T.reshape(-1).tobytes() == want.tobytes()


def _dc_tie_levels(quality: int, rng) -> np.ndarray:
    """Level blocks whose DC term ``level * step`` is 4 mod 8, so the DC
    share of every pixel, ``level * step / 8``, sits on a half: the blocks
    whose rounding a last-bit difference in the inverse would flip.  Every
    such DC term in [-1024, 1024] comes alone and with small AC levels.  A
    quality whose DC step is 0 mod 8 has no tie and gets random blocks."""
    step = int(quant_table_for_quality(quality)[0, 0])
    dc = [v // step for v in range(-1020, 1021, 8) if v % step == 0]
    levels = rng.integers(-3, 4, size=(2 * len(dc) or 16, 8, 8)).astype(np.float64)
    if dc:
        levels[::2] = 0.0
        levels[::2, 0, 0] = levels[1::2, 0, 0] = dc
    return levels


@pytest.mark.parametrize("quality", range(1, 101))
def test_one_block_decodes_as_inside_a_stack(quality):
    """A block decoded alone gives the pixels it gets inside a stack.

    Alone, ``_decode``'s plane products are matrix-vector products, whose
    last bits can differ from the stack's matrix products; after rounding
    to pixels they agree, on DC-tie blocks (see :func:`_dc_tie_levels`)
    at every quality."""
    levels = _dc_tie_levels(quality, np.random.default_rng(quality))
    q = quant_table_for_quality(quality)
    stacked = decode_block(levels, q)
    alone = np.array([decode_block(block, q) for block in levels])
    assert np.array_equal(alone, stacked)


def _blockwise_reference(img: GrayImage, engine: DctEngine, qualities):
    """The codec as a loop over 8x8 blocks, one forward transform (the
    ``dct2d`` of one block, with its saturation count) and one
    ``idct2d_oracle`` call per block: decoded samples per quality, the mean
    |cordic - oracle| coefficient error summed block by block, and the
    saturations of each block's forward transform, in raster block order."""
    h, w = img.height, img.width
    padded = np.pad(img.samples, ((0, -h % 8), (0, -w % 8)), mode="edge")
    padded = padded.astype(np.float64) - 128.0
    scales = np.outer(engine.post_scales, engine.post_scales)
    coefs, total, saturations = {}, 0.0, []
    for by in range(0, padded.shape[0], 8):
        for bx in range(0, padded.shape[1], 8):
            block = padded[by : by + 8, bx : bx + 8]
            planes, clipped = _dct2d_planes(engine, _planes(block))
            c = coefs[by, bx] = planes.reshape(8, 8)
            saturations.append(clipped)
            got = c * scales if engine.fold_into_quantizer else c
            total += float(np.sum(np.abs(got - dct2d_oracle(block))))
    decoded = {}
    for quality in qualities:
        q = quant_table_for_quality(quality).astype(np.float64)
        divisor = q / scales if engine.fold_into_quantizer else q
        out = np.empty_like(padded)
        for (by, bx), c in coefs.items():
            pixels = idct2d_oracle(_round_half_away(c / divisor) * q) + 128.0
            out[by : by + 8, bx : bx + 8] = np.clip(_round_half_away(pixels), 0, 255)
        decoded[quality] = GrayImage.from_array(out[:h, :w].astype(np.uint8))
    return decoded, total / (64 * len(coefs)), np.array(saturations)


class TestBatchedCodecMatchesBlockLoop:
    """The batched codec must reproduce a per-block loop exactly."""

    QUALITIES = (95, 60)

    # 72 blocks: enough that a pairwise sum of the block sums shows in the last bits
    @pytest.mark.parametrize("size", [(13, 21), (40, 24), (64, 72)])
    @pytest.mark.parametrize("bits", [None, (16, 5)])
    @pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
    @pytest.mark.parametrize("fold", [False, True])
    def test_exact_equality(self, size, bits, compensation, fold):
        rng = np.random.default_rng(sum(size))
        samples = rng.integers(0, 256, size=size).astype(np.uint8)
        samples[: size[0] // 2] = 255  # bright enough to saturate 16.5 arithmetic
        img = GrayImage.from_array(samples)

        def engine():
            mode = None
            if bits is not None:
                mode = ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
            return DctEngine(epsilon=1e-3, mode=mode, compensation=compensation,
                             fold_into_quantizer=fold)

        ref_images, ref_err, ref_sats = _blockwise_reference(img, engine(), self.QUALITIES)
        if bits is not None:
            assert ref_sats.sum() > 0  # the 16.5 case must exercise the saturation count
        for quality in self.QUALITIES:
            got = roundtrip_image(img, engine(), quality)
            assert np.array_equal(got.samples, ref_images[quality].samples)

        if compensation != "folded":
            return  # sweep always builds folded engines
        mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        rows = sweep(img, [1e-3], self.QUALITIES, mode=mode, fold_into_quantizer=fold).rows
        for row in rows:
            assert row.psnr_db == psnr(img, ref_images[row.quality])
            assert row.mean_abs_coef_err == ref_err
            assert row.saturations == ref_sats.sum()


@settings(max_examples=40)
@given(
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    qualities=st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True),
    bits=st.sampled_from([None, (16, 5)]),
    fold=st.booleans(),
    flat=st.one_of(st.none(), st.just(128), st.integers(0, 255)),
    seed=st.integers(0, 2**32 - 1),
)
# Larger than one sweep tile (512 blocks): edge padding in every tile
# (257x260), in none (264x264, 8x8200), and in a last tile of one block
# (8x8199).
@example(size=(264, 264), qualities=[90, 50], bits=None, fold=False, flat=None, seed=1)
@example(size=(257, 260), qualities=[95, 10], bits=(16, 5), fold=True, flat=None, seed=3)
@example(size=(8, 8200), qualities=[75], bits=None, fold=True, flat=None, seed=5)
@example(size=(8, 8199), qualities=[90], bits=(16, 5), fold=False, flat=None, seed=6)
def test_sweep_equals_the_reference_chain(size, qualities, bits, fold, flat, seed):
    """Every sweep row equals PSNR of ``roundtrip_image`` (exactly, inf
    included) and the block loop's coefficient error and saturations, on
    sizes that are mostly padded."""
    if flat is None:
        samples = np.random.default_rng(seed).integers(0, 256, size=size).astype(np.uint8)
    else:
        samples = np.full(size, flat, dtype=np.uint8)
    img = GrayImage.from_array(samples)

    def engine():
        mode = None
        if bits is not None:
            mode = ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        return DctEngine(epsilon=1e-3, mode=mode, fold_into_quantizer=fold)

    ref_images, ref_err, ref_sats = _blockwise_reference(img, engine(), set(qualities))
    mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
    rows = sweep(img, [1e-3], qualities, mode=mode, fold_into_quantizer=fold).rows
    assert [r.quality for r in rows] == sorted(qualities, reverse=True)
    for row in rows:
        decoded = roundtrip_image(img, engine(), row.quality)
        assert np.array_equal(decoded.samples, ref_images[row.quality].samples)
        assert row.psnr_db == psnr(img, decoded)
        assert row.mean_abs_coef_err == ref_err
        assert row.saturations == ref_sats.sum()
        if flat == 128:  # an all-zero transform is lossless at every quality
            assert row.psnr_db == math.inf


class TestSweepMechanism:
    """``sweep`` scores the decoded block stack, hoists its per-image work
    out of the epsilon loop, and leaves the public dtypes as they were."""

    def test_no_image_is_assembled(self, monkeypatch):
        from cordic_dct import codec

        img = GrayImage.from_array(RNG.integers(0, 256, size=(21, 30)).astype(np.uint8))
        want = sweep(img, [1e-3, 1e-4], [90, 40]).to_json()

        def refuse(*args, **kwargs):
            raise AssertionError("called inside sweep")

        monkeypatch.setattr(codec, "_from_blocks", refuse)
        monkeypatch.setattr(codec, "psnr", refuse)
        assert sweep(img, [1e-3, 1e-4], [90, 40]).to_json() == want

    def test_every_block_through_the_oracle_once_per_sweep(self, monkeypatch):
        from cordic_dct import codec

        calls = []

        def recording(block):
            calls.append(np.array(block))
            return dct2d_oracle(block)

        monkeypatch.setattr(codec, "dct2d_oracle", recording)
        # 3 x 513 blocks: four tiles, with edge padding in the last three
        img = GrayImage.from_array(RNG.integers(0, 256, size=(17, 4100)).astype(np.uint8))
        sweep(img, [1e-3, 1e-4, 1e-6], [95, 75])
        blocks = codec._blocks_of(codec._pad_to_blocks(img.samples))
        assert len(blocks) > codec._TILE_BLOCKS
        assert len(calls) == -(-len(blocks) // codec._TILE_BLOCKS)  # once per tile, not per eps
        assert np.array_equal(np.concatenate(calls), blocks - 128.0)  # each block once, in order

    def test_saturations_add_up_over_tiles(self):
        from cordic_dct import codec

        # 1089 blocks: three tiles, and 16.5 with fold clips values in each
        img = photo_proxy(264)
        mode = ArithmeticMode.fixed(16, 5, OverflowPolicy.SATURATE)
        rows = sweep(img, [1e-3, 1e-4], [90], mode=mode, fold_into_quantizer=True).rows
        for row in rows:
            engine = DctEngine(row.epsilon, mode=mode, fold_into_quantizer=True)
            _, _, ref_sats = _blockwise_reference(img, engine, [])
            size = codec._TILE_BLOCKS
            tiles = np.split(ref_sats, range(size, len(ref_sats), size))
            assert len(tiles) == 3 and all(tile.sum() > 0 for tile in tiles)
            assert row.saturations == ref_sats.sum()

    def test_psnr_takes_no_blas_dot(self, monkeypatch):
        img = GrayImage.from_array(RNG.integers(0, 256, size=(40, 33)).astype(np.uint8))
        other = GrayImage.from_array(255 - img.samples)
        want = sweep(img, [1e-3], [90, 40]).to_json(), psnr(img, other)

        def refuse(*args, **kwargs):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(np, "dot", refuse)
        assert (sweep(img, [1e-3], [90, 40]).to_json(), psnr(img, other)) == want

    def test_working_set_is_bounded_by_the_tile(self):
        """Quadrupling the image grows the traced peak of a sweep by its
        per-image inputs only: the uint8 block stack (64 bytes a block) and
        the per-epsilon block errors (8 bytes a block and epsilon), not by
        float64 arrays the size of the image (512 bytes a block each)."""
        epsilons, qualities = [1e-3, 1e-4], [75]

        def traced_peak(img):
            sweep(img, epsilons, qualities)  # plans and lazy engine state warm
            tracemalloc.start()
            try:
                sweep(img, epsilons, qualities)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = photo_proxy(512), photo_proxy(1024)
        extra_blocks = (1024**2 - 512**2) // 64
        inputs = extra_blocks * (64 + 8 * len(epsilons))
        assert traced_peak(large) - traced_peak(small) <= inputs + 64 * 1024

    def test_public_dtypes(self):
        eng = DctEngine(epsilon=1e-4)
        q = quant_table_for_quality(75)
        img = GrayImage.from_array(RNG.integers(0, 256, size=(13, 9)).astype(np.uint8))
        assert roundtrip_image(img, eng, 75).samples.dtype == np.uint8
        block = RNG.integers(0, 256, size=(8, 8)).astype(np.float64)
        for x in (block, np.stack([block, block[::-1]])):
            coefs = encode_block(x, eng, q)
            assert coefs.dtype == np.int64 and coefs.shape == x.shape
            pixels = decode_block(coefs, q)
            assert pixels.dtype == np.int64 and pixels.shape == x.shape

    def test_decode_block_refuses_a_bad_shape(self):
        with pytest.raises(ValueError):
            decode_block(np.zeros((4, 16)), quant_table_for_quality(50))


def _bright_noise(shape, seed) -> GrayImage:
    """Noise whose left half is white, which 16.5 arithmetic saturates on."""
    samples = np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)
    samples[:, : shape[1] // 2] = 255
    return GrayImage.from_array(samples)


class TestTileInvariance:
    """A sweep's report does not depend on its tile size, byte for byte:
    tiles of one block, tiles that leave a remainder of one block or of a
    few, and one tile for the whole image.  The PSNR they share is that of
    the decoded image, so an error every tile size makes alike (masking
    the padding one block off, say) fails too."""

    IMAGES = {
        "8x8200": (8, 8200),    # 1025 blocks, no padding
        "17x4100": (17, 4100),  # 3 x 513 blocks, edge padding in both directions
    }
    MODES = {
        "float": (None, False),
        "fold": (None, True),
        "24.8": ((24, 8), False),
        "16.5": ((16, 5), False),
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("image", IMAGES)
    def test_report_bytes_are_the_same_for_every_tile(self, image, mode, monkeypatch):
        from cordic_dct import codec

        shape = self.IMAGES[image]
        img = _bright_noise(shape, seed=shape[1])
        bits, fold = self.MODES[mode]
        arith = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        blocks = -(-shape[0] // 8) * -(-shape[1] // 8)
        reports = {}
        for tile in (1, 2, 7, 511, 512, 1024, blocks):
            monkeypatch.setattr(codec, "_TILE_BLOCKS", tile)
            report = sweep(img, [1e-3, 1e-4], [90, 30], mode=arith, fold_into_quantizer=fold)
            reports[tile] = report.to_csv(), report.to_json()
        for tile, texts in reports.items():
            assert texts == reports[blocks], f"tiles of {tile} blocks"
        for row in report.rows:
            engine = DctEngine(row.epsilon, mode=arith, fold_into_quantizer=fold)
            assert row.psnr_db == psnr(img, roundtrip_image(img, engine, row.quality))
            if mode == "16.5":
                assert row.saturations > 0


class TestSeveralEpsilons:
    """A sweep over several epsilons gives, row for row and byte for byte,
    the rows of one sweep per epsilon: the planes it adds 128 to after each
    epsilon's transform, as the reference pixels, are the forward input
    again before the next one's."""

    EPSILONS = (1e-4, 1e-3, 1e-2)  # as the sweep sorts them

    @pytest.mark.parametrize("mode", TestTileInvariance.MODES)
    def test_rows_are_those_of_one_sweep_per_epsilon(self, mode, monkeypatch):
        from cordic_dct import codec

        monkeypatch.setattr(codec, "_TILE_BLOCKS", 7)
        img = _bright_noise((37, 45), seed=45)  # 5 x 6 blocks, padded both ways: 5 tiles
        bits, fold = TestTileInvariance.MODES[mode]
        arith = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)

        def run(epsilons):
            report = sweep(img, epsilons, [90, 30], mode=arith, fold_into_quantizer=fold)
            return report.to_csv().splitlines()[1:], json.loads(report.to_json())

        lines, entries = run([1e-3, 1e-2, 1e-4])
        alone = [run([eps]) for eps in self.EPSILONS]
        assert lines == [line for one, _ in alone for line in one]
        assert entries == [entry for _, one in alone for entry in one]
        if mode == "16.5":
            assert all(entry["saturations"] > 0 for entry in entries)


class TestInputsUntouched:
    """No public entry point writes into an array its caller passed: the
    kernels update in place only the values the flow graph forms."""

    MODES = {
        "float": None,
        "24.8": ArithmeticMode.fixed(24, 8),
        "16.5": ArithmeticMode.fixed(16, 5, OverflowPolicy.SATURATE),
    }
    CALLS = {
        "transform8": lambda engine, a: transform8(engine, a["rows"]),
        "dct8_cordic": lambda engine, a: dct8_cordic(a["vector"], engine),
        "dct2d block": lambda engine, a: dct2d(a["block"], engine),
        "dct2d stack": lambda engine, a: dct2d(a["stack"], engine),
        "encode_block": lambda engine, a: encode_block(a["pixels"], engine, a["q"]),
        "decode_block": lambda engine, a: decode_block(a["levels"], a["q"]),
        "roundtrip_image": lambda engine, a: roundtrip_image(a["image"], engine, 50),
        "sweep": lambda engine, a: sweep(a["image"], [1e-3, 1e-4], [90, 50], mode=engine.mode),
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("call", CALLS)
    def test_caller_arrays_are_not_modified(self, call, mode):
        rng = np.random.default_rng(11)
        rows = rng.uniform(-255.0, 255.0, size=(6, 8))
        rows[0] = 255.0  # saturates 16.5 arithmetic
        pixels = rng.integers(0, 256, size=(3, 8, 8)).astype(np.float64)
        pixels[0] = 255.0
        args = {
            "rows": rows,
            "vector": rows[1].copy(),
            "block": pixels[1] - 128.0,
            "stack": pixels - 128.0,
            "pixels": pixels,
            "levels": rng.integers(-40, 41, size=(3, 8, 8)),
            "q": quant_table_for_quality(50),
            "image": _bright_noise((20, 27), seed=27),
        }
        arrays = {name: a.samples if name == "image" else a for name, a in args.items()}
        before = {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}
        self.CALLS[call](DctEngine(1e-4, mode=self.MODES[mode]), args)
        for name, a in arrays.items():
            assert (a.dtype, a.shape, a.tobytes()) == before[name], f"{call} modified {name}"
        if mode == "16.5" and call == "transform8":
            assert transform8(DctEngine(1e-4, mode=self.MODES[mode]), rows)[1] > 0


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize(
    "golden, size, epsilons, qualities, bits",
    [
        ("sweep-float-float.csv", 512, (1e-3, 1e-4, 1e-6), (95, 90, 85, 80, 75), None),
        ("sweep-fixed-q24_8.csv", 128, (1e-3, 1e-4), (90, 75), (24, 8)),
        ("sweep-fixed-q16_5.csv", 128, (1e-3, 1e-4), (90, 75), (16, 5)),
    ],
)
def test_sweep_matches_benchmark_golden(golden, size, epsilons, qualities, bits):
    """The benchmark's stored sweep CSVs (seed 7) are reproduced byte for byte."""
    mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
    report = sweep(photo_proxy(size, 7), epsilons, qualities, mode=mode)
    assert report.to_csv() == (GOLDEN_DIR / golden).read_text()


def _with_sample(bad):
    """A 4x4 float image of 7s with ``bad`` at one sample."""
    samples = np.full((4, 4), 7.0)
    samples[2, 1] = bad
    return samples


class TestGrayImage:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrayImage(4, 4, np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(0, 4, np.zeros((4, 0), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(4, 4, np.zeros((4, 4), dtype=np.int16))

    def test_from_array_range_check(self):
        with pytest.raises(ValueError):
            GrayImage.from_array(np.full((4, 4), 300))

    @pytest.mark.parametrize("samples", [
        *map(_with_sample, (math.nan, math.inf, -math.inf, 12.7, -0.5)),
        np.zeros((0, 4)), np.zeros((3, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.uint8),
    ], ids=["nan", "inf", "-inf", "12.7", "-0.5", "empty-float", "empty-int64", "empty-uint8"])
    def test_from_array_refuses_malformed(self, samples):
        with pytest.raises(ValueError):
            GrayImage.from_array(samples)

    @pytest.mark.parametrize("samples, want", [
        (np.array([[0.0, 12.0], [255.0, -0.0]]), [[0, 12], [255, 0]]),
        (np.array([[True, False], [False, True]]), [[1, 0], [0, 1]]),
        (np.array([[0, 12], [255, 3]], dtype=np.uint8), [[0, 12], [255, 3]]),
        (np.array([[0, 12], [255, 3]], dtype=np.int64), [[0, 12], [255, 3]]),
    ])
    def test_from_array_accepts_integral_samples(self, samples, want):
        img = GrayImage.from_array(samples)
        assert img.samples.dtype == np.uint8
        assert img.samples.tolist() == want


class TestPgm:
    def test_round_trip_bit_exact(self, tmp_path):
        img = GrayImage.from_array(RNG.integers(0, 256, size=(21, 13)).astype(np.uint8))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert (back.width, back.height) == (img.width, img.height)
        assert np.array_equal(back.samples, img.samples)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# comment line\n3 2\n255\n" + payload)
        img = read_pgm(path)
        assert (img.width, img.height) == (3, 2)
        assert bytes(img.samples.reshape(-1)) == payload

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)


class TestSyntheticImages:
    def test_deterministic(self):
        a = seeded_texture(64, seed=7).samples
        b = seeded_texture(64, seed=7).samples
        assert np.array_equal(a, b)
        assert not np.array_equal(a, seeded_texture(64, seed=8).samples)

    def test_shapes_and_ranges(self):
        for img in (gradient_image(32, 48), zone_plate(40), photo_proxy(40)):
            assert img.samples.dtype == np.uint8
        g = gradient_image(32, 48)
        assert (g.width, g.height) == (32, 48)
        assert g.samples[0, 0] == 0 and g.samples[-1, -1] == 255
