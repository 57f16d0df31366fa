"""JPEG-style 8x8 block codec harness: quality-scaled quantization around
the shift-add DCT, exact-inverse reconstruction, and PSNR reporting.

Only the stages that affect pixel fidelity are implemented: level shift,
blockwise forward transform, quantization, dequantization, exact inverse
transform.  Entropy coding would be lossless and is omitted.  The decoder
always uses the exact matrix inverse, so any measured degradation comes
from quantization plus the forward transform's approximation error.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .dct8 import (DCT_MATRIX, DctEngine, _as_blocks, _dct2d_planes, _planes, _real,
                   dct2d_oracle)
from .fixedpoint import _BELOW_HALF, ArithmeticMode
from .planner import _check_epsilon

# ITU-T T.81 Annex K luminance quantization table.
BASE_LUMA_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

PEAK = 255.0


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image; ``samples`` is an (height, width) uint8 array."""

    width: int
    height: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.samples.shape != (self.height, self.width):
            raise ValueError(
                f"samples shape {self.samples.shape} != (height, width) "
                f"({self.height}, {self.width})"
            )
        if self.samples.dtype != np.uint8:
            raise ValueError(f"samples must be uint8, got {self.samples.dtype}")

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        """An image of a 2-D array of integral sample values in [0, 255].

        Raises ``ValueError`` on an empty array, on samples the transforms
        refuse, with their message (string, complex, datetime and object
        arrays: :func:`~cordic_dct.dct8._real`), and on a sample that is
        non-finite, outside that range or not an integer (``12.7``), rather
        than casting it.
        """
        a = np.asarray(arr)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("expected a non-empty 2-D array")
        if a.dtype != np.uint8:
            a = _real(a)
            if not np.all((a >= 0) & (a <= 255)):  # NaN fails both
                raise ValueError("sample values non-finite or outside [0, 255]")
            if not np.array_equal(a, np.trunc(a)):
                raise ValueError("sample values must be integers")
            a = a.astype(np.uint8)
        return cls(width=a.shape[1], height=a.shape[0], samples=a)


def quant_table_for_quality(quality: int) -> np.ndarray:
    """Annex-K luminance table scaled by the usual quality-factor rule.

    Q=50 returns the base table, Q=100 all ones; entries are clamped to
    [1, 255].
    """
    # A bool is an Integral, but True is no quality.
    if isinstance(quality, bool) or not isinstance(quality, numbers.Integral):
        raise ValueError(f"quality {quality!r} is not an integer")
    if not 1 <= quality <= 100:
        raise ValueError(f"quality {quality} outside [1, 100]")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (scale * BASE_LUMA_QUANT + 50) // 100
    return np.clip(q, 1, 255).astype(np.int64)


# The codec works on (64, n) planes: row p holds in-block position p
# (raster order) of n blocks, against (64, 1) tables, so every step runs
# over long contiguous rows and the inverse transform is a few large
# matrix products.  Quantized coefficients stay integer-valued float64,
# exact at these magnitudes.  Every step writes into a buffer it is given,
# so a sweep reuses three buffers for all tiles and qualities: a fresh
# allocation of that size per step can be returned to the system when
# freed and cost its page faults again.


def _step(q: np.ndarray) -> np.ndarray:
    """A quantizer table as a (64, 1) float64 column.  Refuses a zero,
    negative or non-finite step, which would make levels of inf or NaN, and
    a table that is not of numbers (see :func:`~cordic_dct.dct8._real`)."""
    step = _real(q).reshape(64, 1)
    if not ((step > 0.0) & (step < math.inf)).all():  # NaN fails both
        raise ValueError("quantizer table has a zero, negative or non-finite step")
    return step


def _divisor(engine: DctEngine, step: np.ndarray) -> np.ndarray:
    """The (64, 1) quantizer divisor for the engine's coefficients."""
    if engine.fold_into_quantizer:
        # Transform skipped its per-output scales; divide them into the
        # quantizer steps (separable, so the 2-D factor is an outer product).
        return step / _fold_scales(engine)
    return step


def _fold_scales(engine: DctEngine) -> np.ndarray:
    """The (64, 1) 2-D post-scales a folding engine leaves out."""
    ps = engine.post_scales
    return np.outer(ps, ps).reshape(64, 1)


def _quantize(coefs: np.ndarray, divisor: np.ndarray, halves: np.ndarray,
              out=None) -> np.ndarray:
    """Levels of (64, n) coefficient planes, rounded half away from zero,
    into ``out``: ``trunc(coefs / divisor + halves)``, where ``halves`` is
    ``np.copysign(_BELOW_HALF, coefs)``.

    This is :func:`~cordic_dct.fixedpoint._round_half_away`, the one
    quantizer, with its signed half hoisted: a quotient by a positive,
    finite step has the sign of its dividend, ±0 and ±inf included, so
    these are the bits of ``_round_half_away(coefs / divisor)`` in three
    passes where that takes four, and a sweep takes ``halves`` once for
    all its qualities.
    """
    levels = np.divide(coefs, divisor, out=out)
    np.add(levels, halves, out=levels)
    return np.trunc(levels, out=levels)


def _decode(levels: np.ndarray, step: np.ndarray, out=None) -> np.ndarray:
    """Dequantize C-ordered (64, n) level planes, exact inverse transform,
    de-level-shift, round and clamp to [0, 255]: integer-valued pixel
    planes in ``out``.  ``levels`` is overwritten with the inverse's first
    product.

    :func:`idct2d_oracle` is ``D.T @ C @ D`` per block.  On planes its
    first product is one matrix product ``D.T @ (8, 8n)`` over every
    block at once, and its second one ``D.T @ (8, n)`` per row of the
    blocks: nine large BLAS products instead of two small ones per
    block.  For n >= 2 they have given the oracle's bits on every stack
    tried.  For one block (n = 1) the second product is eight
    matrix-vector products, whose last bits can differ from the oracle's
    before rounding; the pixels have not been seen to differ (random
    blocks, and half-step DC ties at every quality in
    ``test_one_block_decodes_as_inside_a_stack``).
    """
    n = levels.shape[1]
    coefs = np.multiply(levels, step, out=out)
    rows = np.matmul(DCT_MATRIX.T, coefs.reshape(8, 8 * n), out=levels.reshape(8, 8 * n))
    pixels = np.matmul(DCT_MATRIX.T, rows.reshape(8, 8, n), out=coefs.reshape(8, 8, n))
    pixels = pixels.reshape(64, n)
    # De-level-shift, round half away from zero and clamp.  At or above
    # zero the rounding of v = x + 128 is floor(v + 0.5); below zero both
    # clamp to 0.  The two additions are one, x + 128.5: it can round
    # differently only where x + 128 and x + 128.5 lie in different
    # binades, just below a power of two M, and there both floors are M
    # (``test_decode_rounds_one_addition_as_two``).
    np.add(pixels, 128.5, out=pixels)
    np.floor(pixels, out=pixels)
    return np.clip(pixels, 0.0, 255.0, out=pixels)


def _unplane(planes: np.ndarray, shape: tuple) -> np.ndarray:
    """(64, n) planes as an int64 block stack of ``shape``."""
    return planes.T.astype(np.int64).reshape(shape)


def encode_block(block, engine: DctEngine, q: np.ndarray) -> np.ndarray:
    """Level-shift, transform, quantize one 8x8 pixel block (or an
    (..., 8, 8) stack of them) -> int coefs."""
    blocks = _as_blocks(block)
    shifted = _planes(blocks)
    shifted -= 128.0
    coefs, _ = _dct2d_planes(engine, shifted)
    levels = _quantize(coefs, _divisor(engine, _step(q)), np.copysign(_BELOW_HALF, coefs))
    return _unplane(levels, blocks.shape)


def decode_block(coefs, q: np.ndarray) -> np.ndarray:
    """Dequantize, exact inverse transform, de-level-shift, clamp to [0, 255].

    Works on one 8x8 block of coefficients or an (..., 8, 8) stack.
    """
    levels = _as_blocks(coefs)
    # _planes copies, and _decode overwrites that copy
    return _unplane(_decode(_planes(levels), _step(q)), levels.shape)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"image sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.samples.astype(np.float64) - b.samples.astype(np.float64)
    return _psnr_db(_sum_squares(diff.reshape(-1)), diff.size)


def _sum_squares(diff: np.ndarray) -> int:
    """Sum of squares of a flat array of 8-bit sample differences.

    Every square is an integer <= 255**2, so the float64 sum is exact in
    any order below 2**53: a sum over pieces equals the sum over the whole.
    ``einsum`` reduces without BLAS, whose threads can stall a dot product
    of this size for milliseconds when the host is contended.
    """
    return int(np.einsum("i,i->", diff, diff))


def _psnr_db(sse: int, count: int) -> float:
    """PSNR of ``count`` 8-bit samples whose squared differences sum to
    ``sse``; the mean equals the one ``np.mean`` would take."""
    mse = sse / count
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _pad_to_blocks(samples: np.ndarray) -> np.ndarray:
    h, w = samples.shape
    return np.pad(samples, ((0, -h % 8), (0, -w % 8)), mode="edge")


def _blocks_of(padded: np.ndarray) -> np.ndarray:
    """A block-aligned 2-D array as an (N, 8, 8) stack in raster block order."""
    ph, pw = padded.shape
    return padded.reshape(ph // 8, 8, pw // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)


def _zero_padding(planes: np.ndarray, start: int, img: GrayImage) -> None:
    """Zero the edge padding in ``planes``, the (64, n) planes of a run of
    the raster block order of ``img`` that begins at block ``start``: the
    columns from ``width % 8`` on in the last block column, and the rows
    from ``height % 8`` on in the last block row."""
    blocks = planes.reshape(8, 8, -1)  # [row, column, block]
    per_row = -(-img.width // 8)
    if img.width % 8:
        blocks[:, img.width % 8 :, (per_row - 1 - start) % per_row :: per_row] = 0.0
    if img.height % 8:
        last_row = (-(-img.height // 8) - 1) * per_row
        blocks[img.height % 8 :, :, max(last_row - start, 0) :] = 0.0


def _stack_sse(decoded: np.ndarray, pixels: np.ndarray, start: int, img: GrayImage,
               scratch: np.ndarray) -> int:
    """Sum of squared differences of decoded (64, n) pixel planes against
    the original ones ``pixels``, integer-valued float64, blocks ``start``
    on of ``img``, over the image's samples only: the differences in the
    edge padding are zeroed."""
    diff = np.subtract(decoded, pixels, out=scratch)
    _zero_padding(diff, start, img)
    return _sum_squares(diff.reshape(-1))


def _from_blocks(blocks: np.ndarray, like: GrayImage) -> GrayImage:
    """An image of an (N, 64) or (N, 8, 8) stack of pixel blocks in raster
    block order, the inverse of :func:`_blocks_of`; crops the padding."""
    bh, bw = -(-like.height // 8), -(-like.width // 8)
    padded = blocks.reshape(bh, bw, 8, 8).swapaxes(1, 2).reshape(bh * 8, bw * 8)
    cropped = padded[: like.height, : like.width].astype(np.uint8)
    return GrayImage(width=like.width, height=like.height, samples=cropped)


def roundtrip_image(img: GrayImage, engine: DctEngine, quality: int) -> GrayImage:
    """Encode and decode every 8x8 block; crop away the replication padding."""
    q = quant_table_for_quality(quality)
    blocks = _blocks_of(_pad_to_blocks(img.samples))
    return _from_blocks(decode_block(encode_block(blocks, engine, q), q), img)


@dataclass(frozen=True)
class PsnrRow:
    epsilon: float
    quality: int
    psnr_db: float
    mean_abs_coef_err: float
    saturations: int


@dataclass(frozen=True)
class PsnrReport:
    """Sweep output: one row per (epsilon, quality) cell, sorted by eps then Q."""

    rows: tuple[PsnrRow, ...]

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write("epsilon,quality,psnr_db,mean_abs_coef_err,saturations\n")
        for r in self.rows:
            buf.write(
                f"{r.epsilon:g},{r.quality},{_fmt_db(r.psnr_db)},"
                f"{r.mean_abs_coef_err:.6e},{r.saturations}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "epsilon": r.epsilon,
                    "quality": r.quality,
                    "psnr_db": _fmt_db(r.psnr_db),
                    "mean_abs_coef_err": r.mean_abs_coef_err,
                    "saturations": r.saturations,
                }
                for r in self.rows
            ],
            indent=2,
        )


def _fmt_db(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.3f}"


def _block_coef_errors(coefs: np.ndarray, oracle: np.ndarray, engine: DctEngine,
                       scratch: np.ndarray, out: np.ndarray) -> None:
    """Per-block sums of |cordic - oracle| into ``out``, from the forward
    coefficient planes ``coefs`` (64, n) of level-shifted blocks, from
    ``_dct2d_planes`` with ``engine``, and their exact transform
    ``oracle``, an (n, 64) block stack.

    The differences are written block by block into the (n, 64)
    ``scratch``, so each block's sum runs over 64 contiguous values, in
    the order (and with the bits) of a one-block sum.
    """
    if engine.fold_into_quantizer:
        coefs = np.multiply(coefs.T, _fold_scales(engine).T, out=scratch)
    else:
        coefs = coefs.T
    np.abs(np.subtract(coefs, oracle, out=scratch), out=scratch).sum(axis=1, out=out)


# Blocks per tile of ``sweep``, sized in bytes.  One float64 (64, n) plane
# of a tile takes 512 * n bytes, 256 KiB here, and a tile's transient
# arrays peak at about a dozen planes (2.9 MiB traced by tracemalloc for
# a 512x512 float op; 5.2 MiB at 1024-block tiles).  The forward
# transform's columns of 8 * n rows, 32 KiB each, stay under glibc's
# default 128 KiB mmap threshold, so they come from the heap and are
# reused.  And the whole peak has to fit in the heap a process already
# holds, or glibc trims the op's growth when the op ends and every op
# faults it in again.  In a process set up as the benchmark's
# sweep-float workload (2-vCPU Xeon KVM guest, Python 3.11, NumPy 2.4,
# BLAS on one thread), a one-epsilon, five-quality float op on a 512x512
# image, median of 40 ops in 6 fresh processes each, took:
#   256-block tiles    17.8 ms,    0 minor page faults (per-tile Python work)
#   512-block tiles    15.8 ms,    0 faults
#   1024-block tiles   16.7 ms, 1072 faults (the heap grew 4.6 MiB and was
#                                            trimmed back in every op)
#   2048-block tiles   20.0 ms, 2304 faults
_TILE_BLOCKS = 512


def sweep(
    img: GrayImage,
    epsilons,
    qualities,
    mode: ArithmeticMode | None = None,
    fold_into_quantizer: bool = False,
) -> PsnrReport:
    """Round-trip the image for every (epsilon, quality) pair.

    The padded image is cut once into a uint8 block stack in raster
    order, and the sweep runs over tiles of ``_TILE_BLOCKS`` blocks of it:
    tiles outside, epsilons inside, qualities innermost.  Per tile the
    blocks are transposed once into (64, n) planes (see ``_planes``) and
    level-shifted into float, the forward input; the exact oracle
    transform of the level-shifted block stack is taken once.  Per
    epsilon the forward transform runs once over the planes, and the
    rounding's signed halves are taken once from its coefficients (see
    ``_quantize``).  Then 128 is added back to the planes, which makes them
    the reference pixels for the squared errors, and taken off again
    before the next epsilon's transform: both exact on integers in
    [0, 255].  Every quality quantizes and decodes those same coefficient
    planes, in three buffers that every tile and quality reuses.  So no
    stage allocates a float array the size of the image.  Each epsilon's
    engine is built once, on the caller's ``mode``.

    A row's PSNR comes from an exact-integer sum of squared differences of
    the decoded planes against the original ones, with the edge padding
    masked out, accumulated over the tiles; the decoded image is never
    assembled.  Per-block coefficient errors are kept for the whole image
    and added in raster order at the end, and a row's ``saturations`` is
    the sum over the tiles of the counts the epsilon's forward transform
    returns, so every figure has the bits of a whole-image pass.

    Rows come out sorted by epsilon then quality (descending quality, the
    high-to-low presentation order) and the whole computation is
    deterministic for fixed inputs.  A row's epsilon and quality are a
    Python float and int whatever number types the caller passed (NumPy
    scalars, say), so every report serializes.  Raises ``ValueError`` on
    an epsilon or quality its engine or table refuses, or given twice,
    equal in value, before it builds any engine.
    """
    blocks = _blocks_of(_pad_to_blocks(img.samples)).reshape(-1, 64)
    epsilons = list(epsilons)
    qualities = list(qualities)
    # Each value's own check first, before sorting compares a malformed one.
    tables = {quality: quant_table_for_quality(quality) for quality in qualities}
    for eps in epsilons:
        _check_epsilon(eps)
    epsilons.sort()
    qualities.sort(reverse=True)
    # Sorted, a repeat sits next to its twin; ``==`` matches it across
    # number types (``1e-3`` and ``np.float64(1e-3)``).
    for name, values in (("epsilon", epsilons), ("quality", qualities)):
        repeats = [b for a, b in zip(values, values[1:]) if a == b]
        if repeats:
            raise ValueError(f"{name} {repeats[0]} repeated: its rows would be computed twice")
    steps = [_step(tables[quality]) for quality in qualities]
    engines = [DctEngine(epsilon=eps, mode=mode,
                         fold_into_quantizer=fold_into_quantizer) for eps in epsilons]
    saturations = [0] * len(engines)
    divisors = [[_divisor(engine, step) for step in steps] for engine in engines]
    block_errors = np.empty((len(engines), len(blocks)))
    sse = [[0] * len(steps) for _ in engines]
    levels = decoded = halves = None
    for start in range(0, len(blocks), _TILE_BLOCKS):
        stop = min(start + _TILE_BLOCKS, len(blocks))
        tile = blocks[start:stop]
        shifted = np.subtract(_planes(tile), 128.0, dtype=np.float64)
        oracle = dct2d_oracle(
            np.subtract(tile, 128.0, dtype=np.float64).reshape(-1, 8, 8)
        ).reshape(-1, 64)
        for e, engine in enumerate(engines):
            if e:
                shifted -= 128.0  # the forward input again
            coefs, clipped = _dct2d_planes(engine, shifted)
            shifted += 128.0  # the reference pixels for the squared errors
            saturations[e] += clipped
            if levels is None:
                # Taken after the first transform, so they sit above the
                # space its temporaries freed and the next transform reuses
                # that space; below it, the freed top of the heap goes back
                # to the system and every transform pays its page faults
                # again.  A sweep-fixed op of the benchmark (one 256-block
                # tile) took a median of 144 minor faults so with two
                # buffers, and 181 with both taken before the tile loop;
                # the third, 128 KiB at that tile, takes 32 more.
                levels, decoded, halves = (np.empty(coefs.size) for _ in range(3))
            tile_levels = levels[: coefs.size].reshape(coefs.shape)
            tile_decoded = decoded[: coefs.size].reshape(coefs.shape)
            tile_halves = halves[: coefs.size].reshape(coefs.shape)
            np.copysign(_BELOW_HALF, coefs, out=tile_halves)
            _block_coef_errors(coefs, oracle, engine, tile_levels.reshape(-1, 64),
                               out=block_errors[e, start:stop])
            for k, step in enumerate(steps):
                _quantize(coefs, divisors[e][k], tile_halves, out=tile_levels)
                _decode(tile_levels, step, out=tile_decoded)
                sse[e][k] += _stack_sse(tile_decoded, shifted, start, img, tile_levels)
    # Block sums added one after another in raster order (cumsum, not a
    # pairwise sum), so the total's last bits are those of a block loop.
    coef_errors = np.cumsum(block_errors, axis=1)[:, -1] / (64 * len(blocks))
    samples = img.width * img.height
    return PsnrReport(rows=tuple(
        PsnrRow(
            epsilon=float(eps),
            quality=int(quality),
            psnr_db=_psnr_db(sse[e][k], samples),
            mean_abs_coef_err=float(coef_errors[e]),
            saturations=saturations[e],
        )
        for e, eps in enumerate(epsilons)
        for k, quality in enumerate(qualities)
    ))
