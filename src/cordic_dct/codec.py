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
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .dct8 import DCT_MATRIX, DctEngine, _as_blocks, dct2d, dct2d_oracle
from .fixedpoint import ArithmeticMode, OpCounter
from .planner import IndexPolicy

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
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        if a.dtype != np.uint8:
            if a.min() < 0 or a.max() > 255:
                raise ValueError("sample values outside [0, 255]")
            a = a.astype(np.uint8)
        return cls(width=a.shape[1], height=a.shape[0], samples=a)


def quant_table_for_quality(quality: int) -> np.ndarray:
    """Annex-K luminance table scaled by the usual quality-factor rule.

    Q=50 returns the base table, Q=100 all ones; entries are clamped to
    [1, 255].
    """
    if not 1 <= quality <= 100:
        raise ValueError(f"quality {quality} outside [1, 100]")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (scale * BASE_LUMA_QUANT + 50) // 100
    return np.clip(q, 1, 255).astype(np.int64)


def _round_half_away(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to the nearest integer, ties away from zero.

    With ``out`` (an array other than ``v``) the result is written there
    and no temporary is made.
    """
    out = np.copysign(0.5, v, out=out)
    np.add(v, out, out=out)
    return np.trunc(out, out=out)


# The per-quality chain works on (N, 64) stacks: one row per 8x8 block,
# in raster order within the block, against (64,) tables.  Quantized
# coefficients stay integer-valued float64, exact at these magnitudes.
# Every step writes into a buffer it is given, so a sweep reuses two
# buffers for all qualities: a fresh allocation of that size per step is
# returned to the system when freed and costs its page faults again.


def _flat(blocks: np.ndarray) -> np.ndarray:
    """An (..., 8, 8) stack as a C-ordered (N, 64) one (a view if it already is)."""
    return np.ascontiguousarray(blocks).reshape(-1, 64)


def _step(q: np.ndarray) -> np.ndarray:
    """A quantizer table as a (64,) float64 row."""
    return np.asarray(q, dtype=np.float64).reshape(64)


def _divisor(engine: DctEngine, step: np.ndarray) -> np.ndarray:
    """The (64,) quantizer divisor for the engine's coefficients."""
    if engine.fold_into_quantizer:
        # Transform skipped its per-output scales; divide them into the
        # quantizer steps (separable, so the 2-D factor is an outer product).
        ps = engine.post_scales
        return step / np.outer(ps, ps).reshape(64)
    return step


def _quantize(coefs: np.ndarray, divisor: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Levels of an (N, 64) coefficient stack, rounded half away from zero,
    into ``out``; the quotient goes through ``scratch``."""
    return _round_half_away(np.divide(coefs, divisor, out=scratch), out=out)


def _decode(levels: np.ndarray, step: np.ndarray, out=None) -> np.ndarray:
    """Dequantize a C-ordered (N, 64) level stack, exact inverse transform,
    de-level-shift, round and clamp to [0, 255]: integer-valued pixels in
    ``out``.  ``levels`` is overwritten with the inverse's row pass."""
    coefs = np.multiply(levels, step, out=out).reshape(-1, 8, 8)
    # idct2d_oracle's two products, into the two buffers.
    rows = np.matmul(DCT_MATRIX.T, coefs, out=levels.reshape(-1, 8, 8))
    pixels = np.matmul(rows, DCT_MATRIX, out=coefs).reshape(-1, 64)
    np.add(pixels, 128.0, out=pixels)
    # Round half away from zero, then clamp.  At or above zero that is
    # floor(v + 0.5), the same addition; below zero both clamp to 0.
    np.add(pixels, 0.5, out=pixels)
    return np.clip(np.floor(pixels, out=pixels), 0.0, 255.0, out=pixels)


def encode_block(block, engine: DctEngine, q: np.ndarray) -> np.ndarray:
    """Level-shift, transform, quantize one 8x8 pixel block (or an
    (..., 8, 8) stack of them) -> int coefs."""
    coefs = dct2d(np.asarray(block, dtype=np.float64) - 128.0, engine)
    levels = _quantize(_flat(coefs), _divisor(engine, _step(q)))
    return levels.astype(np.int64).reshape(coefs.shape)


def decode_block(coefs, q: np.ndarray) -> np.ndarray:
    """Dequantize, exact inverse transform, de-level-shift, clamp to [0, 255].

    Works on one 8x8 block of coefficients or an (..., 8, 8) stack.
    """
    levels = _as_blocks(coefs)
    flat = np.array(levels, order="C").reshape(-1, 64)  # a copy: _decode overwrites it
    return _decode(flat, _step(q)).astype(np.int64).reshape(levels.shape)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"image sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.samples.astype(np.float64) - b.samples.astype(np.float64)
    return _psnr_db(diff.reshape(-1))


def _psnr_db(diff: np.ndarray, count: int | None = None) -> float:
    """PSNR of a flat array of 8-bit sample differences, over ``count``
    samples (default: all of them).

    Every squared difference is an integer <= 255**2, so the sum is exact
    in any order below 2**53 and equals the one ``np.mean`` would take.
    """
    mse = float(np.dot(diff, diff)) / (diff.size if count is None else count)
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


def _to_blocks(samples: np.ndarray) -> np.ndarray:
    """Edge-pad to whole blocks; an (N, 8, 8) float stack in raster block order."""
    return _blocks_of(_pad_to_blocks(samples)).astype(np.float64)


def _padding_index(img: GrayImage) -> np.ndarray:
    """Flat indices of the edge padding in the (N, 64) block stack of ``img``."""
    padding = np.ones((-(-img.height // 8) * 8, -(-img.width // 8) * 8), dtype=bool)
    padding[: img.height, : img.width] = False
    return np.flatnonzero(_blocks_of(padding))


def _stack_psnr(decoded: np.ndarray, pixels: np.ndarray, padding: np.ndarray,
                scratch: np.ndarray) -> float:
    """PSNR of a decoded (N, 64) pixel stack against the original one,
    over the image's samples only: the differences at the flat indices
    ``padding`` are zeroed, and the mean is over the rest."""
    diff = np.subtract(decoded, pixels, out=scratch).reshape(-1)
    diff[padding] = 0.0
    return _psnr_db(diff, diff.size - padding.size)


def _from_blocks(blocks: np.ndarray, like: GrayImage) -> GrayImage:
    """Inverse of :func:`_to_blocks` for pixel blocks; crops the padding."""
    bh, bw = -(-like.height // 8), -(-like.width // 8)
    padded = blocks.reshape(bh, bw, 8, 8).swapaxes(1, 2).reshape(bh * 8, bw * 8)
    cropped = padded[: like.height, : like.width].astype(np.uint8)
    return GrayImage(width=like.width, height=like.height, samples=cropped)


def roundtrip_image(img: GrayImage, engine: DctEngine, quality: int) -> GrayImage:
    """Encode and decode every 8x8 block; crop away the replication padding."""
    step = _step(quant_table_for_quality(quality))
    coefs = dct2d(_to_blocks(img.samples) - 128.0, engine)
    return _from_blocks(_decode(_quantize(_flat(coefs), _divisor(engine, step)), step), img)


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


def _mean_coef_error(coefs: np.ndarray, oracle: np.ndarray, engine: DctEngine,
                     scratch: np.ndarray) -> float:
    """Mean |cordic - oracle| discrepancy of the forward coefficients
    ``coefs`` of a level-shifted block stack, from ``dct2d`` with
    ``engine``, and its exact transform ``oracle``; all three (N, 64)."""
    if engine.fold_into_quantizer:
        ps = engine.post_scales
        coefs = np.multiply(coefs, np.outer(ps, ps).reshape(64), out=scratch)
    per_block = np.abs(np.subtract(coefs, oracle, out=scratch), out=scratch).sum(axis=1)
    # Block sums added one after another in raster order (cumsum, not a
    # pairwise sum), so the total's last bits are those of a block loop.
    return float(np.cumsum(per_block)[-1]) / (64 * len(per_block))


def sweep(
    img: GrayImage,
    epsilons,
    qualities,
    policy: IndexPolicy = IndexPolicy.NEAREST,
    mode: ArithmeticMode | None = None,
    fold_into_quantizer: bool = False,
) -> PsnrReport:
    """Round-trip the image for every (epsilon, quality) pair.

    The image is cut into an (N, 8, 8) block stack, and the stack's exact
    oracle transform taken, once; per epsilon the forward transform runs
    once over the whole stack and every quality quantizes and decodes
    those same coefficients, in two buffers that every quality reuses.
    PSNR is taken on the decoded block stack against the original blocks,
    with the edge padding masked out; the decoded image is never
    assembled.  A row's ``saturations`` is the saturation count of that
    one forward pass.

    Rows come out sorted by epsilon then quality (descending quality, the
    high-to-low presentation order) and the whole computation is
    deterministic for fixed inputs.
    """
    pixels = _flat(_to_blocks(img.samples))
    blocks = (pixels - 128.0).reshape(-1, 8, 8)
    oracle = _flat(dct2d_oracle(blocks))
    padding = _padding_index(img)
    qualities = sorted(qualities, reverse=True)
    steps = {quality: _step(quant_table_for_quality(quality)) for quality in qualities}
    levels = decoded = None
    rows = []
    for eps in sorted(epsilons):
        counter = OpCounter()
        eng_mode = mode
        if mode is not None and mode.is_fixed:
            eng_mode = ArithmeticMode(mode.fmt, mode.overflow, counter)
        engine = DctEngine(
            epsilon=eps,
            policy=policy,
            mode=eng_mode,
            fold_into_quantizer=fold_into_quantizer,
        )
        coefs = _flat(dct2d(blocks, engine))
        if levels is None:
            # Taken after the first transform, so they sit above the space
            # its temporaries freed and the next transform reuses that
            # space; below it, the freed top of the heap goes back to the
            # system and every transform pays its page faults again.
            levels, decoded = np.empty_like(coefs), np.empty_like(coefs)
        coef_err = _mean_coef_error(coefs, oracle, engine, levels)
        for quality in qualities:
            step = steps[quality]
            _quantize(coefs, _divisor(engine, step), out=levels, scratch=decoded)
            _decode(levels, step, out=decoded)
            rows.append(
                PsnrRow(
                    epsilon=eps,
                    quality=quality,
                    psnr_db=_stack_psnr(decoded, pixels, padding, levels),
                    mean_abs_coef_err=coef_err,
                    saturations=counter.saturations,
                )
            )
    return PsnrReport(rows=tuple(rows))
