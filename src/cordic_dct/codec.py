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

from .dct8 import DctEngine, dct2d, dct2d_oracle, idct2d_oracle
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


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.trunc(v + np.copysign(0.5, v))


def encode_block(block, engine: DctEngine, q: np.ndarray) -> np.ndarray:
    """Level-shift, transform, quantize one 8x8 pixel block (or an
    (..., 8, 8) stack of them) -> int coefs."""
    coefs = dct2d(np.asarray(block, dtype=np.float64) - 128.0, engine)
    return _quantize(coefs, engine, q)


def _quantize(coefs: np.ndarray, engine: DctEngine, q: np.ndarray) -> np.ndarray:
    divisor = q.astype(np.float64)
    if engine.fold_into_quantizer:
        # Transform skipped its per-output scales; divide them into the
        # quantizer steps (separable, so the 2-D factor is an outer product).
        ps = engine.post_scales
        divisor = divisor / np.outer(ps, ps)
    return _round_half_away(coefs / divisor).astype(np.int64)


def decode_block(coefs, q: np.ndarray) -> np.ndarray:
    """Dequantize, exact inverse transform, de-level-shift, clamp to [0, 255].

    Works on one 8x8 block of coefficients or an (..., 8, 8) stack.
    """
    c = np.asarray(coefs, dtype=np.float64) * q.astype(np.float64)
    pixels = idct2d_oracle(c) + 128.0
    return np.clip(_round_half_away(pixels), 0, 255).astype(np.int64)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"image sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.samples.astype(np.float64) - b.samples.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _pad_to_blocks(samples: np.ndarray) -> np.ndarray:
    h, w = samples.shape
    return np.pad(samples, ((0, -h % 8), (0, -w % 8)), mode="edge")


def _to_blocks(samples: np.ndarray) -> np.ndarray:
    """Edge-pad to whole blocks; an (N, 8, 8) float stack in raster block order."""
    padded = _pad_to_blocks(samples).astype(np.float64)
    ph, pw = padded.shape
    return padded.reshape(ph // 8, 8, pw // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)


def _from_blocks(blocks: np.ndarray, like: GrayImage) -> GrayImage:
    """Inverse of :func:`_to_blocks` for pixel blocks; crops the padding."""
    bh, bw = -(-like.height // 8), -(-like.width // 8)
    padded = blocks.reshape(bh, bw, 8, 8).swapaxes(1, 2).reshape(bh * 8, bw * 8)
    cropped = padded[: like.height, : like.width].astype(np.uint8)
    return GrayImage(width=like.width, height=like.height, samples=cropped)


def roundtrip_image(img: GrayImage, engine: DctEngine, quality: int) -> GrayImage:
    """Encode and decode every 8x8 block; crop away the replication padding."""
    q = quant_table_for_quality(quality)
    return _from_blocks(decode_block(encode_block(_to_blocks(img.samples), engine, q), q), img)


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


def _mean_coef_error(blocks: np.ndarray, coefs: np.ndarray, engine: DctEngine) -> float:
    """Mean |cordic - oracle| discrepancy of the forward coefficients
    ``coefs = dct2d(blocks, engine)`` of a level-shifted block stack."""
    if engine.fold_into_quantizer:
        coefs = coefs * np.outer(engine.post_scales, engine.post_scales)
    per_block = np.abs(coefs - dct2d_oracle(blocks)).reshape(-1, 64).sum(axis=1)
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

    The image is cut into an (N, 8, 8) block stack once; per epsilon the
    forward transform runs once over the whole stack and every quality
    quantizes and decodes those same coefficients.  A row's
    ``saturations`` is the saturation count of that one forward pass.

    Rows come out sorted by epsilon then quality (descending quality, the
    high-to-low presentation order) and the whole computation is
    deterministic for fixed inputs.
    """
    blocks = _to_blocks(img.samples) - 128.0
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
        coefs = dct2d(blocks, engine)
        coef_err = _mean_coef_error(blocks, coefs, engine)
        for quality in sorted(qualities, reverse=True):
            q = quant_table_for_quality(quality)
            decoded = _from_blocks(decode_block(_quantize(coefs, engine, q), q), img)
            rows.append(
                PsnrRow(
                    epsilon=eps,
                    quality=quality,
                    psnr_db=psnr(img, decoded),
                    mean_abs_coef_err=coef_err,
                    saturations=counter.saturations,
                )
            )
    return PsnrReport(rows=tuple(rows))
