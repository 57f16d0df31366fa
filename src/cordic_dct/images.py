"""Deterministic synthetic grayscale test images for the codec harness.

The bytes are a contract: the benchmark's goldens and the sweep digests
are computed from these images, and tests pin the sha256 of each
generator's samples.  So every pixel comes from the same binary64
operations in the same order whatever the layout: the index grids are 1-D
axes broadcast against each other, ``zone_plate`` evaluates one quadrant
and mirrors it, and the texture's blurs run through slices of two reused
buffers.  Only ``np.round`` (half to even) rounds a value.
"""

from __future__ import annotations

import numpy as np

from .codec import GrayImage


def _to_bytes(v: np.ndarray) -> np.ndarray:
    """``v``, with values in [0, 1], scaled to [0, 255] and rounded in place,
    as uint8 samples."""
    v *= 255.0
    return np.round(v, out=v).astype(np.uint8)


def gradient_image(width: int = 512, height: int = 512) -> GrayImage:
    """Smooth diagonal ramp, 0 at one corner to 255 at the opposite one."""
    x = np.arange(width, dtype=np.float64) / max(width - 1, 1)
    y = np.arange(height, dtype=np.float64) / max(height - 1, 1)
    ramp = np.add(x, y[:, None])
    ramp /= 2.0
    return GrayImage.from_array(_to_bytes(ramp))


def zone_plate(size: int = 512) -> GrayImage:
    """Circular chirp pattern sweeping from low to high spatial frequency.

    ``r2`` is symmetric under each mirror, since ``i - c`` and ``(size - 1 -
    i) - c`` are exact opposites, so one quadrant of ``cos`` gives every
    pixel."""
    half = (size + 1) // 2
    c = (size - 1) / 2.0
    d = np.arange(half, dtype=np.float64) - c
    d *= d
    v = np.add(d, d[:, None])  # r2: the column term, then the row term
    v *= np.pi
    v /= size
    np.cos(v, out=v)
    v += 1.0
    v *= 0.5
    quadrant = _to_bytes(v)
    out = np.empty((size, size), dtype=np.uint8)
    mirrored = size - half
    out[:half, :half] = quadrant
    out[:half, half:] = quadrant[:, :mirrored][:, ::-1]
    out[half:] = out[:mirrored][::-1]
    return GrayImage.from_array(out)


def _blur(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """``dst = (src + src shifted by +1 + src shifted by -1) / 3.0`` along
    ``axis``, wrapping around, added left to right as written."""
    s, d = np.moveaxis(src, axis, 0), np.moveaxis(dst, axis, 0)
    np.add(s[1:], s[:-1], out=d[1:])
    np.add(s[0], s[-1], out=d[0])
    d[:-1] += s[1:]
    d[-1] += s[0]
    dst /= 3.0


def seeded_texture(size: int = 512, seed: int = 7) -> GrayImage:
    """Band-limited pseudo-random texture; same seed, same pixels.

    A flat field maps to 0: ``size`` 1, and ``size`` 3, where each wrapping
    blur averages a whole row or column."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.0, 1.0, size=(size, size))
    blurred = np.empty_like(noise)
    # a few separable box-blur passes tame the spectrum without scipy
    for _ in range(3):
        _blur(noise, blurred, 0)
        _blur(blurred, noise, 1)
    lo, hi = noise.min(), noise.max()
    noise -= lo
    noise /= (hi - lo) or 1.0
    return GrayImage.from_array(_to_bytes(noise))


def photo_proxy(size: int = 512, seed: int = 7) -> GrayImage:
    """Photograph stand-in: ramp + rings + texture, deterministic.

    Mixes low-frequency shading, mid-frequency structure and fine texture
    so quantization quality factors separate cleanly in PSNR:
    ``0.55 ramp + 0.25 rings + 0.20 grain``, added left to right.
    """
    v = np.multiply(gradient_image(size, size).samples, 0.55, dtype=np.float64)
    term = np.multiply(zone_plate(size).samples, 0.25, dtype=np.float64)
    v += term
    np.multiply(seeded_texture(size, seed).samples, 0.20, out=term, dtype=np.float64)
    v += term
    np.clip(v, 0, 255, out=v)
    return GrayImage.from_array(np.round(v, out=v).astype(np.uint8))
