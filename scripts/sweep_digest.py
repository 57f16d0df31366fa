#!/usr/bin/env python3
"""SHA-256 digests of every codec output, for byte-identity checks.

Usage:
    PYTHONPATH=src python scripts/sweep_digest.py > digests.txt

Prints one line per case: ``<sha256> <arithmetic> <image> <output>``.
The arithmetics are float, saturating 24.8 and 16.5 fixed point, each
with the post-scales applied and folded into the quantizer, plus the
LITERAL index policy in float.  The images are photo-like ones of
128x128, 200x200, 264x264 and 1024x1024, crops of 131x77 and 257x260,
uniform noise of 9x3 and 8x8200 and a flat 24x16 (every size is
height x width).  Each case covers three epsilons and seven qualities:

* ``sweep``: the ``to_json()`` report;
* ``dct2d``: the forward transform of the level-shifted block stack per
  epsilon, and its operation counts: in fixed point the cost model's adds
  and shifts over 16 rows per block and the saturations the transform
  returns, and in float all zero;
* ``roundtrip``: the ``roundtrip_image`` samples per epsilon and quality;
* ``blocks``: ``encode_block`` of the pixel block stack and
  ``decode_block`` of those levels, per epsilon and quality.

A performance change that must keep the output byte-identical runs this
on the parent and on the change and compares the two files with ``cmp``.
The saturation count comes from ``dct8._dct2d_planes``, so on a checkout
whose transform does not return one, run that checkout's own copy of the
script: it prints the same lines.
"""

import hashlib

import numpy as np

from cordic_dct.codec import (
    GrayImage,
    decode_block,
    encode_block,
    quant_table_for_quality,
    roundtrip_image,
    sweep,
)
from cordic_dct.dct8 import DctEngine, _dct2d_planes, _planes, dct2d
from cordic_dct.fixedpoint import ArithmeticMode, OverflowPolicy
from cordic_dct.images import photo_proxy
from cordic_dct.planner import IndexPolicy

EPSILONS = (1e-3, 1e-4, 1e-6)
QUALITIES = (100, 95, 90, 75, 50, 25, 5)

# name -> (word format or None for float, fold_into_quantizer, index policy)
ARITHMETICS = {
    "float": (None, False, IndexPolicy.NEAREST),
    "float-fold": (None, True, IndexPolicy.NEAREST),
    "q24_8": ((24, 8), False, IndexPolicy.NEAREST),
    "q24_8-fold": ((24, 8), True, IndexPolicy.NEAREST),
    "q16_5": ((16, 5), False, IndexPolicy.NEAREST),
    "q16_5-fold": ((16, 5), True, IndexPolicy.NEAREST),
    "float-literal": (None, False, IndexPolicy.LITERAL),
}


def _noise(height: int, width: int, seed: int) -> GrayImage:
    rng = np.random.default_rng(seed)
    return GrayImage.from_array(rng.integers(0, 256, size=(height, width), dtype=np.uint8))


def _crop(height: int, width: int) -> GrayImage:
    samples = photo_proxy(max(height, width)).samples[:height, :width]
    return GrayImage.from_array(np.ascontiguousarray(samples))


def images() -> dict:
    return {
        "photo128": photo_proxy(128),
        "photo200": photo_proxy(200),
        "crop131x77": _crop(131, 77),
        "noise9x3": _noise(9, 3, 1),
        "flat24x16": GrayImage.from_array(np.full((24, 16), 128, dtype=np.uint8)),
        "photo264": photo_proxy(264),
        "crop257x260": _crop(257, 260),
        "noise8x8200": _noise(8, 8200, 2),
        "photo1024": photo_proxy(1024),
    }


def _mode(bits):
    if bits is None:
        return None
    return ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)


def _forward_counts(engine: DctEngine, blocks: np.ndarray) -> bytes:
    """The operation counts of one ``dct2d`` of ``blocks``: 16 transform
    rows per block at the cost model's adds and shifts, and the values it
    clipped; all zero in float, whose transform runs no shift-add."""
    counts = {"adds": 0, "shifts": 0, "multiplies": 0, "saturations": 0}
    if engine.mode.is_fixed:
        rows = 16 * len(blocks)
        model = engine.operation_counts()
        _, saturations = _dct2d_planes(engine, _planes(blocks))
        counts.update(adds=rows * model["adds"], shifts=rows * model["shifts"],
                      saturations=saturations)
    return repr(sorted(counts.items())).encode()


def _blocks(img: GrayImage) -> np.ndarray:
    """The edge-padded image as an (n, 8, 8) float64 block stack in raster order."""
    h, w = img.height, img.width
    padded = np.pad(img.samples, ((0, -h % 8), (0, -w % 8)), mode="edge")
    ph, pw = padded.shape
    stack = padded.reshape(ph // 8, 8, pw // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)
    return stack.astype(np.float64)


def digests(name: str, img: GrayImage):
    """``(output, sha256)`` of each output of one case."""
    bits, fold, policy = ARITHMETICS[name]
    report = sweep(img, EPSILONS, QUALITIES, policy=policy, mode=_mode(bits),
                   fold_into_quantizer=fold)
    yield "sweep", hashlib.sha256(report.to_json().encode()).hexdigest()

    blocks = _blocks(img)
    shifted = blocks - 128.0
    forward, roundtrip, codec = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for eps in EPSILONS:
        engine = DctEngine(eps, policy, _mode(bits), fold_into_quantizer=fold)
        forward.update(np.ascontiguousarray(dct2d(shifted, engine)).tobytes())
        forward.update(_forward_counts(engine, shifted))
        for quality in QUALITIES:
            q = quant_table_for_quality(quality)
            roundtrip.update(roundtrip_image(img, engine, quality).samples.tobytes())
            levels = encode_block(blocks, engine, q)
            codec.update(levels.tobytes())
            codec.update(decode_block(levels, q).tobytes())
    yield "dct2d", forward.hexdigest()
    yield "roundtrip", roundtrip.hexdigest()
    yield "blocks", codec.hexdigest()


def main():
    for image_name, img in images().items():
        for name in ARITHMETICS:
            for output, digest in digests(name, img):
                print(f"{digest} {name} {image_name} {output}", flush=True)


if __name__ == "__main__":
    main()
