#!/usr/bin/env python3
"""SHA-256 digests of every codec, transform and rotator output, for
byte-identity checks.

Usage:
    PYTHONPATH=src python scripts/sweep_digest.py > digests.txt

Prints one line per case: ``<sha256> <arithmetic> <image> <output>``.
The arithmetics are float, saturating 24.8 and 16.5 fixed point, each
with the post-scales applied and folded into the quantizer.  The images
are photo-like ones of 128x128, 200x200, 264x264 and 1024x1024, crops of
131x77 and 257x260, uniform noise of 9x3 and 8x8200 and a flat 24x16
(every size is height x width).  Each case covers three epsilons and seven qualities:

* ``sweep``: the ``to_json()`` report;
* ``dct2d``: the forward transform of the level-shifted block stack per
  epsilon, and its operation counts: in fixed point the cost model's adds
  and shifts over 16 rows per block and the saturations the transform
  returns, and in float all zero;
* ``roundtrip``: the ``roundtrip_image`` samples per epsilon and quality;
* ``blocks``: ``encode_block`` of the pixel block stack and
  ``decode_block`` of those levels, per epsilon and quality.

Then, per arithmetic, both compensations and every epsilon, on 912
sample vectors (rows of a photo-like image; sign vertices at 255, at 100
and at 3000, just under the 16.5 and 24.8 safe input bounds of about
124 and 3957, and at 40000, beyond the 24.8 word):

* ``dct8_cordic``: each vector through the single-vector transform;
* ``transform8``: the vectors as one batch, and the saturations returned;
* ``costs``: ``operation_counts()``;
* ``limits``: ``input_limit`` and ``safe_input_bound`` in each of five
  word formats.

Then 24.8 and 16.5 under ``OverflowPolicy.ERROR``, the post-scales
applied and folded, one line per compensation and epsilon: each of the
912 vectors through ``dct8_cordic``, and the vectors through
``transform8`` in batches of 8 rows.  A call digests its coefficients,
or the type and message of the error that refused it, so these lines
pin which node's error a call reports, and so the order in which the
flow graph range-checks its nodes.  They use public names only.

Last, the rotator in float and saturating 16.12: ``apply_plan`` of eight
angles at three epsilons, compensated and not, and ``micro_rotate`` by
every shift index in both directions, each on nine vectors: one beyond
the float overflow limit, one with a complex component, and one between
16.12's word limit (``overflow_limit(2**12)``, about 2.194e304) and the
float limit.  A refused call digests its error message.
These lines read ``vectors`` or ``rotator`` in place of an image name.

A performance change that must keep the output byte-identical runs this
on the parent and on the change and compares the two files with ``cmp``.
The test suite checks the ``vectors`` and ``rotator`` lines on every run
(:func:`exact_lines`); a change that moves their bytes on purpose
regenerates ``tests/golden/digest_exact.txt`` and says why.
The saturation count comes from ``dct8._dct2d_planes``, so on a checkout
whose transform does not return one, run that checkout's own copy of the
script: it prints the same lines.
"""

import hashlib
import itertools
import json
import math

import numpy as np

from cordic_dct.codec import (
    GrayImage,
    decode_block,
    encode_block,
    quant_table_for_quality,
    roundtrip_image,
    sweep,
)
from cordic_dct.dct8 import DctEngine, _dct2d_planes, _planes, dct2d, dct8_cordic, transform8
from cordic_dct.fixedpoint import ArithmeticMode, FixedPointFormat, OverflowPolicy
from cordic_dct.images import photo_proxy
from cordic_dct.planner import MicroRotation, decompose
from cordic_dct.rotator import Vector2, apply_plan, micro_rotate

EPSILONS = (1e-3, 1e-4, 1e-6)
QUALITIES = (100, 95, 90, 75, 50, 25, 5)

# name -> (word format or None for float, fold_into_quantizer)
ARITHMETICS = {
    "float": (None, False),
    "float-fold": (None, True),
    "q24_8": ((24, 8), False),
    "q24_8-fold": ((24, 8), True),
    "q16_5": ((16, 5), False),
    "q16_5-fold": ((16, 5), True),
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
    bits, fold = ARITHMETICS[name]
    report = sweep(img, EPSILONS, QUALITIES, mode=_mode(bits), fold_into_quantizer=fold)
    yield "sweep", hashlib.sha256(report.to_json().encode()).hexdigest()

    blocks = _blocks(img)
    shifted = blocks - 128.0
    forward, roundtrip, codec = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for eps in EPSILONS:
        engine = DctEngine(eps, _mode(bits), fold_into_quantizer=fold)
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


COMPENSATIONS = ("folded", "per_rotator")
BOUND_FORMATS = ((24, 8), (16, 5), (16, 12), (32, 16), (12, 3))


def vectors() -> np.ndarray:
    """912 sample vectors: 128 level-shifted rows of a photo-like image,
    the 256 sign vertices at 255, at 100 and at 3000, and every 16th of
    them at 40000."""
    rows = (photo_proxy(32).samples.astype(np.float64) - 128.0).reshape(-1, 8)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
    return np.concatenate([rows, 255.0 * signs, 100.0 * signs, 3000.0 * signs,
                           40000.0 * signs[::16]])


def engine_digests(name: str, x: np.ndarray):
    """``(output, sha256)`` of the single-vector and batch transforms and
    the engine's costs and input limits, over both compensations and every
    epsilon."""
    bits, fold = ARITHMETICS[name]
    single, batch = hashlib.sha256(), hashlib.sha256()
    costs, limits = hashlib.sha256(), hashlib.sha256()
    for compensation in COMPENSATIONS:
        for eps in EPSILONS:
            engine = DctEngine(eps, _mode(bits), compensation, fold)
            for row in x:
                single.update(dct8_cordic(row, engine).tobytes())
            coefs, saturations = transform8(engine, x)
            batch.update(coefs.tobytes())
            batch.update(repr(saturations).encode())
            costs.update(json.dumps(engine.operation_counts(), sort_keys=True).encode())
            safe = [engine.safe_input_bound(FixedPointFormat(*f)) for f in BOUND_FORMATS]
            limits.update(json.dumps([repr(engine.input_limit), safe]).encode())
    yield "dct8_cordic", single.hexdigest()
    yield "transform8", batch.hexdigest()
    yield "costs", costs.hexdigest()
    yield "limits", limits.hexdigest()


ERROR_WORDS = {"q24_8": (24, 8), "q16_5": (16, 5)}


def _coefficients(transform) -> bytes:
    """The bytes of the coefficients ``transform()`` returns, or the type
    and message of the error that refused them."""
    try:
        coefs = transform()
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return coefs.tobytes()


def error_digests(bits: tuple, fold: bool, x: np.ndarray):
    """``(output, sha256)`` per compensation and epsilon of the transforms
    of ``x`` in the word ``bits`` under ``OverflowPolicy.ERROR``."""
    mode = ArithmeticMode.fixed(*bits, OverflowPolicy.ERROR)
    for compensation in COMPENSATIONS:
        for eps in EPSILONS:
            engine = DctEngine(eps, mode, compensation, fold)
            digest = hashlib.sha256()
            for row in x:
                digest.update(_coefficients(lambda: dct8_cordic(row, engine)))
            for start in range(0, len(x), 8):
                digest.update(_coefficients(lambda: transform8(engine, x[start:start + 8])[0]))
            yield f"{compensation}/eps_{eps:g}", digest.hexdigest()


ROTATOR_ANGLES = (math.pi / 4, 3 * math.pi / 8, math.pi / 16, 3 * math.pi / 16,
                  -math.pi / 3, 0.2, -1.5, 0.0)
ROTATOR_VECTORS = (Vector2(1.0, 0.0), Vector2(0.0, 1.0), Vector2(0.3, -0.7),
                   Vector2(7.9, -8.0), Vector2(-200.0, 3.5), Vector2(1e300, -3e299),
                   Vector2(1e308, 1e308), Vector2(0.5, 1j), Vector2(-5e304, 2.0))


def _outcome(rotate) -> bytes:
    """The vector ``rotate()`` returns, or the message of the error that
    refused it."""
    try:
        out = rotate()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return repr((out.x, out.y)).encode()


def rotator_digests(mode: ArithmeticMode):
    """``(output, sha256)`` of ``apply_plan`` and ``micro_rotate`` in ``mode``."""
    plans, steps = hashlib.sha256(), hashlib.sha256()
    for theta in ROTATOR_ANGLES:
        for eps in EPSILONS:
            plan = decompose(theta, eps)
            for compensate in (False, True):
                for v in ROTATOR_VECTORS:
                    plans.update(_outcome(lambda: apply_plan(v, plan, mode, compensate)))
    for index in range(31):
        for direction in (1, -1):
            step = MicroRotation(index, direction)
            for v in ROTATOR_VECTORS:
                steps.update(_outcome(lambda: micro_rotate(v, step, mode)))
    yield "apply_plan", plans.hexdigest()
    yield "micro_rotate", steps.hexdigest()


def exact_lines():
    """The ``vectors`` and ``rotator`` lines, in print order.  Unlike the
    image lines, whose oracles and codec run BLAS GEMMs, they rest on no
    GEMM, so their bytes do not depend on the BLAS build, and
    ``tests/test_digest.py`` pins them in ``tests/golden/digest_exact.txt``."""
    x = vectors()
    for name in ARITHMETICS:
        for output, digest in engine_digests(name, x):
            yield f"{digest} {name} vectors {output}"
    for word, bits in ERROR_WORDS.items():
        for fold in (False, True):
            name = f"{word}-error" + ("-fold" if fold else "")
            for output, digest in error_digests(bits, fold, x):
                yield f"{digest} {name} vectors {output}"
    for name, mode in (("float", ArithmeticMode.exact()),
                       ("q16_12", ArithmeticMode.fixed(16, 12, OverflowPolicy.SATURATE))):
        for output, digest in rotator_digests(mode):
            yield f"{digest} {name} rotator {output}"


def main():
    for image_name, img in images().items():
        for name in ARITHMETICS:
            for output, digest in digests(name, img):
                print(f"{digest} {name} {image_name} {output}", flush=True)
    for line in exact_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
