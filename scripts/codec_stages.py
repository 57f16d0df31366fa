#!/usr/bin/env python3
"""Per-stage times of one codec sweep epsilon, in milliseconds.

Usage:
    PYTHONPATH=src python scripts/codec_stages.py

Times each stage that ``codec.sweep`` runs for one epsilon (1e-4, exact
float) on the bundled 512x512 ``photo_proxy`` image, through the same
helpers ``sweep`` calls, and prints the minimum of 5 runs per stage:
blocking and the oracle transform (once per sweep), the forward
``dct2d`` and the coefficient error (once per epsilon), and quantize,
decode and PSNR per quality.  The last line times the whole ``sweep``
call for that one epsilon and five qualities.
"""

import time

import numpy as np

from cordic_dct import codec
from cordic_dct.dct8 import DctEngine, dct2d, dct2d_oracle
from cordic_dct.images import photo_proxy

EPSILON = 1e-4
QUALITIES = (95, 90, 85, 80, 75)
REPEAT = 5


def best_ms(fn, setup=None) -> float:
    """Minimum wall time of ``REPEAT`` calls of ``fn``, in ms; ``setup``,
    if given, runs untimed before each call."""
    times = []
    for _ in range(REPEAT):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main():
    img = photo_proxy(512)
    engine = DctEngine(epsilon=EPSILON)

    def blocking():
        pixels = codec._flat(codec._to_blocks(img.samples))
        return pixels, (pixels - 128.0).reshape(-1, 8, 8), codec._padding_index(img)

    pixels, blocks, padding = blocking()
    oracle = codec._flat(dct2d_oracle(blocks))
    coefs = dct2d(blocks, engine)
    flat = codec._flat(coefs)
    levels, decoded = np.empty_like(pixels), np.empty_like(pixels)

    rows = [
        ("blocking (per sweep)", best_ms(blocking)),
        ("oracle dct2d (per sweep)", best_ms(lambda: dct2d_oracle(blocks))),
        ("forward dct2d", best_ms(lambda: dct2d(blocks, engine))),
        ("coefficient stack to (N, 64)", best_ms(lambda: codec._flat(coefs))),
        ("coefficient error",
         best_ms(lambda: codec._mean_coef_error(flat, oracle, engine, levels))),
    ]
    per_quality = {"quantize": 0.0, "decode": 0.0, "psnr": 0.0}
    for quality in QUALITIES:
        step = codec._step(codec.quant_table_for_quality(quality))
        divisor = codec._divisor(engine, step)
        quantized = codec._quantize(flat, divisor)
        stages = {  # in order: each reads what the one before wrote
            "quantize": (lambda: codec._quantize(flat, divisor, out=levels, scratch=decoded),
                         None),
            # decoding overwrites the levels, so each run starts from a copy
            "decode": (lambda: codec._decode(levels, step, out=decoded),
                       lambda: np.copyto(levels, quantized)),
            "psnr": (lambda: codec._stack_psnr(decoded, pixels, padding, levels), None),
        }
        for name, (fn, setup) in stages.items():
            ms = best_ms(fn, setup)
            per_quality[name] += ms / len(QUALITIES)
            rows.append((f"Q{quality} {name}", ms))
    rows += [(f"mean {name} per quality", ms) for name, ms in per_quality.items()]
    rows.append((f"sweep, 1 eps x {len(QUALITIES)} Q",
                 best_ms(lambda: codec.sweep(img, [EPSILON], QUALITIES))))

    print(f"{img.width}x{img.height} photo_proxy, eps {EPSILON:g}, float; "
          f"min of {REPEAT} runs")
    for name, ms in rows:
        print(f"{name:<32} {ms:8.2f} ms")


if __name__ == "__main__":
    main()
