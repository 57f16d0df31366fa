"""Synthetic test images: pinned bytes and small sizes."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cordic_dct.images import gradient_image, photo_proxy, seeded_texture, zone_plate

# sha256 of ``samples.tobytes()``, generated with the generators as they were
# before they were rewritten without 2-D index grids: the rewrite keeps every
# byte.
GOLDEN = json.loads((Path(__file__).parent / "golden" / "image_sha256.json").read_text())
SIZES = (2, 7, 8, 13, 128, 255, 512, 513)
SEEDS = (0, 7, 11)


def _sha(img) -> str:
    return hashlib.sha256(img.samples.tobytes()).hexdigest()


@pytest.mark.parametrize("size", SIZES)
def test_generators_keep_their_bytes(size):
    assert _sha(gradient_image(size, size)) == GOLDEN[f"gradient_image {size}x{size}"]
    assert _sha(zone_plate(size)) == GOLDEN[f"zone_plate {size}"]
    for seed in SEEDS:
        assert _sha(seeded_texture(size, seed)) == GOLDEN[f"seeded_texture {size} seed {seed}"]
        assert _sha(photo_proxy(size, seed)) == GOLDEN[f"photo_proxy {size} seed {seed}"]


@pytest.mark.parametrize("width, height", [(1, 9), (13, 7)])
def test_gradient_keeps_its_bytes_when_not_square(width, height):
    img = gradient_image(width, height)
    assert (img.width, img.height) == (width, height)
    assert _sha(img) == GOLDEN[f"gradient_image {width}x{height}"]


def test_golden_covers_every_case():
    assert len(GOLDEN) == len(SIZES) * (2 + 2 * len(SEEDS)) + 2


@pytest.mark.parametrize("size", range(1, 10))
def test_small_sizes_warn_of_nothing(size):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        made = [gradient_image(size, size), gradient_image(size, 10 - size), zone_plate(size),
                seeded_texture(size), photo_proxy(size)]
    for img in made:
        assert img.samples.dtype == np.uint8 and img.samples.size == img.width * img.height


def test_a_flat_texture_maps_to_zero():
    # One pixel is a flat field: it has no range to stretch to [0, 255].
    assert seeded_texture(1).samples.tolist() == [[0]]
    ramp, rings = gradient_image(1, 1).samples, zone_plate(1).samples
    expected = np.round(0.55 * ramp + 0.25 * rings).astype(np.uint8)
    assert np.array_equal(photo_proxy(1).samples, expected)


def test_zone_plate_is_symmetric():
    for size in (7, 8):
        v = zone_plate(size).samples
        assert np.array_equal(v, v.T) and np.array_equal(v, v[::-1]) and np.array_equal(v, v[:, ::-1])
