"""``scripts/codec_stages.py`` loaded as a module, its in-process sections
run once each on the 128x128 image: a renamed codec or kernel internal it
times fails here, not only in the script's own run.

The perfbench workloads' ops, each in a fresh process, stay with
``python scripts/codec_stages.py``.
"""

import importlib.util
from pathlib import Path

from cordic_dct import dct8
from cordic_dct.images import photo_proxy

ROOT = Path(__file__).resolve().parents[1]


def test_in_process_sections_run(monkeypatch):
    spec = importlib.util.spec_from_file_location("codec_stages",
                                                  ROOT / "scripts" / "codec_stages.py")
    codec_stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(codec_stages)
    monkeypatch.setattr(codec_stages, "REPEAT", 1)
    monkeypatch.setattr(codec_stages, "CALLS", 1)
    monkeypatch.setattr(dct8, "_PLAN_SETS", {})  # the construction rows clear it
    img = photo_proxy(128)
    stages = codec_stages.tile_stages(img)
    assert [name for name, _, _ in stages][:4] == [
        "planes and level shift", "oracle dct2d", "forward dct2d on planes", "signed halves"]
    assert len(codec_stages.fixed_tile_rows(img)) == 8  # 2 words, compensations and epsilons
    assert len(codec_stages.per_call_rows(img)) == 4
    assert len(codec_stages.construction_rows(img)) == 6
