"""The BLAS-free lines of ``scripts/sweep_digest.py``, checked byte for
byte against the checked-in ``tests/golden/digest_exact.txt``: every
arithmetic's single-vector and batch transforms, costs and input limits,
the ``ERROR`` path's refusals, and the rotator in float and 16.12.

The image lines run the oracles' and the codec's GEMMs, whose last bits
depend on the BLAS build, so they stay with the script's own ``cmp`` of
two runs.  To move these bytes on purpose, regenerate the golden with::

    PYTHONPATH=src python scripts/sweep_digest.py | tail -n 52 > tests/golden/digest_exact.txt
"""

import importlib.util
from pathlib import Path

from cordic_dct import dct8

ROOT = Path(__file__).resolve().parents[1]


def test_exact_digest_lines_match_the_golden(monkeypatch):
    spec = importlib.util.spec_from_file_location("sweep_digest",
                                                  ROOT / "scripts" / "sweep_digest.py")
    sweep_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep_digest)
    golden = (ROOT / "tests" / "golden" / "digest_exact.txt").read_text().splitlines()
    assert len(golden) == 52
    # Cold, every plan set derives its nodes and limits afresh; warm, the
    # engines read what the first run derived.  Both must give the golden.
    monkeypatch.setattr(dct8, "_PLAN_SETS", {})
    assert list(sweep_digest.exact_lines()) == golden
    assert dct8._PLAN_SETS
    assert list(sweep_digest.exact_lines()) == golden
