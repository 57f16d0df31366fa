"""Write the golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Writes, at the default seed, the exact ``to_csv()`` text of every sweep
configuration and ``DctEngine.operation_counts()`` for both compensation
modes at each eps into perfbench/golden/.  The stored files pin the
output of the commit that made them: a change that claims to keep the
output the same must not regenerate them.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from cordic_dct.pgm import write_pgm  # noqa: E402


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    api = layers.api()
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    for make in (workloads.sweep_float, workloads.sweep_fixed):
        wl = make(workloads.DEFAULT_SEED, scratch)
        write_pgm(api.photo_proxy(wl.size, wl.seed), wl.pgm_path)
        for cfg in wl.configs:
            wl.golden_path(cfg).write_text(wl.run_sweep(cfg, api))
            print(f"wrote {wl.golden_path(cfg)}")
    workloads.OP_COUNTS_GOLDEN.write_text(
        workloads.op_counts_to_json(workloads.op_count_table(api)))
    print(f"wrote {workloads.OP_COUNTS_GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
