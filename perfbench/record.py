"""Regenerate ``expected.json``, the committed outputs every run is checked
against.

    python3 perfbench/record.py

Run it only when the simulator's virtual-time outputs are meant to change,
and say why in the commit.  It runs every workload once per committed seed
(about two minutes on a 2-core machine).
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> int:
    expected: dict = {}
    with run.scratch_dir("record-") as workdir:
        for name, cls in workloads.WORKLOADS.items():
            seeds = workloads.SEEDS if cls.uses_seed else (None,)
            for seed in seeds:
                prints = run.spawn(name, seed, workdir, "--record")["fingerprints"]
                if seed is None:
                    expected[name] = prints
                else:
                    expected.setdefault(name, {})[str(seed)] = prints
                print(f"recorded {name} seed {seed}", flush=True)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
