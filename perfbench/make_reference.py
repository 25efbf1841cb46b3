"""Regenerate reference/presets.json, the tables the presets workload must reproduce.

Run from the repository root after a change that is meant to alter the
preset tables, and say so in the change:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import os
import tempfile

from workloads import PRESETS, REFERENCE_PATH, _quiet_cli

# Cells that are not byte-identical must agree within atol + rtol * |ref|:
# loose enough for a documented last-digit change, far tighter than any
# shape error the tables report.
RTOL, ATOL = 1e-6, 1e-9


def main() -> None:
    tables = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCE_PATH)) as tmp:
        for name in PRESETS:
            out = os.path.join(tmp, name)
            if _quiet_cli(["run", "--experiment", name, "--out", out]) != 0:
                raise SystemExit(f"{name} failed")
            with open(os.path.join(out, f"{name}_results.csv"), newline="", encoding="utf-8") as fh:
                tables[name] = fh.read()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"rtol": RTOL, "atol": ATOL, "tables": tables}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
