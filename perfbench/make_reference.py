"""Record the reference rows the sweep workloads are checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves every sweep point once and writes perfbench/reference.json with each
row as the CSV strings `emit_results` writes.  The committed file was
recorded at the commit that added the benchmark; re-record it only when a
change is meant to alter the numbers.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from uavmec import runner, scenario  # noqa: E402


def main() -> int:
    out_dir = os.path.join(workloads.HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "reference.csv")
    ref = {"columns": list(runner.COLUMNS)}
    for cls in (workloads.TrendSweep, workloads.GeometrySweep):
        base = scenario.validate(scenario.ScenarioConfig(**cls.overrides))
        rows = {}
        for point in cls.points:
            workloads.solve_point(base, point, cls.include_baseline, path)
            rows[workloads.point_key(*point)] = workloads.read_csv_rows(path)
            print(cls.name, workloads.point_key(*point), flush=True)
        ref[cls.name] = rows
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
