"""Summarise the run records in perfbench/out/ as a baseline.

    python3 perfbench/baseline.py > perfbench/BASELINE.json

For each workload: every end-to-end metric's median, quartiles and spread
(the distance between the quartiles over the median) across the untraced
runs, the medians of the figures named after the workload, the determinism
digest of every seed, and the per-layer metrics of each traced run.
"""

import glob
import json
import os
import statistics
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    records = [json.load(open(p)) for p in sorted(glob.glob(os.path.join(OUT, "*.json")))]
    if not records:
        print(f"error: no run records in {OUT}", file=sys.stderr)
        return 1
    out = {}
    for rec in records:
        w = out.setdefault(rec["args"]["workload"], {"runs": 0, "seconds": rec["args"]["seconds"],
                                                     "machine": rec["machine"], "metrics": {},
                                                     "named": {}, "digests": {}, "failed": 0,
                                                     "traced": {}})
        seed = str(rec["args"]["seed"])
        if rec["args"]["trace"]:
            w["traced"][seed] = {k: m["value"] for k, m in rec["metrics"].items()}
            continue
        w["runs"] += 1
        w["failed"] += rec["failed"]
        w["digests"][seed] = rec["digest"]
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name, (value, unit) in rec["named"].items():
            w["named"].setdefault(name, {"unit": unit, "values": []})["values"].append(value)
    for w in out.values():
        for group in (w["metrics"], w["named"]):
            for m in group.values():
                m.update(summary(m["values"]))
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
