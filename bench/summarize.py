"""Summarize benchmark result files: median, quartiles and spread per metric.

    python3 bench/summarize.py [--results DIR] [--append LABEL]

Reads the --trace 0 result files that run.py wrote (bench/out/results/ by
default) and prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json.  With --append, the summary,
with the per-layer metrics of the --trace 1 result files, is added as one
entry of bench/trajectory.json under LABEL.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(records, bounds):
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                          "spread": (q3 - q1) / med, "bound": bound,
                          "unit": runs[0]["metrics"][name]["unit"]}
        out[workload] = {
            "runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "digests": sorted({"%d:%s" % (r["seed"], r["output_digest"]) for r in runs}),
            "metrics": rows,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", default=str(HERE / "out" / "results"))
    ap.add_argument("--append", metavar="LABEL")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(p.read_text("utf-8"))
               for p in sorted(Path(args.results).glob("*-t0.json"))]
    if not records:
        sys.exit("no result files in %s" % args.results)
    summary = summarize(records, bounds)
    worst = 0.0
    for workload, s in summary.items():
        print("%s: %d runs, %d failed of %d attempted" % (workload, s["runs"], s["failed"],
                                                        s["attempted"]))
        for name, row in s["metrics"].items():
            flag = ""
            if name != "setup_s":
                worst = max(worst, row["spread"] / row["bound"])
                flag = "  WIDE" if row["spread"] > row["bound"] / 3 else ""
            print("  %-20s median %12.5g %-10s spread %6.3f  bound %.2f%s" % (
                name, row["median"], row["unit"], row["spread"], row["bound"], flag))
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    if args.append:
        env = records[0]["env"]
        traced = {}
        for p in sorted(Path(args.results).glob("*-t1.json")):
            r = json.loads(p.read_text("utf-8"))
            traced[r["workload"]] = {"seed": r["seed"], "output_digest": r["output_digest"],
                                     "metrics": r["metrics"]}
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text("utf-8")) if path.exists() else []
        trajectory.append({"label": args.append, "env": env, "workloads": summary,
                           "traced": traced})
        path.write_text(json.dumps(trajectory, indent=1, ensure_ascii=False) + "\n", "utf-8")


if __name__ == "__main__":
    main()
