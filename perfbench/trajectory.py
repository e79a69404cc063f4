"""Run the benchmark over several seeds and record one BENCH point.

For each workload, runs ``run.py`` once per seed (``--trace 0``), one run
at a time, and reports for every end-to-end metric the median, the
quartiles and the spread (interquartile distance over the median) next to
the metric's bound in BENCHMARK.json.  With ``--out`` the summary, with the
provenance of the first run, is written as JSON.  Run from the repository
root:

    python3 perfbench/trajectory.py --seeds 1-10 --out perfbench/BENCH_<label>.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))
                            .split(" ", 1)[1])
    return json.loads(lines[-1]), provenance


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seed_list(args.seeds), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        correct, failed, provenance = True, 0, None
        for seed in summary["seeds"]:
            result, prov = run_once(workload, seed, args.seconds)
            provenance = provenance or prov
            correct = correct and result["correct"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"{workload}: correct={correct} failed={failed}")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print(f"  {name:12s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  bound {bounds[name]:.0%}")
            print("    " + " ".join(f"{v:.5g}" for v in vals))
        provenance.pop("seed")
        summary["workloads"][workload] = {"correct": correct, "failed": failed,
                                          "metrics": rows, "provenance": provenance}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
