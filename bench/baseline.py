"""Repeat the benchmark over seeds and summarise it against BENCHMARK.json.

    python3 bench/baseline.py --seeds 10 [--workloads oracle,reduce] \
        [--trace-seed 1] [--out bench/BENCH_baseline.json]

Runs ``bench/run.py`` once per workload and seed (seeds 1..N, one process at
a time), then prints, for each end-to-end metric, the median, the quartiles
and the quartile spread as a share of the median, next to the metric's
bound.  With ``--trace-seed`` it adds one traced run per workload.  The
kernel rows take the same fixed inputs in every traced run, so they are
summarised once, over all the traced runs.  With ``--out`` it writes the
summary, the per-layer values and the machine record to a JSON file, which
is how ``BENCH_baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    elapsed = time.perf_counter() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / "bench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "report": report, "elapsed_s": elapsed}


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    kernels: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"], 0)
                for s in range(1, args.seeds + 1)]
        row = {"failed": sum(r["result"]["failed"] for r in runs),
               "attempted": sum(r["result"]["attempted"] for r in runs),
               "digests": [r["report"]["digest"] for r in runs],
               "tail_percentiles": sorted({r["report"]["tail_percentile"] for r in runs}),
               "rounds": [r["report"]["rounds"] for r in runs],
               "run_wall_s": [r["elapsed_s"] for r in runs],
               "machine": runs[0]["report"]["machine"], "end_to_end": {}}
        print(f"{workload}: {row['attempted']} jobs, {row['failed']} failed, "
              f"rounds {row['rounds']}, longest run {max(row['run_wall_s']):.1f} s")
        for name, bound in bounds.items():
            st = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            st["bound"] = bound
            row["end_to_end"][name] = st
            ok = st["spread"] < bound / 3
            steady &= ok
            print(f"  {name:14s} median {st['median']:12.6g}  q1 {st['q1']:12.6g}  "
                  f"q3 {st['q3']:12.6g}  spread {st['spread']:.4f}  bound {bound}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            row["per_layer"] = {}
            for k, m in traced["result"]["metrics"].items():
                if m["unit"] in ("us", "ms"):     # the kernel rows
                    kernels.setdefault(k, []).append(m["value"])
                else:
                    row["per_layer"][k] = m["value"]
            row["failed"] += traced["result"]["failed"]
            row["traced_run_wall_s"] = traced["elapsed_s"]
        summary["workloads"][workload] = row
    if len(next(iter(kernels.values()), [])) > 1:
        summary["kernel_rows"] = {k: summarise(v) for k, v in kernels.items()}
        print("kernel rows, over the traced runs:")
        for k, st in summary["kernel_rows"].items():
            print(f"  {k:28s} median {st['median']:12.6g}  spread {st['spread']:.4f}")
    elif kernels:
        summary["kernel_rows"] = {k: {"values": v} for k, v in kernels.items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "not steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
