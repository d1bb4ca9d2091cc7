"""Alternating benchmark pairs of two commits, each run in a fresh archive.

    python3 tools/bench_pairs.py --parent REF --change REF \
        --workload oracle[,algebra,...] --seeds 1-5 --out BENCH_tag.json

Each commit is exported with ``git archive`` into its own temporary
directory, so neither side carries ``__pycache__`` or ``bench/out``, and every
run has ``PYTHONDONTWRITEBYTECODE=1`` set.  For each workload and seed the
two sides run ``bench/run.py --trace 0`` one process at a time: at odd seeds
the parent goes first, at even seeds the change.  Each run's last-line JSON,
exit code and wall time are recorded with the verdict digest of its report.
A run that does not finish (nonzero exit, or no result line) or that
finishes with ``"correct": false`` is counted per side as an unfinished or
incorrect run, and its metrics enter neither the medians nor the pairs.
The summary gives, per side, workload and end-to-end metric of the parent's
``BENCHMARK.json``, the median, the quartiles and their spread as a share of
the median; and per workload the seeds where the change beats the parent on
each metric, the median ratio change/parent, and whether the two sides'
digests agree at every seed.  Each side's median run wall time, over all its
runs, and the ratio of the two medians show what a change costs the
benchmark check in time even where no metric gets worse.  Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(ref: str, dest: Path) -> str:
    """Extract the tree of ``ref`` into ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "exit_code": proc.returncode, "wall_s": round(wall, 2),
           "result": None, "digest": None, "rounds": None, "tail_percentile": None}
    try:
        run["result"] = json.loads(lines[-1])
        report = json.loads((tree / "bench" / "out" /
                             f"{workload}-seed{seed}-trace0.json").read_text())
    except (IndexError, ValueError, OSError):
        run["stderr_tail"] = proc.stderr[-2000:]
        return run
    run.update(digest=report["digest"], rounds=report["rounds"],
               tail_percentile=report["tail_percentile"], machine=report["machine"])
    return run


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def finished(run: dict) -> bool:
    return run["exit_code"] == 0 and bool(run["result"])


def good(run: dict) -> bool:
    """A finished run whose outputs all passed their checks."""
    return finished(run) and run["result"]["correct"] is True


def side_summary(runs: list, metrics: list) -> dict:
    done = [r for r in runs if finished(r)]
    ok = [r for r in runs if good(r)]
    return {"runs": runs,
            "attempted": sum(r["result"]["attempted"] for r in done),
            "failed": sum(r["result"]["failed"] for r in done),
            "unfinished_runs": len(runs) - len(done),
            "incorrect_runs": len(done) - len(ok),
            "digests": [r["digest"] for r in runs],
            "rounds": [r["rounds"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "median_run_wall_s": statistics.median(r["wall_s"] for r in runs),
            "machine": done[0]["machine"] if done else None,
            "end_to_end": {m["name"]: dict(summarise([r["result"]["metrics"][m["name"]]["value"]
                                                      for r in ok]), bound=m["bound"])
                           for m in metrics} if ok else {}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--change", required=True, help="git ref of the changed side")
    ap.add_argument("--workload", required=True,
                    help="a bench/run.py workload, or several separated by commas")
    ap.add_argument("--seeds", required=True, help="inclusive range A-B, e.g. 1-5")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    workloads = args.workload.split(",")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        metrics = spec["end_to_end"]
        seconds = spec["run_seconds"]
        runs: dict = {side: {w: [] for w in workloads} for side in SIDES}
        for w in workloads:
            for seed in seeds:
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    run = run_once(trees[side], w, seed, seconds)
                    runs[side][w].append(run)
                    print(f"{w} seed {seed} {side}: exit {run['exit_code']}, "
                          f"{run['wall_s']} s, digest {run['digest']}", flush=True)

    out = {"command": ("alternating pairs of `bench/run.py --workload W --seed S --seconds "
                       f"{seconds} --trace 0`, one process at a time (odd S: "
                       "parent first, even S: change first), made by tools/bench_pairs.py"),
           "cache_state": "fresh git archive per side, no __pycache__, "
                          "PYTHONDONTWRITEBYTECODE=1 on both sides",
           "parent_commit": commits["parent"], "change_commit": commits["change"],
           "pairs": {}, "median_ratio_change_over_parent": {}, "median_run_wall_ratio": {},
           "digests_equal_per_seed": {}}
    for side in SIDES:
        out[side] = {"run_seconds": seconds,
                     "seeds": {w: len(seeds) for w in workloads},
                     "workloads": {w: side_summary(runs[side][w], metrics) for w in workloads}}
    for w in workloads:
        par, chg = (out[side]["workloads"][w] for side in SIDES)
        out["digests_equal_per_seed"][w] = par["digests"] == chg["digests"]
        out["median_run_wall_ratio"][w] = round(
            chg["median_run_wall_s"] / par["median_run_wall_s"], 4)
        if not (par["end_to_end"] and chg["end_to_end"]):
            continue
        out["pairs"][w], out["median_ratio_change_over_parent"][w] = {}, {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                     for p, c in zip(runs["parent"][w], runs["change"][w])
                     if good(p) and good(c)]
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            out["pairs"][w][name] = {"change_wins": wins, "pairs": len(pairs)}
            out["median_ratio_change_over_parent"][w][name] = round(
                chg["end_to_end"][name]["median"] / par["end_to_end"][name]["median"], 4)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for w in workloads:
        ratios = out["median_ratio_change_over_parent"].get(w, {})
        walls = [out[side]["workloads"][w]["median_run_wall_s"] for side in SIDES]
        print(w, {k: f"{v} ({out['pairs'][w][k]['change_wins']}/{out['pairs'][w][k]['pairs']})"
                  for k, v in ratios.items()},
              f"run wall {walls[0]} -> {walls[1]} s ({out['median_run_wall_ratio'][w]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
