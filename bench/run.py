"""qeslab benchmark: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload oracle|algebra|reduce|all --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  A run
is a closed loop with one caller: each job starts when the previous one has
returned.  Jobs come in whole rounds of fixed composition (see
``workloads.py``), and rounds run until at least ``--seconds`` of job time
has accumulated.  Every output is checked against a reference computed
outside the timed region; a job that raises or fails its check counts as
failed.

Job times, set-up times and kernel rows are reported at a reference host
speed: the host's speed is sampled with a fixed slice of pure-Python
arithmetic around and during each timed call, and the call's wall time is
scaled by how long the slice took (see ``probe.py``).  The raw wall-clock
figures are kept in the report.

Metric names and units come from ``BENCHMARK.json``; a run whose metrics
differ from the ones listed there fails without printing a result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics: it runs round 0 untraced, then runs it again with every
listed library function wrapped (see ``tracing.py``), then times the kernel
rows.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report,
with the machine record and the verdict digest, goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# numpy's BLAS must not add threads: pin before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from probe import net_clock, timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("oracle", "algebra", "reduce")
# the probe whose arithmetic is like each workload's jobs
PROBE_KIND = {"oracle": "exact", "algebra": "exact", "reduce": "float"}
SETUP_BATCH = 8           # set-up samples before the pass, and again after it
# about the set-up probe's time on the 2-vCPU host of BENCH_baseline.json
SETUP_REFERENCE_PROBE_S = 0.010

# Library set-up paid by every CLI invocation: the import and the lazy
# first-call work of the catalogue loader and the generator builder.  A speed
# probe runs in the same fresh interpreter just before and just after; it
# imports nothing, so the set-up's imports stay inside the timed region.
SETUP_CODE = """
import sys, time
def probe():
    t0 = time.perf_counter()
    s, seen = 0, {}
    for i in range(50000):
        s = (s * 31 + i) % 1000003
        seen[i & 255] = s
    return time.perf_counter() - t0
probe()
before = probe()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qeslab
from qeslab.classify import rules_for
from qeslab.reps import RepSpec, make_rep
from qeslab.scalars import Scalar
rules_for(RepSpec("osp22"))
make_rep(RepSpec("osp22", n=Scalar(5)))
wall = time.perf_counter() - t0
print(wall, before, probe())
"""


def import_library():
    if not (SRC / "qeslab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no qeslab sources under {SRC}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import qeslab
    if Path(qeslab.__file__).resolve().parent != SRC / "qeslab":
        sys.exit(f"benchmark: imported qeslab from {qeslab.__file__}, not {SRC}")
    return qeslab


# --------------------------------------------------------------------------
# machine record

def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qeslab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "loadavg_at_start": list(os.getloadavg()),
            "blas_threads": 1,
            "git_commit": git_commit(),
            "src_sha256": src_digest()}


# --------------------------------------------------------------------------
# the closed loop

@dataclass
class JobResult:
    kind: str
    label: str
    wall: float           # raw wall-clock seconds
    seconds: float        # wall time at the reference host speed
    ok: bool
    error: Optional[float]


@dataclass
class Pass:
    results: List[JobResult]
    rounds: int
    round0_jobs: int
    digest: str

    @property
    def busy(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


def _attempt(job):
    try:
        return job.run()
    except Exception as exc:  # a failed job is data; keep the loop running
        return exc


def run_pass(workload: str, seed: int, seconds: float,
             max_rounds: Optional[int] = None, tracer=None) -> Pass:
    """Whole rounds until ``seconds`` of scaled job time (or ``max_rounds``)."""
    from workloads import Verdict, make_round
    kind = PROBE_KIND[workload]
    results: List[JobResult] = []
    payload = []
    busy, rounds, round0 = 0.0, 0, 0
    while True:
        queue = deque(make_round(workload, seed, rounds))
        while queue:
            job = queue.popleft()
            if tracer is not None:
                tracer.job = len(results)
            out, wall, job_s = timed(lambda: _attempt(job), kind)
            try:
                if isinstance(out, Exception):
                    raise out
                verdict = job.check(out)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                verdict = Verdict(False, {"error": type(exc).__name__})
            busy += job_s
            results.append(JobResult(job.kind, job.label, wall, job_s,
                                     verdict.ok, verdict.error))
            if rounds == 0:
                payload.append([job.label, verdict.ok, verdict.payload])
            queue.extend(verdict.follow)
        if rounds == 0:
            round0 = len(results)
        rounds += 1
        if busy >= seconds or (max_rounds is not None and rounds >= max_rounds):
            break
    text = json.dumps(payload, sort_keys=True, default=str)
    return Pass(results, rounds, round0, hashlib.sha256(text.encode()).hexdigest()[:16])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n else 0


def nearest_rank(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure_setup() -> List[List[float]]:
    """Import plus first-call set-up, each in a fresh interpreter (after one
    unmeasured warm-up that fills the bytecode cache): [wall, at reference
    speed] per sample."""
    samples = []
    for i in range(SETUP_BATCH + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        if i:
            wall, before, after = map(float, proc.stdout.split()[-3:])
            samples.append([wall, wall * 2 * SETUP_REFERENCE_PROBE_S / (before + after)])
    return samples


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    # half the set-up samples before the pass and half after it, so that
    # their median spans more than one spell of host speed
    setup = measure_setup()
    p = run_pass(workload, seed, seconds)
    setup += measure_setup()
    lat = [r.seconds * 1e3 for r in p.results]
    # the tail percentile is fixed by one round, so it does not depend on
    # how many rounds fit in the run
    pct = tail_percentile(p.round0_jobs)
    metrics = {
        "setup_s": statistics.median(s for _, s in setup),
        "jobs_per_s": len(p.results) / p.busy,
        "job_p50_ms": statistics.median(lat),
        "job_tail_ms": nearest_rank(lat, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"metrics": metrics,
            "attempted": len(p.results), "failed": p.failed,
            "failed_ratio": p.failed / len(p.results),
            "tail_percentile": pct, "samples": len(p.results),
            "rounds": p.rounds, "busy_s": p.busy, "wall_busy_s": p.wall,
            "wall_jobs_per_s": len(p.results) / p.wall,
            "wall_job_p50_ms": statistics.median(r.wall * 1e3 for r in p.results),
            "setup_samples_s": setup,
            "wall_setup_s": statistics.median(w for w, _ in setup),
            "digest": p.digest,
            "jobs_by_kind": _by_kind(p.results),
            "jobs": [[r.label, r.wall, r.seconds, r.ok] for r in p.results]}


def _by_kind(results: List[JobResult]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for r in results:
        row = out.setdefault(r.kind, {"jobs": 0, "seconds": 0.0, "wall": 0.0,
                                      "failed": 0})
        row["jobs"] += 1
        row["seconds"] += r.seconds
        row["wall"] += r.wall
        row["failed"] += not r.ok
        if r.error is not None:
            row["max_error"] = max(row.get("max_error", 0.0), r.error)
    return out


# --------------------------------------------------------------------------
# the traced run

def traced(workload: str, seed: int) -> dict:
    from kernels import kernel_rows
    from layers import targets
    from tracing import Tracer

    plain = run_pass(workload, seed, 0.0, max_rounds=1)
    tracer = Tracer(targets(), clock=net_clock)
    bindings = tracer.install()
    try:
        p = run_pass(workload, seed, 0.0, max_rounds=1, tracer=tracer)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_ratio"] = p.busy / plain.busy
    metrics["trace_coverage"] = tracer.top_level_seconds() / p.wall
    metrics.update(kernel_rows())
    attempted = len(plain.results) + len(p.results)
    return {"metrics": metrics, "attempted": attempted,
            "failed": plain.failed + p.failed,
            "failed_ratio": (plain.failed + p.failed) / attempted,
            "bindings_wrapped": bindings, "spans": len(tracer.spans),
            "untraced_busy_s": plain.busy, "traced_busy_s": p.busy,
            "digest": p.digest, "digest_untraced": plain.digest,
            "jobs_by_kind": _by_kind(p.results)}


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = machine_record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        rep = traced(name, args.seed) if args.trace else \
            end_to_end(name, args.seed, args.seconds)
        if rep["metrics"].keys() != units.keys():
            sys.exit(f"benchmark: {name} metrics differ from BENCHMARK.json: "
                     f"missing {sorted(units.keys() - rep['metrics'].keys())}, "
                     f"unlisted {sorted(rep['metrics'].keys() - units.keys())}")
        rep["metrics"] = {k: {"value": rep["metrics"][k], "unit": u}
                          for k, u in units.items()}
        rep.update(workload=name, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, machine=record)
        reports[name] = rep
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rep, indent=1, sort_keys=True) + "\n")
        print(f"== {name} seed={args.seed} trace={args.trace}: "
              f"{rep['attempted']} jobs, failed_ratio {rep['failed_ratio']:.6g}, "
              f"digest {rep['digest']}")
        if not args.trace:
            print(f"   tail = p{rep['tail_percentile']} of {rep['samples']} jobs, "
                  f"{rep['rounds']} round(s)")
        for key, m in rep["metrics"].items():
            print(f"   {key:44s} {m['value']:.6g} {m['unit']}")

    if len(reports) == 1:
        metrics = next(iter(reports.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, rep in reports.items()
                   for k, m in rep["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
