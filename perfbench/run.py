"""The ternfield benchmark.

Runs one workload (verify, refute, derive, suite) in this single-threaded
process, or every workload one after another in fresh processes with
``--workload all``.  Each run builds the workload's inputs from ``--seed``,
repeats passes over the fixed job list for about ``--seconds`` seconds (at
least two passes, so the second repeats the first), checks every answer and
prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the first pass runs untraced and later passes record spans around every
call into ternfield, and the metrics are the per-layer ones.  Run from the
repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all
"""

import os

# one thread per workload, also inside NumPy's linked math libraries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "refute", "derive", "suite")
# Fresh processes that repeat the set-up; setup_s is the median over these
# and the run's own set-up.
SETUP_PROBES = 4
# A 2-core machine shared with other tenants (Xeon, 2.1 GHz, KVM) was
# measured running up to 1.75x slower for minutes at a time, and not
# uniformly: interpreter-bound code (small NumPy calls, Python objects)
# slowed most, whole-array NumPy least.  Two fixed loops stand for the two
# kinds of work; both are timed before every job and after the last, and a
# job's latency is divided by the slowdown it saw, the loops' times over
# their uncontended REFERENCE_S, mixed by the job's `vectorized` share.
# Over three minutes in which the jobs' own times varied by 11-37%, a job's
# time over its matching loop's varied by 5-9%.
REFERENCE_S = (0.6e-3, 0.44e-3)   # (arithmetic loop, interpreter loop)


class Calibration:
    def __init__(self):
        import numpy as np
        self._small = (np.arange(64, dtype=np.int32) % 4).reshape(4, 4, 4)
        self._sort = np.sort

    def sample(self):
        """(arithmetic, interpreter) slowdown right now."""
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        middle = time.perf_counter()
        a = self._small
        for _ in range(40):
            t = a[a[1]]
            (t != a[:, a[2]]).any()
            self._sort(a, axis=2)
        end = time.perf_counter()
        return ((middle - start) / REFERENCE_S[0], (end - middle) / REFERENCE_S[1])


def build_inputs(workload, seed, tracer):
    """Import ternfield and build the job list; returns the jobs, the
    set-up time, and the interpreter slowdown measured right after it."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    jobs = workloads.WORKLOADS[workload](seed, tracer)
    seconds = time.perf_counter() - start
    calibration = Calibration()
    return jobs, seconds, statistics.median(calibration.sample()[1] for _ in range(25))


def _slowdown_around(before, after, w):
    """A job's slowdown from the calibration samples on either side of it."""
    arith = (statistics.median(a for a, _ in before) + statistics.median(a for a, _ in after)) / 2
    interp = (statistics.median(i for _, i in before) + statistics.median(i for _, i in after)) / 2
    return arith ** w * interp ** (1 - w)


def run_pass(jobs, tracer, calibration):
    """Time every job once; returns (scaled latencies, measured seconds,
    outcomes).  The calibration loops are sampled before the first job and
    after every job, more often after a long one (one sample per 50 ms of
    it, up to 25), and each latency is divided by the slowdown around it."""
    latencies = []
    outcomes = []
    groups = [[calibration.sample()]]
    for index, job in enumerate(jobs):
        tracer.job = index
        start = time.perf_counter()
        try:
            outcomes.append((job.run(tracer), None))
        except (Exception, SystemExit) as exc:   # counted in `failed`
            outcomes.append((None, f"raised {exc!r}"))
        latency = time.perf_counter() - start
        latencies.append(latency)
        groups.append([calibration.sample() for _ in range(1 + min(24, int(latency / 0.05)))])
    scaled = [t / _slowdown_around(before, after, job.vectorized)
              for job, t, before, after in zip(jobs, latencies, groups, groups[1:])]
    return scaled, sum(latencies), outcomes


def check_pass(jobs, outcomes, failures):
    for job, (answer, error) in zip(jobs, outcomes):
        if error is None:
            try:
                error = job.check(answer)
            except Exception as exc:
                error = f"check raised {exc!r}"
        if error is not None:
            failures.append(f"{job.name}: {error}")


def setup_probe_seconds(workload, seed):
    """Scaled set-up time measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(workload, seed, jobs):
    import numpy
    import ternfield
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ternfield").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": ternfield.kernel_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "jobs": [job.name for job in jobs],
    }


def run_workload(args):
    traced = bool(args.trace)
    setup_tracer = tracing.Tracer() if traced else tracing.NullTracer()
    jobs, setup_raw, setup_slowdown = build_inputs(args.workload, args.seed,
                                                   setup_tracer)
    import workloads
    missed = workloads.self_test(args.workload, jobs)
    calibration = Calibration()
    bindings = contextlib.nullcontext
    if traced and args.workload == "suite":
        from ternfield import _suite, cli
        bindings = lambda tr: tracing.traced_bindings(tr, (cli, _suite), _suite)

    # scaled latencies and measured seconds per pass; in a traced run the
    # first pass stays untraced, for the tracing overhead
    untraced, traced_passes, failures = [], [], []
    start = time.perf_counter()
    while True:
        if traced and untraced:
            tracer = tracing.Tracer()
            with bindings(tracer):
                latencies, measured, outcomes = run_pass(jobs, tracer, calibration)
            traced_passes.append((latencies, measured, tracer))
        else:
            latencies, measured, outcomes = run_pass(jobs, tracing.NullTracer(), calibration)
            untraced.append((latencies, measured))
        check_pass(jobs, outcomes, failures)
        passes = len(untraced) + len(traced_passes)
        if passes >= 2 and time.perf_counter() - start + measured > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(jobs) * passes
    failed = len(failures)
    walls = [sum(latencies) for latencies, _ in untraced]
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs x "
          f"{passes} passes, {failed} failed")
    print("pass wall times (s), measured -> scaled: " + ", ".join(
        f"{measured:.3f} -> {sum(latencies):.3f}"
        for latencies, measured, *_ in untraced + traced_passes))
    for line in failures[:10]:
        print(f"  FAILED {line}")
    for name in missed:
        print(f"  SELF-TEST MISSED: the check accepted a {name}")

    if traced:
        from ternfield import _suite
        traced_walls = [sum(latencies) for latencies, _, _ in traced_passes]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = tracing.layer_metrics(
            [(tracer.stats, measured / sum(latencies))
             for latencies, measured, tracer in traced_passes],
            (setup_tracer.stats, setup_slowdown), _suite._BUDGETS, overhead)
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(out, setup_tracer.spans + [
            span for _, _, tracer in traced_passes for span in tracer.spans])
        print("no wait-time metric: one thread, nothing queues, no I/O on the "
              "hot path")
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        probes = [setup_raw / setup_slowdown] + [
            setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        scaled = [t for latencies, _ in untraced for t in latencies]
        p90 = statistics.quantiles(scaled, n=10)[8]
        beyond = sum(1 for t in scaled if t > p90)
        metrics = {
            "setup_s": tracing.metric(statistics.median(probes), "s"),
            "wall_s": tracing.metric(statistics.median(walls), "s"),
            "job_p50_s": tracing.metric(statistics.median(scaled), "s"),
            "job_p90_s": tracing.metric(p90, "s"),
            "peak_rss_mb": tracing.metric(peak_rss_mb, "MB"),
        }
        print(f"job latency samples: {len(scaled)}, {beyond} beyond p90")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    if not traced:
        print(f"  {'error_ratio':48s} {failed / attempted:>14.6g} ratio")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, jobs)))
    print(json.dumps({"correct": failed == 0 and not missed,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ternfield" / "__init__.py").is_file():
        print(f"error: no ternfield sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, seconds, slow = build_inputs(args.workload, args.seed, tracing.NullTracer())
        print(json.dumps({"setup_s": seconds / slow}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
