#!/usr/bin/env python3
"""convalg benchmark: one workload, one process, one caller in a closed loop.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 bench/run.py --workload equations --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload etale --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --sweep
    python3 bench/run.py --record-digests

A run builds the workload's job list from ``--seed`` (see ``workloads.py``)
and then runs passes over it, one job at a time, until the next pass would
end after ``--seconds``. End-to-end latencies are in reference units: each
job's time divided by that of a fixed loop that uses nothing from convalg,
timed next to it, because the host's speed drifts by tens of percent within
seconds and the loop drifts with it. Every job checks its own independent route
and folds its verdicts and outputs into a digest; a job fails when it
raises, when its route check fails, when its digest differs from the
first pass, or, at the default seed, when it differs from the digest in
``expected_digests.json``.

With ``--trace 0`` the end-to-end metrics are measured untraced, and
``setup_s`` is the median of set-ups timed at the start and after every
pass. With
``--trace 1`` untraced passes for half the time (at least one) are
followed by traced passes (at least two) in which every public function
of the package's layers is wrapped (see ``tracer.py``); the run reports
per-pass call counts and self times per layer, the tracing overhead, and
fails if a count differs between passes. The last line of stdout is the result as one JSON object; the
full record, with the machine and interpreter it ran on, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "expected_digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# reference loop: iterations per call, and executed jobs on either side of
# a job whose reference times make its local time unit
REFERENCE_ITERATIONS = 1500
REFERENCE_WINDOW = 10
MIN_TRACED_PASSES = 2
WORKLOADS = ("equations", "etale", "type2", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ setup


def load_workloads():
    """Import the package and the job generators afresh, as a new process would."""
    for name in list(sys.modules):
        if name == "convalg" or name.startswith("convalg.") or name in ("workloads", "tracer"):
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        W = importlib.import_module("workloads")
    except ImportError as exc:
        raise BenchError(f"cannot import convalg from {SRC.name}/: {exc}") from None
    where = Path(W.convalg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"convalg was imported from outside this checkout: {where}")
    return W


def setup(workload, seed, workdir):
    """Import and build the job list several times, timing each.

    Also the generator self-test: every build from one seed gives the
    same job-list digest, and the next seed gives a different one.
    """
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        W = load_workloads()
        jobs = W.build(workload, seed, workdir / "inputs")
        times.append(time.perf_counter() - t0)
        digests.append(W.joblist_digest(jobs))
    other = W.joblist_digest(W.build(workload, seed + 1, workdir / "other"))
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"seed {seed} gave {len(set(digests))} different job lists")
    if other == digests[0]:
        problems.append(f"seeds {seed} and {seed + 1} gave the same job list")
    return W, jobs, times, digests[0], problems


def setup_sample(workload, seed, workdir):
    """Time one more import and build, then put back the modules the
    running jobs use; returns (seconds, job-list digest)."""
    ours = {k: v for k, v in sys.modules.items() if k.split(".")[0] in ("convalg", "workloads")}
    t0 = time.perf_counter()
    W = load_workloads()
    jobs = W.build(workload, seed, workdir / "setup")
    seconds = time.perf_counter() - t0
    digest = W.joblist_digest(jobs)
    for name in [k for k in sys.modules if k.split(".")[0] in ("convalg", "workloads")]:
        del sys.modules[name]
    sys.modules.update(ours)
    return seconds, digest


# ------------------------------------------------------------------- runs


def reference_loop():
    """Fixed interpreter work that uses nothing from convalg: the time unit
    of the end-to-end latencies. Tuple keys in a dict, like the package's
    own tables; with the collector off, so that a larger heap left by the
    jobs cannot slow the unit itself."""
    gc.disable()
    counts = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    gc.enable()
    return len(counts)


@dataclass
class Pass:
    """Outcome of one pass over the job list."""

    seconds: float
    latencies: list
    digests: list
    failures: list
    posed: int
    decided: int
    # end-to-end passes: seconds of the reference loop run before each job
    references: list = None
    # traced passes: (calls, self seconds, raised exceptions) per span name
    aggregates: tuple = None


def run_pass(W, jobs, tracer=None, index=0, reference=False):
    """One pass over the job list. A job with ``every`` = k runs only when k
    divides ``index``; a skipped job has latency and digest None. With
    ``reference``, the reference loop is timed before each job."""
    latencies, digests, failures, references = [], [], [], []
    posed = decided = 0
    clock = time.perf_counter
    t_pass = clock()
    if tracer is not None:
        tracer.start()
    for i, job in enumerate(jobs):
        if index % job.every:
            latencies.append(None)
            digests.append(None)
            references.append(None)
            continue
        if reference:
            t0 = clock()
            reference_loop()
            references.append(clock() - t0)
        t0 = clock()
        try:
            out = W.execute(job)
        except Exception as exc:  # a raising job is a failed job, not a crash
            latencies.append(clock() - t0)
            digests.append(None)
            failures.append((i, f"raised {type(exc).__name__}: {exc}"))
            continue
        latencies.append(clock() - t0)
        digests.append(out.digest)
        posed += out.posed
        decided += out.decided
        if not out.ok:
            failures.append((i, "route check failed"))
    if tracer is not None:
        tracer.stop()
    return Pass(clock() - t_pass, latencies, digests, failures, posed, decided,
                references if reference else None)


def run_passes(W, jobs, seconds, min_passes, tracer=None, after_pass=None):
    """Passes until the next one would end after ``seconds``.

    Every pass runs the whole job list, except in an end-to-end run (one
    with ``after_pass``, called after each pass): there the passes after
    the first skip the jobs their ``every`` excludes, so that the many
    short jobs are sampled more often than a few long ones, and each pass
    times the reference loop before every job.
    """
    e2e = after_pass is not None
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(W, jobs, tracer, len(passes) if e2e else 0, e2e))
        if tracer is not None:
            passes[-1].aggregates = tracer.snapshot()
        if e2e:
            after_pass()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + next_pass_estimate(passes, jobs, e2e) > seconds:
            return passes


def next_pass_estimate(passes, jobs, thin):
    """Seconds the next pass should take: the sum of its jobs' median latencies."""
    index = len(passes) if thin else 0
    return sum(
        statistics.median(p.latencies[i] for p in passes if p.latencies[i] is not None)
        for i, job in enumerate(jobs) if index % job.every == 0
    )


def digest_failures(passes, expected):
    """(pass, job, reason) for every digest that differs from the reference.

    The reference is the stored digest list at the default seed, and the
    first pass's digests otherwise.
    """
    reference = expected if expected is not None else passes[0].digests
    out = []
    for k, p in enumerate(passes):
        for i, d in enumerate(p.digests):
            if d is not None and (i >= len(reference) or d != reference[i]):
                out.append((k, i, "digest mismatch"))
    return out


def expected_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


# ---------------------------------------------------------------- metrics


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def relative_latencies(p):
    """Each job's latency in a pass in reference units: divided by the mean
    reference time over the REFERENCE_WINDOW executed jobs on either side.

    The host's speed drifts by tens of percent within seconds, and the
    reference loop, timed next to the job, drifts with it.
    """
    ran = [i for i, t in enumerate(p.latencies) if t is not None]
    refs = [p.references[i] for i in ran]
    out = [None] * len(p.latencies)
    for n, i in enumerate(ran):
        window = refs[max(0, n - REFERENCE_WINDOW):n + REFERENCE_WINDOW + 1]
        out[i] = p.latencies[i] / statistics.fmean(window)
    return out


def per_job_median(columns):
    return [statistics.median(t for t in col if t is not None) for col in zip(*columns)]


def end_to_end(passes, setup_times):
    per_job = per_job_median(relative_latencies(p) for p in passes)
    first = passes[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # one pass over every job, in reference units
        "run_ref": (sum(per_job), "ref"),
        "job_p50_ref": (quantile(per_job, 50), "ref"),
        "job_p90_ref": (quantile(per_job, 90), "ref"),
        "decided_ratio": (first.decided / first.posed, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_metrics(T, tracer, untraced, traced):
    counts = [(p.aggregates[0], p.aggregates[2]) for p in traced]
    per_pass = [T.layer_metrics(tracer, *p.aggregates) for p in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    traced_s = statistics.median(p.seconds for p in traced)
    untraced_s = statistics.median(p.seconds for p in untraced)
    accounted = statistics.median(sum(p.aggregates[1].values()) for p in traced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.accounted_ratio"] = (accounted / traced_s, "ratio")
    repeat_ok = all(c == counts[0] for c in counts)
    return metrics, repeat_ok


def self_test(W, tracer):
    """Check the wrappers: every binding patched, and exact counts on a
    fixed instance whose counts follow from the algorithm."""
    problems = []
    loose = tracer.unwrapped_bindings([("workloads", vars(W))])
    if loose:
        problems.append("unpatched bindings: " + ", ".join(loose))
    C = W.convalg
    s = C.RelationalStructure(
        ("p", "q"), C.Signature((("f", 2),)), {"f": {("p", "q", "q"), ("q", "q", "p")}}
    )
    v, w = C.Var("v"), C.Var("w")
    eq = C.Equation(C.App("f", (v, w)), C.App("f", (w, v)))
    for algebra, n, apply_name, op_name in (
        (C.ConvolutionAlgebra(C.chain_lattice(1), s), 4,
         "terms.ConvolutionAlgebra.apply", "convolution.conv_op"),
        (C.ComplexAlgebra(s), 4, "terms.ComplexAlgebra.apply", "complexalg.rel_image"),
    ):
        tracer.reset()
        tracer.start()
        C.holds_in(algebra, eq)
        tracer.stop()
        for name in (apply_name, op_name, "terms.holds_in"):
            want = n * n if name != "terms.holds_in" else 1
            got = tracer.calls.get(name, 0)
            if got != want:
                problems.append(f"{name}: {got} calls on the {n}-element table, expected {want}")
    tracer.reset()
    return problems


# ------------------------------------------------------------- reporting


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def git_sha():
    """The checkout's commit, read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(metrics, extra):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:<42} {value!s:>14}")


def write_record(record, name):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ------------------------------------------------------------------ modes


def bench(args, workdir):
    W, jobs, setup_times, joblist, problems = setup(args.workload, args.seed, workdir)
    expected = expected_digests(args.workload, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(jobs), "joblist_digest": joblist,
        "setup_times_s": setup_times, "digest_reference": "stored" if expected else "first pass",
        **machine(),
    }
    if args.trace:
        import tracer as T

        untraced = run_passes(W, jobs, args.seconds / 2, 1)
        tracer = T.Tracer()
        tracer.install()
        problems += self_test(W, tracer)
        remaining = args.seconds - sum(p.seconds for p in untraced)
        passes = run_passes(W, jobs, remaining, MIN_TRACED_PASSES, tracer)
        metrics, repeat_ok = traced_metrics(T, tracer, untraced, passes)
        if not repeat_ok:
            problems.append("call counts differ between traced passes")
        record["call_edges_per_pass"] = sorted(
            [parent, child, n] for (parent, child), n in tracer.edges.items())
        runs = untraced + passes
    else:
        def sample_setup():
            seconds, digest = setup_sample(args.workload, args.seed, workdir)
            setup_times.append(seconds)
            if digest != joblist:
                problems.append(f"seed {args.seed} gave a different job list during the run")

        passes = runs = run_passes(W, jobs, args.seconds, 1, after_pass=sample_setup)
        metrics = end_to_end(passes, setup_times)
        reference = [t for p in passes for t in p.references if t is not None]
        record["reference_ms"] = 1e3 * statistics.median(reference)
        record["job_median_ms"] = [1e3 * t for t in per_job_median(p.latencies for p in runs)]

    failures = [(k, i, why) for k, p in enumerate(runs) for i, why in p.failures]
    failures += digest_failures(runs, expected)
    failed = len({(k, i) for k, i, _ in failures})
    attempted = sum(t is not None for p in runs for t in p.latencies)
    correct = failed == 0 and not problems
    extra = {
        "jobs": len(jobs), "passes": len(runs), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "correct": correct,
    }
    record.update(extra)
    record["pass_seconds"] = [p.seconds for p in runs]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["problems"] = problems
    record["failures"] = [list(f) for f in failures[:50]]
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    for k, i, why in failures[:20]:
        print(f"failed: pass {k} job {i} ({jobs[i].kind}): {why}", file=sys.stderr)

    path = write_record(record, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print(f"convalg benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['python']} sha={record['git_sha'][:12]} nproc={record['nproc']}")
    print(f"  cpu: {record['cpu']}")
    print_table(metrics, extra)
    print(f"  record: {path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def record_digests(workdir):
    """Store the per-job digests of every workload at the default seed.

    Refuses to store anything when a job fails its own route check.
    """
    table = {}
    for workload in WORKLOADS:
        W, jobs, _, _, problems = setup(workload, DEFAULT_SEED, workdir / workload)
        p = run_pass(W, jobs)
        if p.failures or problems:
            raise BenchError(f"{workload}: {p.failures[:3]} {problems}")
        table[workload] = p.digests
        print(f"{workload}: {len(jobs)} jobs")
    DIGESTS.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="scaling sweep instead of a workload")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's job digests")
    args = parser.parse_args(argv)
    if not (args.sweep or args.record_digests or args.workload):
        parser.error("--workload is required")
    try:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
            if args.sweep:
                load_workloads()
                import sweep

                sweep.main(OUT)
            elif args.record_digests:
                record_digests(Path(tmp))
            else:
                bench(args, Path(tmp))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
