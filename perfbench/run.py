"""wittkit benchmark runner.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lift|witt|stab|cli --seed N --seconds S --trace 0|1

A run makes its jobs from the seed, then runs rounds of the same jobs
until S seconds have passed: a closed loop with one client in this one
process (``cli`` starts one interpreter per job, one at a time).
Throughput and latencies are taken from each job's median over the
rounds, every sample scaled to a fixed host speed measured by a probe loop
run between jobs (see ``bench``); the median also keeps the first round,
which finds wittkit's caches cold, from counting, so there is no separate
warm-up.  The unscaled figures are printed beside them.  Every answer is
checked outside the timed section against an answer known by
construction, using the benchmark's own exact arithmetic.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-module metrics
(``--trace 1``); the lines before it, starting with ``#``, say what was
measured.

``--trace 1`` then runs every job once more untraced and once traced, back
to back.  Spans come from wrappers installed around wittkit's entry points
from the outside (``tracer.py``), and the difference in jobs/s between the
two is reported as the tracing overhead.

``perfbench/ledger.json`` holds the layer map, the known seed failures and
the inputs left out.  The job families that meet a known defect
(``KNOWN_DEFECT_FAMILIES`` of each workload) are not timed: they run once
each after the timed loop, and their failures are reported on a ``#`` line
and in the per-module ``failed_share``, not in ``failed``.  The run reports
``correct: false`` when any failure is not one the ledger names.  Nothing
is written outside ``.perfbench_cache/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
PYCACHE = os.path.join(CACHE, "pycache")

# Bytecode goes to the cache in the checkout, never next to the sources.
sys.pycache_prefix = PYCACHE
sys.dont_write_bytecode = False
sys.path.insert(0, HERE)

from probe import probe_s  # noqa: E402

WORKLOADS = ("lift", "witt", "stab", "cli")
SETUP_STARTS = 21
BARE_STARTS = 7
JOB_BUDGET_S = 20.0  # a runaway guard that keeps every run under its time limit
# Every timing is scaled to the host speed at which its probe takes a
# reference time, the probe's median on the 2-vCPU machine this was built
# on.  Jobs in this process use probe_s(), run between jobs at most every
# PROBE_EVERY_S.  cli jobs are child interpreters and use child_probe_s(),
# at most every CHILD_PROBE_EVERY_S: over 300 cli calls in 60 s, the
# IQR/median of a call's time was .17 raw, .22 over probe_s() and .07 over
# child_probe_s().
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.25
CHILD_PROBE_REF_S = 0.045
CHILD_PROBE_EVERY_S = 0.5
CHILD_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); from probe import probe_s; probe_s()"
# A set-up start times the import between two probes in the same child.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); from probe import probe_s; p = probe_s(); "
    "t = time.perf_counter(); import wittkit, wittkit.cli; t = time.perf_counter() - t; "
    "print(t, (p + probe_s()) / 2)"
)


def interpreter() -> list[str]:
    """Pinned flags for every child interpreter: no site hooks, no PYTHON*
    variables, bytecode cached under ``.perfbench_cache``."""
    return [sys.executable, "-S", "-E", "-X", f"pycache_prefix={PYCACHE}"]


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}


def scaled(seconds: float, probe: float, ref: float = PROBE_REF_S) -> float:
    """``seconds`` at the host speed where the probe takes ``ref``."""
    return seconds * ref / probe


def child_probe_s() -> float:
    """Wall seconds of a fresh interpreter with the pinned flags that runs
    probe_s() once: how fast the host starts and runs a child now."""
    start = time.perf_counter()
    subprocess.run(interpreter() + ["-c", CHILD_PROBE, HERE], cwd=SRC, env=child_env(), capture_output=True,
                   check=True, timeout=60)
    return time.perf_counter() - start


def measure_setup() -> list[tuple[float, float]]:
    """In-child import time of wittkit and wittkit.cli over fresh starts,
    each with the mean of the probes the child takes just before and after
    the import.

    One start first fills the bytecode cache, which every later start and
    every ``cli`` job then reads."""
    cmd = interpreter() + ["-c", IMPORT_PROBE, HERE]
    subprocess.run(cmd, cwd=SRC, env=child_env(), capture_output=True, check=True, timeout=120)
    out = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run(cmd, cwd=SRC, env=child_env(), capture_output=True, text=True,
                              check=True, timeout=120)
        seconds, probe = map(float, done.stdout.split())
        out.append((seconds, probe))
    return out


def bare_start_s() -> float:
    walls = []
    for _ in range(BARE_STARTS):
        start = time.perf_counter()
        subprocess.run(interpreter() + ["-c", "pass"], cwd=SRC, env=child_env(), capture_output=True, check=True,
                       timeout=60)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile with at
    least 10 samples beyond it, and at least the median."""
    ordered = sorted(samples)
    i = max(len(ordered) - 11, math.ceil(len(ordered) / 2) - 1)
    return 100 * (i + 1) / len(ordered), ordered[i]


class JobOverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise JobOverBudget("stopped at the job budget")


REPEAT = object()  # stands for "the same answer as in the job's first run"


def run_job(runner, job):
    """(result, error, seconds) of one job.  A job still running after
    JOB_BUDGET_S is interrupted and fails, with the budget as its latency."""
    clock = time.perf_counter
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        try:
            result, error = runner.run(job), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # a raised job is a failed job; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, clock() - t0


def run_rounds(runner, jobs, seconds: float, probe_fn, probe_every: float):
    """Rounds over ``jobs`` until ``seconds`` have passed, the first one
    always whole; returns the outcomes, the per-job latencies in run order,
    the probe time in force for each of them, and the wall times of the
    whole rounds.

    An answer equal to the job's first answer is recorded as REPEAT, so
    memory does not grow with the number of rounds."""
    outcomes, latencies, probes, round_walls = [], [], [], []
    first: dict = {}
    clock = time.perf_counter
    probe, probed_at = probe_fn(), clock()
    start = clock()
    while True:
        round_start = clock()
        for job in jobs:
            if clock() - probed_at >= probe_every:
                probe, probed_at = probe_fn(), clock()
            result, error, seconds_taken = run_job(runner, job)
            latencies.append(seconds_taken)
            probes.append(probe)
            if job.idx not in first:
                first[job.idx] = (result, error)
            elif first[job.idx] == (result, error):
                result, error = REPEAT, None
            outcomes.append((job.idx, result, error))
            if round_walls and clock() - start >= seconds:
                return outcomes, latencies, probes, round_walls
        round_walls.append(clock() - round_start)
        if clock() - start >= seconds:
            return outcomes, latencies, probes, round_walls


class Judge:
    """Checks each distinct answer of a job once; repeats are compared by equality."""

    def __init__(self, wl, jobs, known_causes: set[str]):
        self.wl, self.jobs, self.known = wl, jobs, known_causes
        self.seen: dict[int, list] = {}
        self.unexplained: list[str] = []
        self.causes: dict[str, int] = {}

    def failure(self, idx: int, result, error) -> str | None:
        if result is REPEAT:
            return self.seen[idx][0][2]
        for r, e, verdict in self.seen.setdefault(idx, []):
            if e == error and r == result:
                return verdict
        job = self.jobs[idx]
        if error is not None:
            verdict = f"raised {error}"
        else:
            try:
                verdict = self.wl.check(job, result)
            except Exception as exc:  # an answer the oracle cannot even read is wrong
                verdict = f"unreadable answer ({type(exc).__name__}: {exc})"
        self.seen[idx].append((result, error, verdict))
        if verdict is not None:
            cause = self.wl.explain(job, verdict)
            if cause is None or cause not in self.known:
                self.unexplained.append(f"job {idx} ({job.family}): {verdict[:300]}")
        return verdict

    def count(self, outcomes) -> tuple[int, dict[int, bool]]:
        failed, status = 0, {}
        for idx, result, error in outcomes:
            verdict = self.failure(idx, result, error)
            status[idx] = verdict is not None
            if verdict is not None:
                failed += 1
                cause = self.wl.explain(self.jobs[idx], verdict) or "unexplained"
                self.causes[cause] = self.causes.get(cause, 0) + 1
        return failed, status


def load_workload(name: str, rng: random.Random, workdir: str):
    if name == "cli":
        import wl_cli as wl

        jobs = wl.make_jobs(rng, workdir)
        return wl, jobs, wl.Runner(jobs, interpreter(), child_env(), SRC)
    wl = __import__(f"wl_{name}")
    jobs = wl.make_jobs(rng)
    return wl, jobs, wl.Runner(jobs)


def traced_round(name, wl, jobs, runner, workdir):
    """Each job once untraced and once traced, back to back, so that both
    see the same phase of the machine.  Returns the per-module metrics, the
    traced outcomes and the untraced and traced seconds."""
    from tracer import ENTRY_POINTS, Tracer, layer_totals

    tracer = Tracer()
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir)
    outcomes, plain_s, traced_s = [], 0.0, 0.0
    for job in jobs:
        plain_s += run_job(runner, job)[2]
        if name == "cli":
            runner.trace_dir = span_dir  # the child wraps the entry points itself
        else:
            tracer.install()
            tracer.job = job.idx
        try:
            result, error, seconds = run_job(runner, job)
        finally:
            if name == "cli":
                runner.trace_dir = None
            else:
                tracer.uninstall()
        traced_s += seconds
        outcomes.append((job.idx, result, error))
    if name == "cli":
        exports = []
        for fname in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, fname), encoding="utf-8") as fh:
                exports.append(json.load(fh))
    else:
        exports = [tracer.export()]
    totals: dict[str, list] = {}
    for ex in exports:
        for key, (calls, self_s) in layer_totals(ex["spans"]).items():
            acc = totals.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    metrics = {}
    for key in ENTRY_POINTS:
        calls, self_s = totals.get(key, (0, 0.0))
        metrics[f"{key}.calls"] = calls
        metrics[f"{key}.self_s"] = self_s
    decompositions = metrics["forms.witt_decompose.calls"]
    certified = sum(ex["decompose_certified"] for ex in exports)
    metrics["forms.witt_decompose.certified_ratio"] = certified / decompositions if decompositions else 0.0
    metrics["intlinalg.smith_normal_form.max_bits"] = max(ex["snf_max_bits"] for ex in exports)
    split = getattr(wl, "full_split_ratio", None)
    metrics["forms.witt_decompose.full_split_ratio"] = split(jobs, outcomes) if split else 0.0
    return metrics, outcomes, plain_s, traced_s


def wrapper_selfcheck(name: str, metrics: dict, ledger: dict) -> list[str]:
    problems = []
    for layer, entry in ledger["per_module"].items():
        key = f"{layer}.calls"
        if name in entry.get("exercised_on", ()) and metrics[key] == 0:
            problems.append(f"{key} = 0 on {name}, where the layer map says it runs")
        if name in entry.get("bypassed_on", ()) and metrics[key] != 0:
            problems.append(f"{key} = {metrics[key]} on {name}, which the layer map says bypasses it")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wittkit", "__init__.py")):
        print(f"perfbench: no wittkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as fh:
        ledger = json.load(fh)
    sys.path.insert(0, SRC)
    # One CPU for the run and every child it starts, so that the probe
    # measures the CPU the job runs on.
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass
    workdir = os.path.join(CACHE, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return bench(args, spec, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, spec: dict, ledger: dict, workdir: str) -> int:
    name = args.workload
    setup = measure_setup()
    import wittkit  # noqa: F401  (fills the bytecode cache for this process too)
    import wittkit.cli  # noqa: F401

    wl, jobs, runner = load_workload(name, random.Random(args.seed), workdir)
    signal.signal(signal.SIGALRM, _over_budget)
    known = {key for key, entry in ledger["seed_failures"].items() if name in entry["workloads"]}
    judge = Judge(wl, jobs, known)
    # Families that meet a known defect (see the ledger) stay out of the
    # timed loop, where no job may fail; they run once each after it.
    timed = [job for job in jobs if job.family not in wl.KNOWN_DEFECT_FAMILIES]
    defects = [job for job in jobs if job.family in wl.KNOWN_DEFECT_FAMILIES]

    probe_fn, ref, every = (child_probe_s, CHILD_PROBE_REF_S, CHILD_PROBE_EVERY_S) if name == "cli" \
        else (probe_s, PROBE_REF_S, PROBE_EVERY_S)
    outcomes, latencies, probes, walls = run_rounds(runner, timed, args.seconds, probe_fn, every)
    failed, status = judge.count(outcomes)
    attempted = len(outcomes)
    defect_failed, defect_status = judge.count(
        [(job.idx, *run_job(runner, job)[:2]) for job in defects])
    status.update(defect_status)
    problems = []

    # Each job's median latency over the rounds, every sample scaled by the
    # probe in force when it ran.  On the 2-vCPU machine this was built on,
    # the host switched between a fast and a slow phase, within a second or
    # for a whole run (up to 1.8x apart in wall time; no steal time, CPU time
    # equal to wall time), and the probes follow those phases as the
    # workloads do (figures in ledger.json).
    n = len(timed)
    per_job = [statistics.median(scaled(t, p, ref) for t, p in zip(latencies[j::n], probes[j::n]))
               for j in range(n)]
    unscaled = [statistics.median(latencies[j::n]) for j in range(n)]
    q_tail, tail_s = tail(per_job)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    e2e = {
        "jobs_per_s": n / sum(per_job),
        "latency_p50_ms": percentile(per_job, 50) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "setup_s": statistics.median(scaled(t, p) for t, p in setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    seed_failed_share = sum(status.values()) / len(status)
    print(f"# workload {name} seed {args.seed}: {n} timed jobs, {attempted} runs of them in "
          f"{len(walls)} whole round(s) plus part of one; "
          f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}, child flags {' '.join(interpreter()[1:3])}")
    print(f"# latency is each job's median over the rounds, scaled to a probe time of "
          f"{ref * 1000:.1f} ms; the tail is p{q_tail:.2f} of those {n} samples "
          f"({n - round(q_tail / 100 * n)} beyond it); round walls {min(walls):.3f}-{max(walls):.3f} s")
    print(f"# unscaled: {n / sum(unscaled):.3f} jobs/s, p50 {percentile(unscaled, 50) * 1000:.3f} ms, "
          f"tail {tail(unscaled)[1] * 1000:.3f} ms, setup {statistics.median(t for t, _ in setup):.4f} s; "
          f"probe {statistics.median(probes) * 1000:.2f} ms median, {min(probes) * 1000:.2f}-"
          f"{max(probes) * 1000:.2f} ms over the run")
    print(f"# failed: {failed} of {attempted} timed runs; {defect_failed} of {len(defects)} jobs of the "
          f"known-defect families, run once each untimed; seed failed_share {seed_failed_share:.4f} "
          f"over all {len(jobs)} jobs; causes {json.dumps(judge.causes)}")

    metrics = {}
    if args.trace:
        layer_metrics, traced, plain_s, traced_s = traced_round(name, wl, jobs, runner, workdir)
        _, traced_status = judge.count(traced)
        if traced_status != status:
            flipped = sorted(i for i in status if status[i] != traced_status.get(i))
            problems.append(f"traced and untraced runs disagree on the failure of jobs {flipped}")
        problems += wrapper_selfcheck(name, layer_metrics, ledger)
        layer_metrics["failed_share"] = seed_failed_share
        layer_metrics["trace.overhead_share"] = 1 - plain_s / traced_s
        layer_metrics["cli.import_s"] = statistics.median(t for t, _ in setup)
        layer_metrics["cli.interpreter_start_s"] = bare_start_s()
        layer_metrics["env.ref_loop_ms"] = statistics.median(probes) * 1000
        print(f"# tracing overhead: {len(jobs) / traced_s:.3f} jobs/s traced vs {len(jobs) / plain_s:.3f} "
              f"untraced, each job run both ways back to back ({layer_metrics['trace.overhead_share']:.1%})")
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_metrics[m["name"]], "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    problems = judge.unexplained + problems
    for problem in problems:
        print(f"# NOT CORRECT: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
