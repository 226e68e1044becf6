#!/usr/bin/env python3
"""The sepkit benchmark: one closed-loop client, one job in flight.

Usage, from the repository root:

    python3 sepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's job list (workloads.py) is drawn from the seed and run as a
cycle, one job at a time; cycles repeat while another one fits into S
seconds, and at least one always runs.  Every result is checked against
reference.json.  Library workloads call the program in this process after
a warm-up; cli-mix starts one ``sepkit`` process per call.

The last line of standard output is the result, as JSON.  With --trace 0 it
holds the end-to-end metrics:

    wall_s        seconds to finish every job of a cycle (median over the
                  cycles of the run)
    job_p50_s     median seconds per job, Harrell-Davis estimate
                  (``attempted`` is the job count)
    ok_ratio      jobs passed / jobs attempted (1 - the failure ratio)
    setup_s       median seconds, over five fresh processes, from process
                  start until the program is imported and warmed up
    peak_rss_mib  peak resident memory of this process, or of the largest
                  CLI process in cli-mix

All times are taken at a reference host speed: the speed of a shared host
drifts by up to a third over tens of seconds, so every interval is scaled by
how fast a fixed pure-Python loop ran around it (HostSpeed).  The unscaled
cycle times are kept in the result file.

With --trace 1 every call into a layer's public functions gets a span and
the result holds the per-layer metrics (tracing.py), in unscaled seconds.
The line before the result holds the run's metadata; the spans and the full
result are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, cycle_jobs  # noqa: E402

SETUP_PROBES = 5
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no job starts later; the remaining jobs count as timed out
# Host speed: a fixed loop is timed SAMPLES_BETWEEN_JOBS times between jobs
# and every SAMPLE_CPU_S of CPU time during a job; each interval, less the
# loops run inside it, is scaled by C_REF_S over the mean loop time within
# WINDOW_S of it.  C_REF_S is the loop's time on the 2-core host the
# reference figures were taken on; it fixes the scale only.
C_REF_S = 0.007
SAMPLE_CPU_S = 0.25
SAMPLES_BETWEEN_JOBS = 5
WINDOW_S = 2.0


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median time, at reference speed, from spawning a fresh interpreter
    until probe.py reports the program imported and warmed up."""
    host = HostSpeed()
    host.sample()
    spans = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            spans.append((t0, time.perf_counter()))
            proc.stdout.read()
            if proc.wait(timeout=JOB_TIMEOUT_S) != 0 or line.strip() != b"ready":
                raise RuntimeError("set-up probe failed")
        host.sample()
    return median(host.scaled(t0, t1) for t0, t1 in spans)


def metadata(args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sepkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import sepkit.counting

    compiled = getattr(sepkit.counting, "USING_COMPILED_KERNEL", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "counting_kernel": {True: "compiled", False: "pure", None: "single"}[compiled],
    }


def host_loop() -> None:
    """A fixed pure-Python loop (fractions, dicts, lists)."""
    acc, table = Fraction(0), {}
    for i in range(1, 1000):
        acc += Fraction(i, i + 1)
        table[i % 97] = table.get(i % 97, 0) + i * i
        [j * j for j in range(20)]


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics with Beta((n+1)/2, (n+1)/2) weights, taken at bin midpoints.
    Steadier than the middle value when the jobs near it differ in size."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    weights = [((i + 0.5) / n * (1 - (i + 0.5) / n)) ** (a - 1) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class HostSpeed:
    """Times of `host_loop`, sampled between jobs and, on SIGVTALRM, during
    them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, seconds)

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        host_loop()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        """Sample during jobs too, from now on."""
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1], less the loops run in it, at reference speed,
        from the loop times within WINDOW_S of the interval."""
        near = [(end, d) for end, d in self.samples if t0 - WINDOW_S <= end <= t1 + WINDOW_S]
        inside = sum(d for end, d in near if t0 < end <= t1)
        return (t1 - t0 - inside) * C_REF_S * len(near) / sum(d for _, d in near)


class Run:
    def __init__(self, args, ref: dict):
        self.args = args
        self.ref = ref
        self.cli = args.workload == "cli-mix"
        self.tracer = tracing.Tracer() if args.trace else None
        self.job_times: list[float] = []
        self.cycle_walls: list[float] = []
        self.raw_walls: list[float] = []
        self.host = HostSpeed()
        self.attempted = 0
        self.failures: list[str] = []
        self.cli_counts = {"output_changed": 0, "methods_reported": 0, "methods_requested": 0}

    def fail(self, job, why: str) -> None:
        self.failures.append(f"{json.dumps(job)}: {why}")
        print(f"FAIL {json.dumps(job)}: {why}", file=sys.stderr)

    def run_library(self, job, limit: float) -> None:
        span = self.tracer.open(f"job.{job[0]}") if self.tracer else None
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            jobs.run_library_job(job, self.ref)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if span:
                self.tracer.pause(span)

    def run_cli(self, job, limit: float) -> None:
        argv = list(job[1:])
        spans_path = os.path.join(OUT, f"cli-spans-{os.getpid()}.json") if self.tracer else None
        span = self.tracer.open(f"cli.{argv[0]}") if self.tracer else None
        try:
            proc = subprocess.run(jobs.cli_command(argv, spans_path), cwd=ROOT, env=child_env(),
                                  capture_output=True, timeout=limit)
        except subprocess.TimeoutExpired:
            raise JobTimeout() from None
        finally:
            if span:
                self.tracer.pause(span)
        if spans_path:
            with open(spans_path) as fh:
                self.tracer.adopt(json.load(fh), span)
            os.remove(spans_path)
        jobs.check_cli(argv, proc.returncode, proc.stdout, self.ref, self.cli_counts)

    def timed(self, job, deadline: float) -> None:
        self.attempted += 1
        limit = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
        if limit <= 0:
            self.fail(job, "not started before the run deadline")
            return
        try:
            (self.run_cli if self.cli else self.run_library)(job, limit)
        except JobTimeout:
            self.fail(job, f"timed out after {limit:.0f} s")
        except jobs.Failure as exc:
            self.fail(job, str(exc))
        except Exception as exc:  # any error is a failed job; the run goes on
            self.fail(job, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def cycle(self, index: int, deadline: float) -> None:
        spans = []
        for job in cycle_jobs(self.args.workload, self.args.seed, index):
            t0 = time.perf_counter()
            self.timed(job, deadline)
            spans.append((t0, time.perf_counter()))
            for _ in range(SAMPLES_BETWEEN_JOBS):
                self.host.sample()
        scaled = [self.host.scaled(t0, t1) for t0, t1 in spans]
        self.job_times += scaled
        self.raw_walls.append(sum(t1 - t0 for t0, t1 in spans))
        self.cycle_walls.append(sum(scaled))

    def run(self) -> None:
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE_S
        index = 0
        self.host.sample()
        if not self.tracer:  # the loop would count toward the spans it interrupts
            self.host.start()
        while True:
            self.cycle(index, deadline)
            index += 1
            now = time.perf_counter()
            if now + max(self.raw_walls) > start + self.args.seconds:
                break
        self.host.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sepkit", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    # one CPU for this process and every process it starts, so that the host
    # speed sampled here is the speed the CLI processes see
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)

    setup_s = measure_setup()
    sys.path.insert(0, SRC)
    meta = metadata(args)
    run = Run(args, ref)
    span_cost = 0.0
    if args.trace:
        span_cost = tracing.calibrate()
        run.tracer.install()
    if not run.cli:
        from probe import warm_up

        span = run.tracer.open("setup.warmup") if run.tracer else None
        warm_up()
        if span:
            run.tracer.pause(span)
    run.run()

    if args.trace:
        raw = tracing.layer_metrics(run.tracer.spans, run.cli_counts, run.cycle_walls, run.raw_walls, span_cost)
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if run.cli else resource.RUSAGE_SELF)
        raw = {
            "wall_s": (median(run.cycle_walls), "s"),
            "job_p50_s": (hd_median(run.job_times), "s"),
            "ok_ratio": ((run.attempted - len(run.failures)) / run.attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (usage.ru_maxrss / 1024, "MiB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "cycles": run.cycle_walls, "raw_cycles": run.raw_walls, "failures": run.failures, **result}, fh, indent=1)
    if args.trace:
        run.tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
