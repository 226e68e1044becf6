#!/usr/bin/env python3
"""Self-checks of the benchmark.  Run from the repository root:

    python3 sepbench/selfcheck.py

1. The same seed gives the same job list; another seed gives another list,
   drawn from the same pools: every job of both lists has an entry in
   reference.json.
2. With every answer in reference.json corrupted (integers and fractions
   moved by one, verdicts flipped), every job of one cycle of every
   workload fails, so ok_ratio drops below 1.
3. With the true reference, the same jobs pass.

Takes about three minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, run.SRC)


def referenced(job, ref: dict) -> bool:
    """Whether reference.json answers this job, i.e. it comes from the pools."""
    kind = job[0]
    if kind == "hstar":
        return W.key(job[1]) in ref["hstar"]
    if kind == "split":
        return W.okey(job[1]) in ref["split"]
    if kind == "conjecture":
        return f"{job[1]},{job[2]}" in ref["conjecture"]
    if kind == "cl":
        return W.key(W.family_parts(job[1:])) in ref["cl"]
    if kind == "chain":
        return job[1] in ref["chains"]
    if kind == "relations":
        return str(job[1]) in ref["relations"]
    if kind == "corollary":
        return f"{job[1]},{job[2]}" in ref["corollary"]
    if kind == "cli":
        return " ".join(job[1:]) in ref["cli_digest"]
    return False


def corrupt(value):
    """Every answer moved: integers and fractions by one, booleans flipped."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        try:
            return str(Fraction(value) + 1)
        except ValueError:
            return value
    if isinstance(value, list):
        return [corrupt(v) for v in value]
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    return value


def run_cycle(workload: str, ref: dict) -> run.Run:
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=0)
    r = run.Run(args, ref)
    r.host.sample()
    r.cycle(0, deadline=float("inf"))
    return r


def main() -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    problems = []
    for w in W.WORKLOADS:
        a, again, b = W.cycle_jobs(w, 7), W.cycle_jobs(w, 7), W.cycle_jobs(w, 8)
        if a != again:
            problems.append(f"{w}: seed 7 gave two different job lists")
        if a == b:
            problems.append(f"{w}: seeds 7 and 8 gave the same job list")
        missing = [job for job in a + b if not referenced(job, ref)]
        if missing:
            problems.append(f"{w}: jobs outside the pools: {missing}")
    print("job lists:", "ok" if not problems else problems)

    import signal

    signal.signal(signal.SIGALRM, run._alarm)
    bad = {k: (v if k == "cli_digest" else corrupt(v)) for k, v in copy.deepcopy(ref).items()}
    for w in W.WORKLOADS:
        corrupted = run_cycle(w, bad)
        honest = run_cycle(w, ref)
        line = (f"{w}: corrupted reference {len(corrupted.failures)}/{corrupted.attempted} failed, "
                f"true reference {len(honest.failures)}/{honest.attempted} failed")
        print(line, flush=True)
        if len(corrupted.failures) != corrupted.attempted or honest.failures:
            problems.append(line)
    print("selfcheck:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
