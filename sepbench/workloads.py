"""Workload definitions: the job pools and the seeded draw of one cycle.

A cycle is the job list of a workload: every job of it runs once, one at a
time.  The seed changes the list (class orders of every signature, the
members drawn from the interchangeable pools below, the job order) but not
its shape, so the work a cycle does is nearly the same for every seed.

Every job is a plain tuple ``(kind, *params)`` of JSON-able values, so job
lists can be compared, printed and stored.  Signatures are lists of class
sizes in the order passed to the program; references are keyed by the
sorted sizes where the answer does not depend on the order.

This module imports nothing from the program, so the reference generator
and the self-check can use it without it.
"""

from __future__ import annotations

import random

WORKLOADS = ("hstar-crosscheck", "tree-enum", "cl-certify", "cli-mix")


def partitions(total: int, min_parts: int = 2) -> list[tuple[int, ...]]:
    """Sorted class-size tuples with the given total and at least min_parts parts."""
    out = []

    def grow(prefix: list[int], left: int) -> None:
        if left == 0:
            if len(prefix) >= min_parts:
                out.append(tuple(prefix))
            return
        start = prefix[-1] if prefix else 1
        for a in range(start, left + 1):
            grow(prefix + [a], left - a)

    grow([], total)
    return out


def has_closed_form(parts) -> bool:
    """The signatures `closed_form_hstar` documents a formula for:
    bipartite, tripartite and K_{1,1,1,n}."""
    s = sorted(parts)
    return len(s) in (2, 3) or (len(s) == 4 and s[:3] == [1, 1, 1])


def key(parts) -> str:
    """Order-free reference key of a signature."""
    return ",".join(str(a) for a in sorted(parts))


def okey(parts) -> str:
    """Order-sensitive key of a signature as passed to the program."""
    return ",".join(str(a) for a in parts)


# -- hstar-crosscheck -----------------------------------------------------
# every signature with 5 or 6 vertices, each method that applies
HSTAR_SIGS = partitions(5) + partitions(6)

# -- tree-enum --------------------------------------------------------------
TREE_FIXED = [(1,) * 7, (2, 2, 3), (1, 3, 3), (1, 1, 5)]
TREE_DRAWN = [(1, 2, 4), (1, 1, 1, 4)]  # one of these, similar cost
SPLIT_FIXED = [(1, 1, 2, 3)]
SPLIT_DRAWN = [(1, 2, 3), (2, 2, 2), (1, 1, 4)]  # one of these
CONJECTURE = (6, 8)  # conjecture_scan(max_total, max_n)

# -- cl-certify ---------------------------------------------------------------
CL_KMM = [10, 12, 14, 16]  # K_{m,m}, growing degree
CL_BIP_SUMS = [25, 27]  # K_{a,b} with a + b fixed, a drawn
CL_BIP_MIN = 6
CL_TRI_SUMS = [12, 15]  # K_{a,b,c} with a + b + c fixed, drawn
CL_1MN_SUMS = [16, 20]  # K_{1,m,n} with m + n fixed, m drawn
CL_111N = [12, 16]
CL_22N = [12, 16]
# interlacing chains g < f for n = 1..N: (name, N)
CHAINS = [("bip1n<1mn11", 10), ("1mn11<111n", 10), ("1mn11<1mn11+", 10), ("kmm<kmm+", 8)]
RELATION_NS = [4, 5, 6]
COROLLARY_PAIRS = [(3, 9), (3, 10), (4, 8), (4, 9), (4, 10)]


def cl_params(rng: random.Random) -> list[tuple]:
    jobs = [("bip", m, m) for m in CL_KMM]
    for s in CL_BIP_SUMS:
        a = rng.randrange(CL_BIP_MIN, s // 2 + 1)
        jobs.append(("bip", a, s - a))
    for s in CL_TRI_SUMS:
        jobs.append(("tri", *rng.choice([p for p in partitions(s, 3) if len(p) == 3])))
    for s in CL_1MN_SUMS:
        m = rng.randrange(1, s // 2 + 1)
        jobs.append(("1mn", m, s - m))
    jobs += [("111n", n) for n in CL_111N] + [("22n", n) for n in CL_22N]
    return jobs


def family_parts(fam: tuple) -> tuple[int, ...]:
    """Class sizes of a family member: ("bip", a, b), ("tri", a, b, c),
    ("1mn", m, n) for K_{1,m,n}, ("111n", n), ("22n", n), or ("sig", *parts)."""
    kind, *args = fam
    prefix = {"bip": (), "tri": (), "sig": (), "1mn": (1,), "111n": (1, 1, 1), "22n": (2, 2)}[kind]
    return (*prefix, *args)


def chain_pairs(name: str, top: int) -> list[tuple[tuple, tuple]]:
    """(g, f) family parameters of an interlacing chain, n = 1..top."""
    pairs = []
    for n in range(1, top + 1):
        if name == "bip1n<1mn11":
            pairs.append((("bip", 1, n), ("1mn", 1, n)))
        elif name == "1mn11<111n":
            pairs.append((("1mn", 1, n), ("111n", n)))
        elif name == "1mn11<1mn11+":
            pairs.append((("1mn", 1, n), ("1mn", 1, n + 1)))
        elif name == "kmm<kmm+":
            pairs.append((("bip", n, n), ("bip", n, n + 1)))
        else:
            raise ValueError(name)
    return pairs


# -- cli-mix --------------------------------------------------------------
CLI_HSTAR_ALL_7 = (2, 2, 3)  # the oracle is skipped here by the default bound
CLI_HSTAR_ALL_5 = [(1, 2, 2), (1, 1, 1, 2), (1, 1, 3), (1, 1, 1, 1, 1)]
CLI_DILATION = [(1, 1, 1, 2), (1, 2, 2)]  # with --max-dilation CLI_DILATION_K
CLI_DILATION_K = 10
CLI_CSV_BIP = [(3, 5), (4, 4), (2, 6)]
CLI_ROOTS = [(8, 8), (7, 9), (3, 4, 5), (1, 1, 1, 9)]
CLI_ROOTS_CSV = [(2, 2), (3, 3), (2, 4)]
# interlacing statements E(a) interlaces E(b) that hold
CLI_INTERLACE = [((1, 4), (1, 1, 4)), ((1, 1, 5), (1, 1, 1, 5)), ((1, 1, 6), (1, 1, 7)), ((1, 1, 5), (1, 2, 5))]
CLI_K222_SEEDS = list(range(1, 17))
CLI_BUCHBERGER_EXPORT = (1, 1, 2)
CLI_BUCHBERGER = (1, 2, 2)
CLI_RELATION = [("a", 4), ("c", 5), ("e", 4), ("h", 5)]
CLI_COROLLARY = [(4, 10), (4, 9), (3, 10)]


def cli_argvs(rng: random.Random) -> list[list[str]]:
    """The argument vectors of one cli-mix cycle: every subcommand, with two
    calls drawn from each pool of cheap calls."""

    def o(parts) -> str:
        parts = list(parts)
        rng.shuffle(parts)
        return okey(parts)

    def two(pool):
        return rng.sample(pool, 2)

    argvs = [
        ["hstar", "--signature", o(CLI_HSTAR_ALL_7), "--method", "all"],
        ["hstar", "--signature", o(rng.choice(CLI_DILATION)), "--method", "oracle",
         "--max-dilation", str(CLI_DILATION_K)],
        ["gb", "--signature", "2,2,2", "--checks", "reduced,lead,degree,membership,k222",
         "--seed", str(rng.choice(CLI_K222_SEEDS))],
        ["gb", "--signature", o(CLI_BUCHBERGER_EXPORT), "--checks", "buchberger,export"],
        ["gb", "--signature", o(CLI_BUCHBERGER), "--checks", "buchberger"],
        ["recursion", "--n", "5"],
        ["scan", "--kind", "conjecture", "--max-total", str(CONJECTURE[0]), "--max-n", str(CONJECTURE[1])],
        ["scan", "--kind", "k222", "--seed", str(rng.choice(CLI_K222_SEEDS))],
    ]
    argvs += [["hstar", "--signature", o(p), "--method", "all"] for p in two(CLI_HSTAR_ALL_5)]
    argvs += [["hstar", "--signature", o(p), "--method", "formula", "--format", "csv"] for p in two(CLI_CSV_BIP)]
    argvs += [["roots", "--signature", o(p)] for p in two(CLI_ROOTS)]
    argvs += [["roots", "--signature", o(p), "--format", "csv"] for p in two(CLI_ROOTS_CSV)]
    argvs += [["interlace", "--a", o(a), "--b", o(b)] for a, b in two(CLI_INTERLACE)]
    argvs += [["recursion", "--relation", r, "--n", str(n)] for r, n in two(CLI_RELATION)]
    argvs += [["scan", "--kind", "corollary", "--m", str(m), "--max-n", str(n)] for m, n in two(CLI_COROLLARY)]
    return argvs


def cycle_jobs(workload: str, seed: int, cycle: int = 0) -> list[tuple]:
    """The seeded job list of one cycle of a workload."""
    rng = random.Random(f"{workload}/{seed}/{cycle}")

    def o(parts) -> list[int]:
        parts = list(parts)
        rng.shuffle(parts)
        return parts

    if workload == "hstar-crosscheck":
        jobs = []
        for parts in HSTAR_SIGS:
            sig = o(parts)
            for method in ("oracle", "triangulation", "formula"):
                if method != "formula" or has_closed_form(sig):
                    jobs.append(("hstar", sig, method))
    elif workload == "tree-enum":
        sigs = TREE_FIXED + [rng.choice(TREE_DRAWN)]
        jobs = [("hstar", o(p), "triangulation") for p in sigs]
        jobs += [("split", o(p)) for p in SPLIT_FIXED + [rng.choice(SPLIT_DRAWN)]]
        jobs.append(("conjecture", *CONJECTURE))
    elif workload == "cl-certify":
        jobs = [("cl", *p) for p in cl_params(rng)]
        jobs += [("chain", name, top) for name, top in CHAINS]
        jobs.append(("relations", rng.choice(RELATION_NS)))
        jobs.append(("corollary", *rng.choice(COROLLARY_PAIRS)))
    elif workload == "cli-mix":
        jobs = [("cli", *argv) for argv in cli_argvs(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs
