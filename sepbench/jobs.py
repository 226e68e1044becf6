"""Running one job and checking its result against ``reference.json``.

Library jobs call the program's public functions in this process; CLI jobs
start one ``sepkit`` process each.  A job fails when its result differs
from the reference, when it raises, when a CLI process exits with another
code than the reference implies, or when it times out.  A CLI output whose
bytes differ from the recorded digest is counted, not failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))


class Failure(Exception):
    """A job's result disagrees with the reference."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Failure(msg)


def ints(poly) -> list[int]:
    """Integer coefficient list of a `Poly` (constant term first)."""
    return [int(c) for c in poly.coeffs]


def fracs(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def padded(values: list[int], length: int) -> list[int]:
    return values + [0] * (length - len(values))


# ---------------------------------------------------------------------------
# checks shared by library and CLI jobs
# ---------------------------------------------------------------------------


def check_certificate(cert: dict, ref: dict) -> None:
    """A canonical-line certificate (``RootCertificate.as_dict()``) against
    the independently bracketed roots: same verdict, one reference root in
    each certified bracket, the same multiplicities."""
    expect(cert["on_cl"] == ref["on_cl"], f"on_cl {cert['on_cl']} != {ref['on_cl']}")
    if not ref["on_cl"]:
        return
    expect(cert["parity"] == ref["parity"], "parity differs")
    zero = [r for r in cert["w_roots"] if Fraction(r["hi"]) == 0 and Fraction(r["lo"]) == 0]
    expect(sum(r["multiplicity"] for r in zero) == ref["zero_multiplicity"], "multiplicity of w = 0 differs")
    brackets = [(Fraction(r["lo"]), Fraction(r["hi"]), r["multiplicity"]) for r in cert["w_roots"] if r not in zero]
    roots = [(Fraction(lo), Fraction(hi)) for lo, hi in ref["roots"]]
    expect(len(brackets) == len(roots), f"{len(brackets)} brackets for {len(roots)} roots")
    for lo, hi, mult in brackets:
        inside = sum(1 for rlo, rhi in roots if rlo <= hi and lo <= rhi)
        expect(inside == 1 and mult == 1, f"bracket ({lo}, {hi}) holds {inside} roots, multiplicity {mult}")


def check_relations(report: dict, ref: dict, only: str | None = None) -> None:
    rows = {r["relation"]: r for r in report["rows"]}
    names = [only] if only else list(ref["rows"])
    expect(sorted(rows) == sorted(names), f"relations reported {sorted(rows)}")
    for name in names:
        row, want = rows[name], ref["rows"][name]
        expect(row["verified"] == want["verified"], f"relation {name}: verified {row['verified']}")
        if row["coefficients"]:
            expect(fracs(row["coefficients"]) == fracs(want["coefficients"]), f"relation {name}: coefficients")
    if only is None:
        expect([i["certified"] for i in report["interlacings"]] == ref["interlacings"], "interlacings differ")


def check_corollary(report: dict, ref: dict, m: int) -> None:
    rows = {r["corollary"]: r for r in report["rows"]}
    expect(sorted(rows) == sorted(ref["rows"]), "corollary rows differ")
    for label, want in ref["rows"].items():
        expect(rows[label]["status"] == want["status"], f"{label}: status {rows[label]['status']}")
        expect(fracs(rows[label]["coefficients"]) == fracs(want["coefficients"]), f"{label}: coefficients")
    if m == 4:
        expect(Fraction(report["alpha2"]) == Fraction(ref["rows"]["ladder-up"]["coefficients"][3]), "alpha2")
        expect(report["alpha2_matches"] is True, "alpha2 closed form not matched")


def check_conjecture(report: dict, ref: dict) -> None:
    rows = {r["signature"]: r["cross_degree"] for r in report["rows"]}
    expect(rows == ref["rows"], "cross-degrees differ")
    expect([r["certified"] for r in report["interlacings"]] == ref["interlacings"], "interlacings differ")
    expect(report["violations"] == ref["violations"], f"violations {report['violations']}")


# ---------------------------------------------------------------------------
# library jobs
# ---------------------------------------------------------------------------


def family_ehrhart(fam: tuple):
    from sepkit import ehrhart_from_hstar, hstar_tripartite
    from sepkit.formulas import ehrhart_111n, ehrhart_1mn, ehrhart_22n, ehrhart_bipartite

    kind, *args = fam
    if kind == "bip":
        return ehrhart_bipartite(*args)
    if kind == "tri":
        return ehrhart_from_hstar(hstar_tripartite(*args))
    if kind == "1mn":
        return ehrhart_1mn(*args)
    if kind == "111n":
        return ehrhart_111n(*args)
    if kind == "22n":
        return ehrhart_22n(*args)
    raise ValueError(kind)


def run_library_job(job: tuple, ref: dict) -> None:
    import sepkit

    kind = job[0]
    if kind == "hstar":
        _, parts, method = job
        sig = sepkit.Signature(tuple(parts))
        if method == "formula":
            h = sepkit.closed_form_hstar(sig)
            expect(h is not None, f"no closed form for {sig}")
        elif method == "triangulation":
            h = sepkit.hstar_triangulation(sig)
        else:
            h = sepkit.hstar_oracle(sig)
        expect(list(h.coefficients) == ref["hstar"][W.key(parts)], f"h* of {sig} by {method}")
    elif kind == "split":
        parts = job[1]
        type_i, type_ii = sepkit.hstar_split_by_facet_type(sepkit.Signature(tuple(parts)))
        want = ref["split"][W.okey(parts)]
        size = len(want["type_i"])
        expect(padded(ints(type_i), size) == want["type_i"], "type-(i) part")
        expect(padded(ints(type_ii), size) == want["type_ii"], "type-(ii) part")
    elif kind == "conjecture":
        check_conjecture(sepkit.conjecture_scan(job[1], job[2]), ref["conjecture"][f"{job[1]},{job[2]}"])
    elif kind == "cl":
        fam = job[1:]
        want = ref["cl"][W.key(W.family_parts(fam))]
        e = family_ehrhart(fam)
        expect(list(e.coeffs) == fracs(want["ehrhart"]), f"Ehrhart polynomial of {fam}")
        check_certificate(sepkit.is_cl(e).as_dict(), want)
    elif kind == "chain":
        verdicts = [
            sepkit.interlaces_on_cl(family_ehrhart(g), family_ehrhart(f)).interlaces
            for g, f in W.chain_pairs(job[1], job[2])
        ]
        expect(verdicts == ref["chains"][job[1]], f"chain {job[1]}: {verdicts}")
    elif kind == "relations":
        check_relations(sepkit.reproduce_known_relations(job[1], strict=False), ref["relations"][str(job[1])])
    elif kind == "corollary":
        m, n = job[1], job[2]
        check_corollary(sepkit.corollary_scan(m, n), ref["corollary"][f"{m},{n}"], m)
    else:
        raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def cli_command(argv: list[str], spans_path: str | None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "sepkit.cli", *argv]
    return [sys.executable, os.path.join(HERE, "tracecli.py"), spans_path, *argv]


def opt(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cli(argv: list[str], code: int, out: bytes, ref: dict, counts: dict) -> None:
    """Check one CLI call's exit code and output; update the counts."""
    if hashlib.sha256(out).hexdigest() != ref["cli_digest"].get(" ".join(argv)):
        counts["output_changed"] += 1
    cmd, fmt = argv[0], opt(argv, "--format", "json")
    text = out.decode()
    payload = json.loads(text)["result"] if fmt == "json" else None
    expected_code = 0
    if cmd == "hstar":
        parts = [int(a) for a in opt(argv, "--signature").split(",")]
        want = ref["hstar"][W.key(parts)]
        if fmt == "csv":
            rows = [[int(v) for v in line.split(",")[1:]] for line in text.splitlines()[1:]]
        else:
            rows = [r["coefficients"] for r in payload["rows"] if "coefficients" in r]
        expect(rows and all(r == want for r in rows), f"h* rows of {parts}: {rows}")
        if opt(argv, "--method") == "all":
            counts["methods_requested"] += 3
            counts["methods_reported"] += len(rows)
        if "--max-dilation" in argv:
            got = [(d["k"], d["count"]) for d in payload["dilation_counts"]]
            expect(got == list(enumerate(ref["counts"][W.key(parts)])), "dilation counts")
    elif cmd == "roots":
        want = ref["cl"][W.key(int(a) for a in opt(argv, "--signature").split(","))]
        if fmt == "csv":
            lines = [line.split(",") for line in text.splitlines()[1:]]
            expect(len(lines) == len(want["ehrhart"]) - 1, "one CSV line per root")
            for lo, _ in want["roots"]:
                s = float((-Fraction(lo)) ** 0.5 / 2)
                for sign in (1, -1):
                    expect(any(float(Fraction(a)) - 1e-9 <= sign * s <= float(Fraction(b)) + 1e-9
                               for _, a, b in lines), f"imaginary part {sign * s} not bracketed")
        else:
            expect(fracs(payload["ehrhart"]) == fracs(want["ehrhart"]), "Ehrhart polynomial")
            check_certificate(payload["certificate"], want)
        expected_code = 0 if want["on_cl"] else 3
    elif cmd == "interlace":
        a, b = (W.key(int(x) for x in opt(argv, o).split(",")) for o in ("--a", "--b"))
        want = ref["interlace"][f"{a}|{b}"]
        expect(payload["certificate"]["interlaces"] == want, "interlacing verdict")
        expected_code = 0 if want else 3
    elif cmd == "gb":
        want = ref["gb"]
        for check in ("reduced", "lead_consistent", "at_most_cubic", "toric_membership", "buchberger"):
            expect(payload.get(check, want["verified"]) is want["verified"], f"gb check {check}")
        if "k222" in payload:
            k222 = payload["k222"]
            expect(k222["all_orders_obstructed"] is want["k222_all_obstructed"], "K222 order scan verdict")
            expect(k222["seed"] == int(opt(argv, "--seed")), "K222 seed not echoed")
        if "max_degree" in payload and opt(argv, "--signature") == "2,2,2":
            expect(payload["max_degree"] == want["k222_max_degree"], "K222 basis degree")
        if "basis" in payload:
            expect(len(payload["basis"]) == payload["size"], "exported basis size")
    elif cmd == "recursion":
        n = opt(argv, "--n")
        only = opt(argv, "--relation")
        want = ref["relations"][n]
        check_relations(payload, want, only)
        names = [only] if only else list(want["rows"])
        expected_code = 0 if all(want["rows"][r]["verified"] for r in names) else 3
    elif cmd == "scan":
        kind = opt(argv, "--kind")
        if kind == "conjecture":
            want = ref["conjecture"][f"{opt(argv, '--max-total')},{opt(argv, '--max-n')}"]
            check_conjecture(payload, want)
            expected_code = 0 if want["violations"] == 0 else 3
        elif kind == "corollary":
            m = int(opt(argv, "--m"))
            want = ref["corollary"][f"{m},{opt(argv, '--max-n')}"]
            check_corollary(payload, want, m)
            expected_code = 0 if all(r["status"] == "unique" for r in want["rows"].values()) else 3
        else:
            expect(payload["all_orders_obstructed"] is ref["gb"]["k222_all_obstructed"], "K222 order scan verdict")
            expect(payload["seed"] == int(opt(argv, "--seed")), "K222 seed not echoed")
    expect(code == expected_code, f"exit code {code}, expected {expected_code}")
