"""Command-line interface: exact h* computation with cross-validation, root
and interlacing certificates, Groebner verification, recursion reports, and
the conjecture/corollary scans.

Every numeric payload value is an exact integer or fraction string; nothing
is ever rounded.  Output is byte-stable for fixed arguments and seeds
(timing is only attached on request).  Exit codes: 0 all requested checks
passed; 1 a usage error, that is any other ``ValueError``, or a stdout
that the reader closed before the output was written, which exits with
nothing on stderr; 2 a ``SizeExceeded``; 3 a check that came out false, or
a ``VerificationFailed`` from any layer.  Each exception class thus fixes
its own exit code, and any other exception is a bug that propagates.

Each ``cmd_*`` returns ``(parameters, result, verdict)`` and writes nothing
but the CSV of ``hstar`` and ``roots``, for which it returns no result;
``main`` alone builds the envelope, renders it and turns the verdict into
exit code 0 or 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .graphs import Signature, SizeExceeded, VerificationFailed

if TYPE_CHECKING:
    from .polynomial import HStar, Poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_VERIFICATION = 3

# vertex bound of every Ehrhart polynomial that `roots`, `interlace`,
# `recursion` and `scan` build, not an option: at 100 vertices `is_cl`
# takes about 0.25 to 1.1 s, almost all of it the Sturm verdict, and the
# slowest call within it, `scan --kind corollary --m 49 --max-n 49`, 68 s
# (Python 3.11.7 on a 2-core host)
ROOTS_MAX_TOTAL = 100

# bound of `scan --kind conjecture --max-total`, not an option: the rows
# run over every partition up to it, and at 40 the scan takes 11 to 14 s
# and prints 47 MB (`--max-n 1`, Python 3.11.7 on a 2-core host); 40 is
# also the total up to which gamma >= 0 has been checked
SCAN_MAX_TOTAL = 40

# dilation bound of `hstar --max-dilation`, not an option and not lifted by
# --bound: the count grows about as k^4, and at 36 the worst signatures
# within the counting bound of 36 vertices, 2^18 and 1^36, take 7 to 9 s
# for `--method all` (Python 3.11.7 on a 2-core host)
HSTAR_MAX_DILATION = 36

# the checks of `gb`, in the order of its --checks help
GB_CHECKS = ("reduced", "lead", "degree", "membership", "buchberger", "k222", "export")


def _emit_plain(payload: dict, prefix: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            _emit_plain(value, prefix + key + ".")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, row in enumerate(value):
                _emit_plain(row, prefix + f"{key}[{i}].")
        else:
            print(f"{prefix}{key} = {value}")


def cmd_hstar(args) -> tuple[dict, dict | None, bool]:
    sig = Signature.parse(args.signature)
    if args.max_dilation is not None:
        if args.method not in ("oracle", "all"):
            raise ValueError(f"--max-dilation needs --method oracle or all, not {args.method}")
        if args.max_dilation < 0:
            raise ValueError(f"--max-dilation must be nonnegative, not {args.max_dilation}")
        if args.max_dilation > HSTAR_MAX_DILATION:
            raise SizeExceeded(f"--max-dilation {args.max_dilation} exceeds bound {HSTAR_MAX_DILATION}")
    if args.bound is not None and args.method == "formula":
        raise ValueError("--bound needs --method triangulation, oracle or all, not formula")
    compare = args.method == "all"
    methods = ["formula", "triangulation", "oracle"] if compare else [args.method]
    rows = []
    values: list[tuple[str, HStar]] = []
    for method in methods:
        try:
            if method == "formula":
                from .formulas import closed_form_hstar

                h = closed_form_hstar(sig)
            elif method == "triangulation":
                from .triangulation import hstar_triangulation

                h = hstar_triangulation(sig, max_total=args.bound)
            else:
                from .counting import dilation_counts, hstar_from_counts

                # one run of dilates serves both the oracle's h* and --max-dilation
                counts = dilation_counts(sig, max(sig.dim // 2 + 1, args.max_dilation or 0), max_total=args.bound)
                h = hstar_from_counts(sig, counts)
        except SizeExceeded as exc:
            if not compare:
                raise
            rows.append({"method": method, "skipped": str(exc)})
            continue
        values.append((method, h))
        rows.append({"method": method, "coefficients": list(h.coefficients)})
    agree = len({h for _, h in values}) == 1
    result = {"signature": str(sig), "rows": rows, "agreement": agree}
    if compare:
        result["methods_compared"] = len(values)
    if args.max_dilation is not None:
        oracle = rows[-1]  # the oracle's row comes last; run alone, it raises instead of skipping
        if "skipped" in oracle:
            result["dilation_counts_skipped"] = oracle["skipped"]
        else:
            result["dilation_counts"] = [{"k": dc.k, "count": dc.count} for dc in counts[: args.max_dilation + 1]]
    if args.format == "csv":
        print("method," + ",".join(f"h{i}" for i in range(sig.dim + 1)))
        for method, h in values:
            print(method + "," + ",".join(str(c) for c in h.coefficients))
        result = None
    return {"signature": str(sig), "method": args.method}, result, agree


def _check_total(total: int) -> None:
    """Refuse an Ehrhart polynomial of more than ROOTS_MAX_TOTAL vertices."""
    if total > ROOTS_MAX_TOTAL:
        raise SizeExceeded(f"signature total {total} exceeds bound {ROOTS_MAX_TOTAL}")


def _ehrhart_of_signature(sig: Signature) -> Poly:
    """E from the closed form, which covers every signature, for a signature
    of at most ROOTS_MAX_TOTAL vertices."""
    _check_total(sig.total)
    from .formulas import closed_form_hstar
    from .polynomial import ehrhart_from_hstar

    return ehrhart_from_hstar(closed_form_hstar(sig))


def cmd_roots(args) -> tuple[dict, dict | None, bool]:
    from fractions import Fraction

    from .polynomial import fraction_str, poly_str
    from .roots import imaginary_bounds, is_cl

    sig = Signature.parse(args.signature)
    e = _ehrhart_of_signature(sig)
    cert = is_cl(e)
    if args.format == "csv":
        # one line per root of E: m lines for each root of the pair
        # -1/2 +- i s whose w-root has multiplicity m, and 2 z + parity lines
        # for the center, where z is the multiplicity of w = 0 in H
        print("re,im_interval_lo,im_interval_hi")
        center = Fraction(0), Fraction(0)
        rows = [center] * cert.parity
        for r in cert.w_roots:
            if r.exact == 0:
                rows += [center] * (2 * r.multiplicity)
            else:
                rows += [imaginary_bounds(r.lo, r.hi)] * r.multiplicity
        for lo, hi in sorted(rows):
            if lo == hi == 0:
                print("-1/2,0,0")
            else:
                print(f"-1/2,{fraction_str(-hi)},{fraction_str(-lo)}")
                print(f"-1/2,{fraction_str(lo)},{fraction_str(hi)}")
        result = None
    else:
        result = {"signature": str(sig), "ehrhart": poly_str(e), "certificate": cert.as_dict()}
    return {"signature": str(sig)}, result, cert.on_cl


def cmd_interlace(args) -> tuple[dict, dict | None, bool]:
    from .roots import NotCL, interlaces_on_cl

    params = {"a": args.a, "b": args.b}
    sig_a = Signature.parse(args.a)
    sig_b = Signature.parse(args.b)
    g = _ehrhart_of_signature(sig_a)
    f = _ehrhart_of_signature(sig_b)
    try:
        cert = interlaces_on_cl(g, f)
    except NotCL as exc:
        return params, {"error": str(exc)}, False
    return params, {"a": str(sig_a), "b": str(sig_b), "certificate": cert.as_dict()}, cert.interlaces


def cmd_recursion(args) -> tuple[dict, dict | None, bool]:
    from .recursion import RELATION_IDS, reproduce_known_relations

    _check_total(args.n + 4)  # K_{4,n} and K_{1,1,1,n+1}
    if args.relation != "all" and args.relation not in RELATION_IDS:
        raise ValueError(f"unknown relation id {args.relation!r}")
    report = reproduce_known_relations(args.n, strict=False)
    if args.relation != "all":
        report["rows"] = [r for r in report["rows"] if r["relation"] == args.relation]
    return {"relation": args.relation, "n": args.n}, report, all(r["verified"] for r in report["rows"])


def cmd_gb(args) -> tuple[dict, dict | None, bool]:
    from .grobner import (
        VarTable,
        basis_to_text,
        build_basis,
        buchberger_verify,
        k222_order_scan,
        leading_term_consistency,
        max_degree,
        reducedness_check,
        toric_membership_check,
    )

    sig = Signature.parse(args.signature)
    checks = args.checks.split(",") if args.checks else ["reduced", "lead", "degree", "membership"]
    k222 = SCAN_OPTIONS["k222"]
    _scan_options(args, k222, k222 if "k222" in checks else {}, "without --checks k222")
    for check in checks:
        if check not in GB_CHECKS:
            raise ValueError(f"unknown check {check!r}")
    if "k222" in checks and sig.parts != (2, 2, 2):  # the scan's graph is always K_{2,2,2}
        raise ValueError("--checks k222 needs --signature 2,2,2")
    vt = VarTable(sig)
    basis = build_basis(sig, vt)
    result: dict = {"signature": str(sig), "size": len(basis)}
    ok = True
    for check in checks:
        if check == "reduced":
            result["reduced"] = reducedness_check(basis)
            ok &= result["reduced"]
        elif check == "lead":
            result["lead_consistent"] = leading_term_consistency(basis)
            ok &= result["lead_consistent"]
        elif check == "degree":
            result["max_degree"] = max_degree(basis)
            result["at_most_cubic"] = result["max_degree"] <= 3
            ok &= result["at_most_cubic"]
        elif check == "membership":
            result["toric_membership"] = all(toric_membership_check(vt, e) for e in basis)
            ok &= result["toric_membership"]
        elif check == "buchberger":
            result["buchberger"] = buchberger_verify(sig)
            ok &= result["buchberger"]
        elif check == "k222":
            scan = k222_order_scan(args.orders, args.seed)
            result["k222"] = {
                "all_orders_obstructed": scan["all_orders_obstructed"],
                "num_orders": scan["num_orders"],
                "seed": scan["seed"],
            }
            ok &= scan["all_orders_obstructed"]
        else:  # export
            result["basis"] = basis_to_text(vt, basis).splitlines()
    return {"signature": str(sig), "checks": checks}, result, ok


# the options each scan kind reads, with their defaults; another kind's
# option is a usage error, not silently ignored.  `gb` reads the k222 ones
# under --checks k222 alone
SCAN_OPTIONS = {
    "conjecture": {"max_total": 6, "max_n": 8},
    "corollary": {"m": 4, "max_n": 8},
    "k222": {"orders": 100, "seed": 7},
}


def _scan_options(args, names, used: dict, where: str) -> None:
    """Set each option of `used` that is unset to its default, and refuse
    the other options of `names`, in that order, with a usage error."""
    for name in names:
        if name in used:
            if getattr(args, name) is None:
                setattr(args, name, used[name])
        elif getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply {where}")


def cmd_scan(args) -> tuple[dict, dict | None, bool]:
    names = ("max_total", "max_n", "m", "seed", "orders")
    _scan_options(args, names, SCAN_OPTIONS[args.kind], f"to --kind {args.kind}")
    if args.kind == "conjecture":
        from .recursion import conjecture_scan

        _check_total(args.max_n + 3)  # K_{1,1,1,max_n}
        if args.max_total > SCAN_MAX_TOTAL:
            raise SizeExceeded(f"--max-total {args.max_total} exceeds bound {SCAN_MAX_TOTAL}")
        report = conjecture_scan(args.max_total, args.max_n)
        ok = report["violations"] == 0
    elif args.kind == "corollary":
        from .recursion import corollary_scan

        _check_total(args.m + args.max_n + 2)  # K_{m+1,max_n+1}
        report = corollary_scan(args.m, args.max_n)
        ok = all(r["status"] == "unique" for r in report["rows"])
        if "alpha2_matches" in report:
            ok &= report["alpha2_matches"]
    else:  # k222; argparse rejects any other kind
        from .grobner import k222_order_scan

        report = k222_order_scan(args.orders, args.seed)
        ok = report["all_orders_obstructed"]
    return {"kind": args.kind}, report, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Exact Ehrhart invariants of symmetric edge polytopes of complete multipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json", "plain", "csv")):
        p.add_argument("--format", choices=fmt, default="json")
        p.add_argument("--timing", action="store_true", help="attach wall-clock timing to the envelope")

    p = sub.add_parser("hstar", help="h* coefficients by one or all methods")
    p.add_argument("--signature", required=True)
    p.add_argument("--method", choices=["formula", "triangulation", "oracle", "all"], default="all")
    p.add_argument(
        "--max-dilation", type=int, default=None,
        help="with the oracle method, also report lattice-point counts up to this dilation",
    )
    p.add_argument("--bound", type=int, default=None, help="size bound override (total vertices)")
    common(p)
    p.set_defaults(func=cmd_hstar)

    p = sub.add_parser("roots", help="canonical-line root certificate")
    p.add_argument("--signature", required=True)
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("interlace", help="certify E_a interlaces E_b on the canonical line")
    p.add_argument("--a", required=True, help="signature of the interlacing (lower-degree) polynomial")
    p.add_argument("--b", required=True, help="signature of the interlaced polynomial")
    common(p, fmt=("json", "plain"))
    p.set_defaults(func=cmd_interlace)

    p = sub.add_parser("recursion", help="solve and verify the catalogued recursions")
    p.add_argument("--relation", default="all", help="relation id a..j, bipartite-1..3, or 'all'")
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=("json", "plain"))
    p.set_defaults(func=cmd_recursion)

    p = sub.add_parser("gb", help="Groebner basis construction and verification")
    p.add_argument("--signature", required=True)
    p.add_argument("--checks", default="", help="comma list: " + ",".join(GB_CHECKS))
    p.add_argument("--seed", type=int, help="k222: seed of the random orders (default 7)")
    p.add_argument("--orders", type=int, help="k222: number of random edge orders (default 100)")
    common(p, fmt=("json", "plain"))
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("scan", help="conjecture / corollary / K222 order scans")
    p.add_argument("--kind", choices=["conjecture", "corollary", "k222"], required=True)
    p.add_argument("--max-total", type=int, help="conjecture: largest total with every signature (default 6)")
    p.add_argument("--max-n", type=int, help="conjecture: largest n of the interlacings; corollary: n (default 8)")
    p.add_argument("--m", type=int, help="corollary: row parameter (default 4)")
    p.add_argument("--seed", type=int, help="k222: seed of the random orders (default 7)")
    p.add_argument("--orders", type=int, help="k222: number of random edge orders (default 100)")
    common(p, fmt=("json", "plain"))
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    # VerificationFailed before ValueError: some verification errors are both
    try:
        if args.timing and args.format == "csv":  # hstar and roots print CSV without the envelope
            raise ValueError("--timing does not apply to --format csv")
        params, result, ok = args.func(args)
        if result is not None:  # hstar and roots print CSV themselves
            payload = {
                "command": args.command,
                "parameters": params,
                "result": result,
                "timing_ms": int((time.monotonic() - started) * 1000) if args.timing else None,
            }
            if args.format == "json":
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                _emit_plain(payload)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return EXIT_OK if ok else EXIT_VERIFICATION
    except BrokenPipeError:
        # the reader left; the interpreter's last flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except SizeExceeded as exc:
        print(f"size bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
