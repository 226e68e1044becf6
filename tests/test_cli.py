"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import sepkit
from sepkit.cli import EXIT_BOUND, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from sepkit.counting import hstar_oracle
from sepkit.graphs import Signature, VerificationFailed
from sepkit.polynomial import Poly, fraction_str
from sepkit.triangulation import hstar_triangulation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def sepkit_exceptions() -> list[type]:
    """Every exception class that a module of the package defines, by name."""
    found = []
    for info in pkgutil.iter_modules(sepkit.__path__):
        module = importlib.import_module(f"sepkit.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda exc: exc.__name__)


VERIFICATION_FAILURES = [exc for exc in sepkit_exceptions() if issubclass(exc, VerificationFailed)]


def test_every_invariant_error_is_a_verification_failure():
    """An error class for a broken invariant exits 3; only bad input is a
    plain ValueError, which exits 1 (or 2 for the size bound)."""
    assert not [
        exc for exc in sepkit_exceptions()
        if issubclass(exc, (ArithmeticError, AssertionError, RuntimeError)) and not issubclass(exc, VerificationFailed)
    ]
    inputs = [exc.__name__ for exc in sepkit_exceptions() if exc not in VERIFICATION_FAILURES]
    assert inputs == ["CrossDegreeMismatch", "DegreeMismatch", "NotCL", "NotSymmetric", "SizeExceeded"]
    assert all(issubclass(exc, ValueError) for exc in sepkit_exceptions() if exc not in VERIFICATION_FAILURES)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHstar:
    def test_all_methods_agree(self, capsys):
        code, out = run(capsys, "hstar", "--signature", "1,1,1", "--method", "all")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["result"]["agreement"] is True
        assert len(payload["result"]["rows"]) == 3
        assert all(r["coefficients"] == [1, 4, 1] for r in payload["result"]["rows"])

    def test_formula_csv(self, capsys):
        code, out = run(capsys, "hstar", "--signature", "2,2", "--method", "formula", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "formula,1,5,5,1"

    def test_size_bound_exit(self, capsys):
        code, _ = run(capsys, "hstar", "--signature", "19,18", "--method", "oracle")
        assert code == EXIT_BOUND

    def test_all_computes_five_classes(self, capsys):
        """The closed form covers any number of classes, so all three
        methods compute on K_{1,1,1,1,1}, in every format."""
        code, out = run(capsys, "hstar", "--signature", "1,1,1,1,1", "--method", "all")
        result = json.loads(out)["result"]
        assert code == EXIT_OK
        assert [r["method"] for r in result["rows"] if "coefficients" in r] == ["formula", "triangulation", "oracle"]
        assert all(r["coefficients"] == [1, 16, 36, 16, 1] for r in result["rows"])
        assert result["methods_compared"] == 3 and result["agreement"] is True
        code, out = run(capsys, "hstar", "--signature", "1,1,1,1,1", "--method", "all", "--format", "plain")
        assert code == EXIT_OK
        assert "result.rows[0].method = formula" in out.splitlines()
        assert "result.methods_compared = 3" in out.splitlines()
        assert not [line for line in out.splitlines() if "skipped" in line]
        code, out = run(capsys, "hstar", "--signature", "1,1,1,1,1", "--method", "all", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [f"{m},1,16,36,16,1" for m in ("formula", "triangulation", "oracle")]

    def test_all_computes_oracle_on_seven_vertices(self, capsys):
        code, out = run(capsys, "hstar", "--signature", "2,2,3", "--method", "all")
        result = json.loads(out)["result"]
        assert code == EXIT_OK
        assert [r["method"] for r in result["rows"] if "coefficients" in r] == ["formula", "triangulation", "oracle"]
        assert result["methods_compared"] == 3 and result["agreement"] is True

    def test_all_reports_bound_skip(self, capsys):
        code, out = run(capsys, "hstar", "--signature", "4,4,4", "--method", "all")
        result = json.loads(out)["result"]
        assert code == EXIT_OK
        assert result["rows"][1] == {"method": "triangulation", "skipped": "signature total 12 exceeds bound 10"}
        assert result["methods_compared"] == 2 and result["agreement"] is True

    def test_formula_alone_past_both_bounds(self, capsys):
        """On 37 vertices the triangulation and the oracle are both past
        their bounds; the formula row alone is compared, and exits 0."""
        ones = ",".join(["1"] * 37)
        code, out = run(capsys, "hstar", "--signature", ones, "--method", "all")
        result = json.loads(out)["result"]
        assert code == EXIT_OK
        assert [r["method"] for r in result["rows"] if "skipped" in r] == ["triangulation", "oracle"]
        assert result["rows"][0]["method"] == "formula" and len(result["rows"][0]["coefficients"]) == 37
        assert result["methods_compared"] == 1 and result["agreement"] is True
        code, out = run(capsys, "hstar", "--signature", ones, "--method", "all", "--format", "plain")
        assert code == EXIT_OK
        assert "result.methods_compared = 1" in out.splitlines()

    def test_skip_in_plain_not_in_csv(self, capsys):
        _, out = run(capsys, "hstar", "--signature", "4,4,4", "--method", "all", "--format", "plain")
        assert "result.rows[1].skipped = signature total 12 exceeds bound 10" in out.splitlines()
        assert "result.methods_compared = 2" in out.splitlines()
        _, out = run(capsys, "hstar", "--signature", "4,4,4", "--method", "all", "--format", "csv")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["formula", "oracle"]

    def test_single_method_errors_propagate(self, capsys):
        assert run(capsys, "hstar", "--signature", "4,4,4", "--method", "triangulation")[0] == EXIT_BOUND
        assert run(capsys, "hstar", "--signature", "19,18", "--method", "oracle")[0] == EXIT_BOUND
        assert run(capsys, "hstar", "--signature", "3", "--method", "formula")[0] == EXIT_USAGE

    def test_formula_on_five_classes(self, capsys):
        code, out = run(capsys, "hstar", "--signature", "1,1,1,1,1", "--method", "formula")
        assert code == EXIT_OK
        oracle = hstar_oracle(Signature((1, 1, 1, 1, 1)))
        assert json.loads(out)["result"]["rows"] == [{"method": "formula", "coefficients": list(oracle.coefficients)}]

    def test_interpolation_guard_exits_verification(self, capsys, monkeypatch):
        import sepkit.counting as counting

        true_counts = counting.dilation_counts

        def off_by_two_at_k2(sig, up_to, max_total=None):
            return [
                counting.DilationCount(dc.k, dc.count + 2) if dc.k == 2 else dc
                for dc in true_counts(sig, up_to, max_total=max_total)
            ]

        monkeypatch.setattr(counting, "dilation_counts", off_by_two_at_k2)
        code = main(["hstar", "--signature", "1,2", "--method", "oracle"])
        err = capsys.readouterr().err
        assert code == EXIT_VERIFICATION
        assert err == "verification failed: h* from the counts is not palindromic: h*_0 = 1, h*_2 = 3\n"
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("exc", VERIFICATION_FAILURES)
    def test_verification_failures_exit_3(self, capsys, monkeypatch, exc):
        def fail(sig, counts):
            raise exc("injected")

        monkeypatch.setattr("sepkit.counting.hstar_from_counts", fail)
        code = main(["hstar", "--signature", "1,1", "--method", "oracle"])
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr().err == "verification failed: injected\n"

    def test_other_errors_propagate(self, capsys, monkeypatch):
        """An error that no layer defines is a bug, not an exit code."""

        def fail(sig, counts):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr("sepkit.counting.hstar_from_counts", fail)
        with pytest.raises(ZeroDivisionError, match="injected"):
            main(["hstar", "--signature", "1,1", "--method", "oracle"])
        assert capsys.readouterr().err == ""

    def test_odd_count_check_exits_3(self, capsys, monkeypatch):
        import sepkit.counting as counting

        true_count = counting._transfer_count
        monkeypatch.setattr(counting, "_transfer_count", lambda sig, k, tables: true_count(sig, k, tables) + 1)
        code = main(["hstar", "--signature", "1,2,2", "--method", "oracle"])
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr().err == "verification failed: central symmetry forces an odd count\n"

    def test_hstar_invariant_check_exits_3(self, capsys, monkeypatch):
        import sepkit.formulas as formulas

        closed_gamma = formulas._closed_gamma

        def plus_one(sig):
            gamma = closed_gamma(sig)
            gamma[0] += 1
            return gamma

        monkeypatch.setattr(formulas, "_closed_gamma", plus_one)
        code = main(["hstar", "--signature", "2,3", "--method", "formula"])
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr().err == "verification failed: h* constant term must be 1\n"

    def test_max_dilation_counts_each_dilate_once(self, capsys, monkeypatch):
        """The oracle's h* and the reported counts come from one run of
        dilates, up to the larger of floor(d/2) + 1 and --max-dilation."""
        import sepkit.counting as counting

        true_count = counting._transfer_count
        calls = []

        def counted(sig, k, tables):
            calls.append(k)
            return true_count(sig, k, tables)

        monkeypatch.setattr(counting, "_transfer_count", counted)
        # 2,2,2 has d = 5, so the oracle reads k = 0..3
        for method in ("oracle", "all"):
            for max_dilation, counted_up_to in ((6, 6), (1, 3)):
                calls.clear()
                argv = ["hstar", "--signature", "2,2,2", "--method", method, "--max-dilation", str(max_dilation)]
                code, out = run(capsys, *argv)
                result = json.loads(out)["result"]
                assert code == EXIT_OK and result["agreement"] is True
                assert calls == list(range(counted_up_to + 1))
                assert result["rows"][-1] == {"method": "oracle", "coefficients": [1, 19, 82, 82, 19, 1]}
                assert result["dilation_counts"] == [
                    {"k": k, "count": counting.count_lattice_points(Signature((2, 2, 2)), k).count}
                    for k in range(max_dilation + 1)
                ]

    def test_bound_takes_effect(self, capsys):
        code, _ = run(capsys, "hstar", "--signature", "2,2,2,2,2", "--method", "oracle", "--bound", "9")
        assert code == EXIT_BOUND

    def test_bad_signature_exit(self, capsys):
        code, _ = run(capsys, "hstar", "--signature", "0,1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method", ["formula", "triangulation"])
    def test_max_dilation_without_oracle_is_usage_error(self, capsys, method):
        code = main(["hstar", "--signature", "2,2", "--method", method, "--max-dilation", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: --max-dilation needs --method oracle or all, not {method}\n"

    def test_bound_with_formula_is_usage_error(self, capsys):
        code = main(["hstar", "--signature", "2,2", "--method", "formula", "--bound", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: --bound needs --method triangulation, oracle or all, not formula\n"

    def test_negative_max_dilation_is_usage_error(self, capsys):
        code = main(["hstar", "--signature", "2,2", "--method", "oracle", "--max-dilation", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: --max-dilation must be nonnegative, not -1\n"
        code, out = run(capsys, "hstar", "--signature", "2,2", "--method", "oracle", "--max-dilation", "0")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["dilation_counts"] == [{"k": 0, "count": 1}]

    def test_max_dilation_bound(self, capsys, monkeypatch):
        """A dilation above HSTAR_MAX_DILATION exits 2 before any count runs,
        with --bound or without; the bound itself is accepted."""
        import sepkit.counting as counting

        def unreachable(*args, **kwargs):
            raise AssertionError("dilation_counts reached")

        monkeypatch.setattr(counting, "dilation_counts", unreachable)
        for extra in ([], ["--bound", "100"]):
            for method in ("oracle", "all"):
                code = main(["hstar", "--signature", "1,2", "--method", method, "--max-dilation", "37", *extra])
                captured = capsys.readouterr()
                assert code == EXIT_BOUND and captured.out == ""
                assert captured.err == "size bound exceeded: --max-dilation 37 exceeds bound 36\n"
        monkeypatch.undo()
        code, out = run(capsys, "hstar", "--signature", "1,2", "--method", "oracle", "--max-dilation", "36")
        assert code == EXIT_OK and len(json.loads(out)["result"]["dilation_counts"]) == 37

    def test_skipped_oracle_reports_dropped_dilation_counts(self, capsys):
        """With the oracle skipped by its bound, its reason stands in for
        the counts; with the oracle run, the counts are there and no reason."""
        code, out = run(capsys, "hstar", "--signature", "19,18", "--method", "all", "--max-dilation", "2")
        result = json.loads(out)["result"]
        assert code == EXIT_OK
        assert "dilation_counts" not in result
        assert result["dilation_counts_skipped"].startswith("signature total 37 exceeds bound 36")
        assert result["rows"][-1] == {"method": "oracle", "skipped": result["dilation_counts_skipped"]}
        code, out = run(capsys, "hstar", "--signature", "1,2", "--method", "all", "--max-dilation", "1")
        result = json.loads(out)["result"]
        assert code == EXIT_OK
        assert "dilation_counts_skipped" not in result
        assert result["dilation_counts"] == [{"k": 0, "count": 1}, {"k": 1, "count": 5}]


class TestRootsAndInterlace:
    def test_roots_json(self, capsys):
        code, out = run(capsys, "roots", "--signature", "2,2")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["certificate"]["on_cl"] is True

    def test_roots_csv_header(self, capsys):
        code, out = run(capsys, "roots", "--signature", "1,4", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "re,im_interval_lo,im_interval_hi"
        assert all(line.startswith("-1/2,") for line in out.splitlines()[1:])

    def test_roots_csv_one_line_per_root(self, capsys, monkeypatch):
        # E = (2x+1)^2: the center is a double root
        monkeypatch.setattr("sepkit.cli._ehrhart_of_signature", lambda sig: Poly((1, 4, 4)))
        code, out = run(capsys, "roots", "--signature", "2,2", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["-1/2,0,0"] * 2
        # E = (2x+1) ((2x+1)^2 + 4)^2: a simple center and a double pair -1/2 +- i
        e = Poly((1, 2)) * (Poly((1, 2)) ** 2 + 4) ** 2
        monkeypatch.setattr("sepkit.cli._ehrhart_of_signature", lambda sig: e)
        code, out = run(capsys, "roots", "--signature", "2,2", "--format", "csv")
        lines = out.splitlines()[1:]
        assert code == EXIT_OK and len(lines) == e.degree == 5
        assert lines[0] == "-1/2,0,0" and lines[1:3] == lines[3:5]
        lo, hi = (Fraction(v) for v in lines[2].split(",")[1:])
        assert lo <= 1 <= hi and lines[1] == f"-1/2,{fraction_str(-hi)},{fraction_str(-lo)}"

    def test_roots_csv_line_count_is_degree(self, capsys):
        code, out = run(capsys, "roots", "--signature", "3,4", "--format", "csv")
        assert code == EXIT_OK and len(out.splitlines()) - 1 == 6

    def test_roots_off_line_by_closed_form(self, capsys):
        # 12 vertices: past the triangulation's bound; E is the closed form's
        code, out = run(capsys, "roots", "--signature", "3,3,3,3")
        cert = json.loads(out)["result"]["certificate"]
        assert code == EXIT_VERIFICATION
        assert cert["symmetric"] is True and cert["on_cl"] is False

    def test_roots_on_line_by_closed_form(self, capsys):
        code, out = run(capsys, "roots", "--signature", "2,2,2,2,2")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["certificate"]["on_cl"] is True

    def test_roots_output_is_the_same_by_every_route(self, capsys, monkeypatch):
        """The closed form's output is byte-identical to the output of the
        oracle route and of the triangulation route."""
        args = ["roots", "--signature", "1,1,2,2,2"]
        _, by_formula = run(capsys, *args)
        for route in (hstar_oracle, hstar_triangulation):
            monkeypatch.setattr("sepkit.formulas.closed_form_hstar", route)
            assert run(capsys, *args)[1] == by_formula, route.__name__

    def test_inexact_division_exits_3(self, capsys, monkeypatch):
        from sepkit.polynomial import _exact_quo

        # the polynomials divided are primitive, so 2 never divides them
        monkeypatch.setattr("sepkit.roots._exact_quo", lambda a, b: _exact_quo(a, [2]))
        code = main(["roots", "--signature", "2,2,2"])
        err = capsys.readouterr().err
        assert code == EXIT_VERIFICATION
        assert err.startswith("verification failed: [2] does not divide [")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_roots_verification_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sepkit.roots._decompose", lambda a, g: [])
        code = main(["roots", "--signature", "3,3"])
        err = capsys.readouterr().err
        assert code == EXIT_VERIFICATION
        assert err.startswith("verification failed: isolated root in (")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_roots_and_interlace_bound(self, capsys):
        """`roots` and `interlace` refuse a signature of more than 100
        vertices with exit 2, before computing E; 100 vertices pass."""
        from sepkit.cli import ROOTS_MAX_TOTAL, _ehrhart_of_signature

        assert ROOTS_MAX_TOTAL == 100
        assert _ehrhart_of_signature(Signature.parse("1,99")).degree == 99
        for argv in (
            ["roots", "--signature", "50,51"],
            ["roots", "--signature", "33,34,34", "--format", "csv"],
            ["interlace", "--a", "1,100", "--b", "1,4"],
            ["interlace", "--a", "1,4", "--b", "1,100"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_BOUND and captured.out == "", argv
            assert captured.err == "size bound exceeded: signature total 101 exceeds bound 100\n", argv

    def test_interlace_known_pair(self, capsys):
        code, out = run(capsys, "interlace", "--a", "1,4", "--b", "1,5")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["certificate"]["interlaces"] is True

    def test_interlace_degree_mismatch(self, capsys):
        code, _ = run(capsys, "interlace", "--a", "1,1", "--b", "1,4")
        assert code == EXIT_VERIFICATION

    def test_jobs_is_not_an_option(self, capsys):
        code, _ = run(capsys, "roots", "--signature", "2,2", "--jobs", "2")
        assert code == EXIT_USAGE


class TestGb:
    def test_default_checks(self, capsys):
        code, out = run(capsys, "gb", "--signature", "1,1,2")
        payload = json.loads(out)
        assert code == EXIT_OK
        result = payload["result"]
        assert result["reduced"] and result["lead_consistent"] and result["at_most_cubic"]

    def test_k222_scan(self, capsys):
        code, out = run(
            capsys, "gb", "--signature", "2,2,2",
            "--checks", "reduced,lead,k222", "--orders", "5", "--seed", "7",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["result"]["k222"]["all_orders_obstructed"] is True

    def test_negative_orders_is_usage_error(self, capsys):
        """A negative count checks no order, not even the canonical one, so
        it is refused instead of reported as every order obstructed."""
        code = main(["gb", "--signature", "2,2,2", "--checks", "k222", "--orders", "-3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: the number of random orders must be nonnegative, not -3\n"

    @pytest.mark.parametrize("option", ["--seed", "--orders"])
    def test_order_options_need_k222(self, capsys, option):
        """--seed and --orders drive only the k222 check; without it they
        are refused, not ignored."""
        code = main(["gb", "--signature", "1,1,2", "--checks", "reduced", option, "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: {option} does not apply without --checks k222\n"

    def test_export(self, capsys):
        code, out = run(capsys, "gb", "--signature", "1,1", "--checks", "export")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["basis"] == ["x(1,2)*x(2,1) - z*z"]

    def test_unknown_check(self, capsys):
        code, _ = run(capsys, "gb", "--signature", "1,1", "--checks", "bogus")
        assert code == EXIT_USAGE

    def test_unknown_check_refused_before_any_check(self, capsys, monkeypatch):
        """The whole --checks list is read before the basis is built, so a
        bad name after a costly check costs nothing."""
        import sepkit.grobner as grobner

        def unreachable(*args, **kwargs):
            raise AssertionError("check reached")

        monkeypatch.setattr(grobner, "build_basis", unreachable)
        monkeypatch.setattr(grobner, "buchberger_verify", unreachable)
        code = main(["gb", "--signature", "2,2,3,3", "--checks", "buchberger,bogus"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: unknown check 'bogus'\n"

    @pytest.mark.parametrize("signature", ["1,1", "2,2", "2,2,2,2", "1,2,2"])
    def test_k222_needs_signature_222(self, capsys, monkeypatch, signature):
        """The k222 check scans orders of K_{2,2,2} whatever the signature,
        so any other signature is refused before the basis is built."""
        import sepkit.grobner as grobner

        def unreachable(*args, **kwargs):
            raise AssertionError("basis or scan reached")

        monkeypatch.setattr(grobner, "build_basis", unreachable)
        monkeypatch.setattr(grobner, "k222_order_scan", unreachable)
        code = main(["gb", "--signature", signature, "--checks", "reduced,k222", "--orders", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: --checks k222 needs --signature 2,2,2\n")

    def test_buchberger_bound(self, capsys):
        """The certificate covers every signature with at most 10 vertices,
        whatever its edge count, and refuses a larger one with exit 2."""
        code, out = run(capsys, "gb", "--signature", "1,1,1,1,1,1", "--checks", "buchberger")
        assert code == EXIT_OK and json.loads(out)["result"]["buchberger"] is True
        code = main(["gb", "--signature", ",".join("1" * 11), "--checks", "buchberger"])
        captured = capsys.readouterr()
        assert code == EXIT_BOUND and captured.out == ""
        assert captured.err == "size bound exceeded: signature total 11 exceeds bound 10\n"


class TestRecursionCommand:
    def test_relation_a(self, capsys):
        code, out = run(capsys, "recursion", "--relation", "a", "--n", "3")
        assert code == EXIT_OK
        rows = json.loads(out)["result"]["rows"]
        assert rows[0]["coefficients"] == ["5/8", "3/8"]

    def test_falsified_relation_exits_nonzero(self, capsys):
        code, _ = run(capsys, "recursion", "--relation", "g", "--n", "5")
        assert code == EXIT_VERIFICATION

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--relation", "bogus", "--n", "3"], "error: unknown relation id 'bogus'\n"),
            (["--n", "1"], "error: relations are stated for n >= 2\n"),
        ],
        ids=["unknown-relation", "n-below-2"],
    )
    def test_bad_input_is_usage_error(self, capsys, argv, err):
        code = main(["recursion", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "" and captured.err == err

    @pytest.mark.parametrize("n", ["1", "96"])
    def test_unknown_relation_refused_before_the_report(self, capsys, monkeypatch, n):
        """An unknown id is refused before any relation is solved, and
        before the report's own `n >= 2` check."""
        import sepkit.recursion as recursion

        def unreachable(*args, **kwargs):
            raise AssertionError("report reached")

        monkeypatch.setattr(recursion, "reproduce_known_relations", unreachable)
        code = main(["recursion", "--relation", "zz", "--n", n])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: unknown relation id 'zz'\n")


class TestScan:
    def test_conjecture(self, capsys):
        code, out = run(capsys, "scan", "--kind", "conjecture", "--max-total", "5", "--max-n", "3")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["violations"] == 0

    @pytest.mark.parametrize("max_total,max_n", [(-3, -2), (-1, 2), (4, -1)])
    def test_negative_conjecture_range_is_usage_error(self, capsys, max_total, max_n):
        code = main(["scan", "--kind", "conjecture", "--max-total", str(max_total), "--max-n", str(max_n)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: max_total and max_n must be nonnegative, not {max_total} and {max_n}\n"

    def test_gamma_guard_exits_3(self, capsys, monkeypatch):
        import sepkit.recursion as recursion

        closed_gamma = recursion._closed_gamma

        def wrong_gamma_1(sig):
            # K_(1,1) is one edge, |E| = n - 1, so its gamma_1 is 0
            gamma = closed_gamma(sig) + [0]
            gamma[1] += 2
            return gamma

        monkeypatch.setattr(recursion, "_closed_gamma", wrong_gamma_1)
        code = main(["scan", "--kind", "conjecture", "--max-total", "4"])
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr().err == "verification failed: K_(1,1): gamma_0, gamma_1 = [1, 2], not [1, 0] for |E| = 1\n"

    @pytest.mark.parametrize(
        "kind,option",
        [("conjecture", "--m"), ("corollary", "--max-total"), ("k222", "--max-n")],
    )
    def test_option_of_another_kind_is_usage_error(self, capsys, kind, option):
        code = main(["scan", "--kind", kind, option, "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: {option} does not apply to --kind {kind}\n"

    def test_corollary(self, capsys):
        code, out = run(capsys, "scan", "--kind", "corollary", "--m", "4", "--max-n", "5")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["alpha2_matches"] is True

    def test_k222_kind(self, capsys):
        code, out = run(capsys, "scan", "--kind", "k222", "--orders", "3", "--seed", "1")
        assert code == EXIT_OK

    def test_k222_negative_orders_is_usage_error(self, capsys):
        code = main(["scan", "--kind", "k222", "--orders", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: the number of random orders must be nonnegative, not -1\n"
        code, out = run(capsys, "scan", "--kind", "k222", "--orders", "0")
        assert code == EXIT_OK
        assert [r["order"] for r in json.loads(out)["result"]["rows"]] == ["canonical"]

    def test_conjecture_total_bound(self, capsys, monkeypatch):
        """The conjecture rows run over every partition up to --max-total,
        so a total above SCAN_MAX_TOTAL = 40 exits 2 before any row."""
        import sepkit.recursion as recursion

        def reached(*args, **kwargs):
            raise AssertionError("conjecture_scan reached")

        monkeypatch.setattr(recursion, "conjecture_scan", reached)
        code = main(["scan", "--kind", "conjecture", "--max-total", "41", "--max-n", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_BOUND, "", "size bound exceeded: --max-total 41 exceeds bound 40\n")
        with pytest.raises(AssertionError, match="conjecture_scan reached"):
            main(["scan", "--kind", "conjecture", "--max-total", "40", "--max-n", "1"])

    def test_unknown_kind_is_a_usage_error(self, capsys):
        code = main(["scan", "--kind", "bogus"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "invalid choice: 'bogus'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["recursion", "--relation", "zz", "--n", "2"], "unknown relation id 'zz'"),
        (["gb", "--signature", "2,2", "--checks", "bogus"], "unknown check 'bogus'"),
        (["gb", "--signature", "2,2", "--seed", "3"], "--seed does not apply without --checks k222"),
        (["gb", "--signature", "2,2", "--seed", "3", "--orders", "5"], "--orders does not apply without --checks k222"),
        (["scan", "--kind", "conjecture", "--m", "3"], "--m does not apply to --kind conjecture"),
        (["scan", "--kind", "conjecture", "--seed", "3", "--orders", "5"], "--seed does not apply to --kind conjecture"),
        (["hstar", "--signature", "1,x"], "bad signature text: '1,x'"),
        (["hstar", "--signature", "40", "--method", "oracle"], "need at least two classes"),
    ],
    ids=["unknown-relation", "unknown-check", "seed-without-k222", "gb-first-option", "m-with-conjecture",
         "scan-first-option", "bad-signature-text", "one-class"],
)
def test_usage_error_is_one_line(capsys, argv, reason):
    """Every usage error exits 1 with `error: <reason>` on stderr and
    nothing on stdout; with two inapplicable options, `gb` names --orders
    first and `scan` names --seed first."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_USAGE, "", f"error: {reason}\n")


@pytest.mark.parametrize(
    "function,at_bound,past_bound",
    [
        ("reproduce_known_relations", ["recursion", "--n", "96"], ["recursion", "--n", "97"]),
        ("conjecture_scan", ["scan", "--kind", "conjecture", "--max-n", "97"],
         ["scan", "--kind", "conjecture", "--max-n", "98"]),
        ("corollary_scan", ["scan", "--kind", "corollary", "--m", "49", "--max-n", "49"],
         ["scan", "--kind", "corollary", "--m", "49", "--max-n", "50"]),
    ],
    ids=["recursion", "conjecture", "corollary"],
)
def test_polynomial_bound(capsys, monkeypatch, function, at_bound, past_bound):
    """`recursion` and the scans refuse an Ehrhart polynomial of more than
    100 vertices (K_{4,n} and K_{1,1,1,n+1}, K_{1,1,1,max_n}, and
    K_{m+1,max_n+1}) with exit 2 before they compute anything."""
    import sepkit.recursion as recursion

    def reached(*args, **kwargs):
        raise AssertionError(f"{function} reached")

    monkeypatch.setattr(recursion, function, reached)
    code = main(past_bound)
    captured = capsys.readouterr()
    assert code == EXIT_BOUND and captured.out == ""
    assert captured.err == "size bound exceeded: signature total 101 exceeds bound 100\n"
    with pytest.raises(AssertionError, match=f"{function} reached"):
        main(at_bound)


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--signature", "1,1,2", "--checks", "reduced"],
        ["recursion", "--relation", "a", "--n", "2"],
        ["scan", "--kind", "conjecture", "--max-total", "4"],
        ["roots", "--signature", "3,3,3,3"],
        ["interlace", "--a", "1,4", "--b", "1,5"],
    ],
    ids=["gb", "recursion", "scan", "roots", "interlace"],
)
def test_bound_is_not_an_option(capsys, argv):
    """Only hstar has a size bound to override: the bound of roots and
    interlace is fixed."""
    code, _ = run(capsys, *argv, "--bound", "3")
    assert code == EXIT_USAGE


class TestTiming:
    def test_envelope_carries_timing(self, capsys):
        code, out = run(capsys, "gb", "--signature", "1,2", "--timing")
        assert code == EXIT_OK and type(json.loads(out)["timing_ms"]) is int
        code, out = run(capsys, "gb", "--signature", "1,2", "--timing", "--format", "plain")
        lines = [line for line in out.splitlines() if line.startswith("timing_ms = ")]
        assert code == EXIT_OK and len(lines) == 1 and lines[0][len("timing_ms = "):].isdigit()

    @pytest.mark.parametrize("command", ["hstar", "roots"])
    def test_csv_refuses_timing(self, capsys, monkeypatch, command):
        """CSV has no envelope to hold the timing, so --timing is refused
        before any computation instead of dropped."""
        import sepkit.cli as cli

        def unreachable(args):
            raise AssertionError("subcommand reached")

        monkeypatch.setattr(cli, f"cmd_{command}", unreachable)
        code = main([command, "--signature", "1,2", "--format", "csv", "--timing"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: --timing does not apply to --format csv\n")


# exit code and sha256 of stdout of `gb` on one signature each with 2, 3, 4
# and 5 classes and of the K_{2,2,2} order scan on each seed the benchmark
# draws, taken from the code before `VarTable` became the one variable
# index, so that any change of the rendered basis or scan fails here
GROBNER_OUTPUT = [
    ("gb --signature 2,3 --checks reduced,lead,degree,membership,export", 0, "e176d85d9fc09c19d05f595854aee1770c3e88a87b0b46513396f96de88a34f4"),
    ("gb --signature 1,2,3 --checks reduced,lead,degree,membership,export", 0, "1e3e78d18ae1c2fb2115f6a8be1abba42166db5f51f99aa87ac9f19d75349bdb"),
    ("gb --signature 1,1,2,2 --checks reduced,lead,degree,membership,export", 0, "56867173abcd3147fa12381446a96000f3e2ad2c37f4bf2c977b8d89235193fd"),
    ("gb --signature 1,1,1,1,2 --checks reduced,lead,degree,membership,export", 0, "60f043c7f63745e858eb8463971413e2be200c65749667c65ce1dc9eb69f8911"),
    ("scan --kind k222 --seed 1", 0, "5d4d83b724b60b050869c24718caa6ebed8391488eba5d9c961b23ec7b0ee6d5"),
    ("scan --kind k222 --seed 2", 0, "f2665c78909e2b52ea8282c01127a7404cb60a820eb49d94abed2b0e7252aaa1"),
    ("scan --kind k222 --seed 3", 0, "7a235d5c4324c469f79b7491d1b41aecff88f3f0864c02479faa6d094d16ad30"),
    ("scan --kind k222 --seed 4", 0, "4175e01a6b94c9165b012df4827fa17aa0b2d70ddda8880e971a78f1a2cdd100"),
    ("scan --kind k222 --seed 5", 0, "b759f7bd6d0dd01f3681aa5ef559c09455c4308a438018e0c4cafbd491db088d"),
    ("scan --kind k222 --seed 6", 0, "440cb845500a6a7d779cf9595480d1182b973e41e4f913ba460c95ccb8b45355"),
    ("scan --kind k222 --seed 7", 0, "5bc6c85a753db2187b830e004e16fe1d375902478b1f87e393b1283545d98825"),
    ("scan --kind k222 --seed 8", 0, "92155c27336db7ceddde2e4ba39934b28af8ef25044af5d9bb692c9d4224b13a"),
    ("scan --kind k222 --seed 9", 0, "a125ed47fa88ee57ec5782f5f96ed55430551437fbbde9ec13936f518fbcccc6"),
    ("scan --kind k222 --seed 10", 0, "4592eb2b256811b74a57abd34ffb79f33c42c350eb303a9311428c947b97b3ec"),
    ("scan --kind k222 --seed 11", 0, "73c73c00a4212f78c5a775d08c79c477499f8b83eda3b3302ca4acb973f88c97"),
    ("scan --kind k222 --seed 12", 0, "2b012056b66af13d18b04831cbc84b0329ca6d4e6b3458576dec8b7f593d8fc1"),
    ("scan --kind k222 --seed 13", 0, "d9df1f406516ed2c70f82ab5cd4bad2dcbfdbd36a6c6e350193f2d8dc6f832f0"),
    ("scan --kind k222 --seed 14", 0, "9cdf68c8801f5d5e9c427602e127d2a7899e7f0774cb9f115e0ef3331d649e32"),
    ("scan --kind k222 --seed 15", 0, "813a90dc029d6e3194779dcdfaec1c34e2c128b5e789319073235fe86f08b7e6"),
    ("scan --kind k222 --seed 16", 0, "b37073c42055d5d0241b800f9b2182debb78e82c9f51fe4d37e90cb66eded732"),
]


@pytest.mark.parametrize("argv,code,digest", GROBNER_OUTPUT, ids=[argv for argv, _, _ in GROBNER_OUTPUT])
def test_grobner_output_is_pinned(capsys, argv, code, digest):
    got = main(argv.split())
    captured = capsys.readouterr()
    assert (got, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err) == (code, digest, "")


class TestDeterminism:
    def test_byte_stable(self, capsys):
        args = ["gb", "--signature", "2,2,2", "--checks", "reduced,k222", "--orders", "4", "--seed", "11"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out = run(capsys, "scan", "--kind", "conjecture", "--max-total", "4", "--max-n", "2")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


# README's command-line examples, each JSON one also with --format plain:
# the exit code and the sha256 of stdout, taken from the code before `main`
# took over rendering, so that any change of the rendered bytes fails here
README_OUTPUT = [
    ("hstar --signature 1,1,2 --method all", 0, "29d183ff545fd8c908344714422ae7c6c42e77c333b52c83e52f53433810659f"),
    ("hstar --signature 1,1,2 --method all --format plain", 0, "45990d21266f1a785e4da7aef64ce01510ef7432da6e15da5d67f9f5cea8d84d"),
    ("hstar --signature 2,2 --method formula --format csv", 0, "c12f0188bb18fd7783340d5857c53ef7851006d885bcd4d587bb9282b5ac62cc"),
    ("hstar --signature 2,2,3 --method oracle --max-dilation 4", 0, "77b87d7385933de3d877b47ca3132509176ef93a16a3a24cb270075eb4bc20b3"),
    ("hstar --signature 2,2,3 --method oracle --max-dilation 4 --format plain", 0, "2e67f8c76f0b7e975347c5ad7a63e256441b7e07f52262459ef7a36be935930a"),
    ("roots --signature 2,2 --format csv", 0, "ac10561c3698bca77eb1bc017b31c84917f0f86d6be60d9adb62431f430fd0f6"),
    ("interlace --a 1,4 --b 1,5", 0, "4088b7dd91028781fbeb2b68faa220d6e8ce2859968bf9b19abed3cba2978041"),
    ("interlace --a 1,4 --b 1,5 --format plain", 0, "1b632561e88de24307498d31b9416d87d9692f03c9dcfd4ddc853dca7c2f1636"),
    ("gb --signature 2,2,2 --checks reduced,lead,degree,membership,k222 --seed 7", 0, "36c641e7f898268e32adfa0e863fca154cb6e944ac44d317e63cfd8c208992b9"),
    ("gb --signature 2,2,2 --checks reduced,lead,degree,membership,k222 --seed 7 --format plain", 0, "cb7d4fd16f5887c6c59f62bde9562efa281b0e9d7066191db1a1d8f18ba5b7f9"),
    ("gb --signature 1,1,2 --checks buchberger,export", 0, "4337c5ec8ce0a76eaac8f2a9d4e8a3eb91c727029033b56e5f8767ea965b6213"),
    ("gb --signature 1,1,2 --checks buchberger,export --format plain", 0, "ae874a7768c3948e3adbb7b571620c133f73c1c3679f41b2bbdf68d80234f8ff"),
    ("recursion --relation a --n 4", 0, "5dc9925e683737b569aca438a6b4da13b6b77ee6b3935c88e15bd0696fbe81a8"),
    ("recursion --relation a --n 4 --format plain", 0, "adf649960534c580995500dd8dbf08ba525d50d66aef10e170b90dc0452e30f9"),
    ("scan --kind conjecture --max-total 6 --max-n 8", 0, "83840746bda9816e666a3f2582dedbbe327e4c41e9b7ba26f33b34bb61c31e51"),
    ("scan --kind conjecture --max-total 6 --max-n 8 --format plain", 0, "6ca7f05701a1b5f4c213fcdcb746d4c9d6c835a9ee32a496fd039d80964b3a40"),
    ("scan --kind corollary --m 4 --max-n 10", 0, "2af3890e7e1102f2330964c7315d9f4c282e881f58d46a39bda834731735f435"),
    ("scan --kind corollary --m 4 --max-n 10 --format plain", 0, "879aa2df680c9de6345f80806030da52805c380fef3ed65375230187f8c9f160"),
]


def readme_examples() -> list[str]:
    """The arguments of each `sepkit` line in README's command-line block."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split(None, 1)[1].strip() for line in block.splitlines() if line.startswith("sepkit ")]


class TestReadmeExamples:
    def test_table_lists_the_readme_examples(self):
        assert readme_examples() == [argv for argv, _, _ in README_OUTPUT if not argv.endswith(" --format plain")]

    @pytest.mark.parametrize("argv,code,digest", README_OUTPUT, ids=[argv for argv, _, _ in README_OUTPUT])
    def test_output_is_pinned(self, capsys, argv, code, digest):
        got = main(argv.split())
        captured = capsys.readouterr()
        assert (got, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err) == (code, digest, "")


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_closed_stdout_exits_quietly(fmt):
    """A reader that leaves before the output is written, as `| head` can,
    ends the call with exit 1 and nothing on stderr, not a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepkit.cli", "scan", "--kind", "conjecture", "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the scan can print anything
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_USAGE
    assert err == b""


class TestImportFootprint:
    """A call imports only the layers its subcommand runs."""

    @staticmethod
    def loaded_modules(*argv):
        """Every module the call imports, the interpreter's start-up included."""
        # -X importtime lists every module the call imports on stderr
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "sepkit.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}

    @classmethod
    def loaded_layers(cls, *argv):
        return {name.split(".", 1)[1] for name in cls.loaded_modules(*argv) if name.startswith("sepkit.")}

    @pytest.mark.parametrize(
        "argv",
        [
            ["hstar", "--signature", "1,2,2", "--method", "all"],
            ["roots", "--signature", "3,4"],
            ["interlace", "--a", "1,4", "--b", "1,1,4"],
            ["recursion", "--relation", "a", "--n", "4"],
            ["gb", "--signature", "2,2", "--checks", "reduced,membership,buchberger,export"],
            ["scan", "--kind", "corollary", "--m", "3", "--max-n", "6"],
        ],
        ids=["hstar-all", "roots", "interlace", "recursion", "gb", "scan"],
    )
    def test_no_code_generation_machinery(self, argv):
        """The result types are plain slotted classes, so no call loads
        dataclasses or the inspect module it pulls in."""
        modules = self.loaded_modules(*argv)
        assert "sepkit.graphs" in modules
        assert not modules & {"dataclasses", "inspect"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["gb", "--signature", "2,2,2", "--checks", "reduced,lead,degree,membership,k222,export", "--orders", "2"],
            ["scan", "--kind", "k222", "--orders", "2"],
        ],
        ids=["gb", "scan-k222"],
    )
    def test_groebner_calls(self, argv):
        assert self.loaded_layers(*argv) == {"graphs", "grobner"}

    def test_buchberger_call(self):
        """The certificate compares with the counting oracle's h*, so it alone
        loads the counting layer and the polynomials that it needs."""
        layers = self.loaded_layers(
            "gb", "--signature", "2,2,2", "--checks", "reduced,lead,degree,membership,buchberger,k222,export",
            "--orders", "2",
        )
        assert layers == {"graphs", "grobner", "counting", "polynomial"}

    def test_conjecture_scan(self):
        """Every row takes its h* from the closed form, so the scan loads
        no other h* method."""
        layers = self.loaded_layers("scan", "--kind", "conjecture", "--max-total", "5", "--max-n", "2")
        assert {"recursion", "formulas"} <= layers
        assert not layers & {"counting", "triangulation", "grobner"}

    def test_formula_call(self):
        for signature in ("2,3", "1,1,2,2"):
            layers = self.loaded_layers("hstar", "--signature", signature, "--method", "formula")
            assert "formulas" in layers
            assert not layers & {"counting", "grobner", "triangulation", "roots"}, signature
