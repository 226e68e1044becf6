"""The library's invariant checks hold without `assert`.

``python -O`` strips every assert statement, so a check written as one
would let its failure through.  This runs the injected-failure tests of
every layer, the CLI tests that such a failure exits 3 and the one that
any other error propagates, again in a ``python -O`` subprocess."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INJECTED = [
    "tests/test_roots.py::TestInvariantChecks",
    "tests/test_polynomial.py::TestHStarValidation",
    "tests/test_polynomial.py::TestEhrhartConversion::test_non_integer_count_rejected",
    "tests/test_polynomial.py::TestEhrhartConversion::test_negative_hstar_rejected",
    "tests/test_polynomial.py::test_gamma_recombination_failure_raises",
    "tests/test_polynomial.py::test_inexact_integer_division_raises",
    "tests/test_formulas.py::test_suspension_identity_failure_raises",
    "tests/test_recursion.py::TestSolverInvariants",
    "tests/test_triangulation.py::TestFacetSplit::test_split_raises_on_a_missing_facet",
    "tests/test_cli.py::TestHstar::test_verification_failures_exit_3",
    "tests/test_cli.py::TestHstar::test_other_errors_propagate",
    "tests/test_grobner.py::TestK222Scan::test_lead_check_raises",
    "tests/test_cli.py::TestHstar::test_interpolation_guard_exits_verification",
    "tests/test_counting.py::TestCountGuard::test_every_read_count_is_guarded",
    "tests/test_cli.py::TestRootsAndInterlace::test_roots_verification_failure_exits_3",
    "tests/test_cli.py::TestHstar::test_odd_count_check_exits_3",
    "tests/test_cli.py::TestHstar::test_hstar_invariant_check_exits_3",
    "tests/test_cli.py::TestRootsAndInterlace::test_inexact_division_exits_3",
    "tests/test_cli.py::TestScan::test_gamma_guard_exits_3",
    "tests/test_counting.py::TestCounts::test_dilation_count_invariants",
    "tests/test_graphs.py::TestSignature::test_parse",
]

# exits with pytest's code; pytest exits 4 on an unknown node id and 5 when
# nothing ran
RUNNER = """
import sys
import pytest
if __debug__:
    sys.exit("assert statements are still in force")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def test_injected_failures_raise_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RUNNER, *INJECTED],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
