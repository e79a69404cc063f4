"""End-to-end tests of the command-line interface via subprocess: exit
codes, JSON schemas, table formats, and deterministic output."""

import contextlib
import doctest
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from ternfield import cli
from ternfield import ternary_kernel as tk

ROOT = Path(__file__).resolve().parents[1]
RUNNER = [sys.executable, "-c",
          "from ternfield.cli import main; raise SystemExit(main())"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUNNER + list(args), capture_output=True,
                          text=True, env=env, timeout=300)


def run_json(*args, expect_code=0, env_extra=None):
    proc = run_cli(*args, "--format", "json", env_extra=env_extra)
    assert proc.returncode == expect_code, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# banner, exit codes, determinism
# ---------------------------------------------------------------------------

def test_version_banner_goes_to_stderr_only():
    proc = run_cli("field", "build", "--spec", "F0(2)", "--format", "json")
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[0] == "ternfield 0.1.0"
    assert "ternfield 0.1.0" not in proc.stdout


def test_stdout_is_byte_identical_across_runs():
    a = run_cli("field", "table", "--spec", "F0(4)", "--format", "json")
    b = run_cli("field", "table", "--spec", "F0(4)", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_bad_spec_is_a_usage_error():
    proc = run_cli("field", "build", "--spec", "nonsense(3)")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "cannot parse field spec" in proc.stderr


def test_unknown_verb_is_a_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_csv_is_rejected_for_non_table_commands():
    proc = run_cli("field", "build", "--spec", "F0(2)", "--format", "csv")
    assert proc.returncode == 2
    assert "csv output is only available for table commands" in proc.stderr


def test_csv_is_rejected_before_the_command_runs():
    with mock.patch.object(cli, "build_envelope", wraps=cli.build_envelope) as build, \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["envelope", "--spec", "F0(3)", "--format", "csv"]) == 2
    assert build.call_count == 0
    assert out.getvalue() == ""
    assert "error: csv output is only available for table commands" in err.getvalue()


def run_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ("dyadic", "val2", "abc"),
    ("dyadic", "val2", "1/0"),
    ("dyadic", "reduce", "1/0"),
    ("poly", "ce", "1/0*x"),
    ("poly", "ce", "1/00*x"),
])
def test_malformed_numbers_are_usage_errors(argv):
    code, out, err = run_main(*argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("name,argv,exc", [
    ("val2", ["dyadic", "val2", "12"], ValueError),
    ("build_envelope", ["envelope", "--spec", "F0(2)"], ZeroDivisionError),
])
def test_internal_errors_propagate_with_their_traceback(name, argv, exc):
    # only input errors exit 2; a bug in the library is not one
    with mock.patch.object(cli, name, side_effect=exc("internal")), \
            pytest.raises(exc, match="internal"):
        run_main(*argv)


def test_an_internal_error_exits_70_from_the_console_script():
    # `run` is the console script: a bug exits EX_SOFTWARE, never 1 or 2
    script = ("from unittest import mock; from ternfield import cli\n"
              "with mock.patch.object(cli, 'val2', side_effect=IndexError('internal')):\n"
              "    raise SystemExit(cli.run(['dyadic', 'val2', '12']))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 70
    assert proc.stdout == ""
    assert "Traceback (most recent call last)" in proc.stderr
    assert proc.stderr.rstrip().splitlines()[-1] == "IndexError: internal"


def test_parser_is_built_once_per_process():
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        assert run_main("dyadic", "val2", "12")[0] == 0
        assert run_main("field", "build", "--spec", "F0(2)")[0] == 0
    assert build.call_count == 1


def _readme_commands():
    """The argv of each line of the sh block under README "Command line"."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv):
    code, out, _ = run_main(*argv)
    assert code == 0
    assert out.strip()


def test_readme_examples_pass_as_doctests():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted and not result.failed


def test_readme_shows_every_command():
    shown = {" ".join(argv[:2]) if " ".join(argv[:2]) in cli.COMMANDS else argv[0]
             for argv in README_COMMANDS}
    assert shown == set(cli.COMMANDS)


# ---------------------------------------------------------------------------
# field verbs
# ---------------------------------------------------------------------------

def test_field_build_reports_size_and_characteristic():
    doc = run_json("field", "build", "--spec", "F0(3)")
    assert doc["schema"] == 1
    assert doc["size"] == 4
    assert doc["one"] == "1"
    assert doc["characteristic"] == 1
    assert doc["validated"] == "exhaustive"

    doc = run_json("field", "build", "--spec", "odd(8)")
    assert doc["size"] == 4
    assert doc["characteristic"] == 4


def test_field_build_product_spec():
    doc = run_json("field", "build", "--spec", "F0(2)xF0(2)")
    assert doc["size"] == 4
    doc = run_json("field", "build", "--spec", "F0(2,2)")
    assert doc["size"] == 8


GOLDEN_MULT_CSV = """\
*,1,a,b,c
1,1,a,b,c
a,a,b,c,1
b,b,c,1,a
c,c,1,a,b"""


def test_field_table_letter_csv_is_golden():
    proc = run_cli("field", "table", "--spec", "F0(3)", "--labels", "paper",
                   "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.strip() == GOLDEN_MULT_CSV


def test_field_table_json_carries_letter_map():
    doc = run_json("field", "table", "--spec", "F0(3)", "--labels", "paper")
    assert doc["elements"] == ["1", "a", "b", "c"]
    assert doc["letter_map"] == {"1": "1", "x": "a", "x^2": "b",
                                 "x^2+x+1": "c"}
    assert doc["table"][doc["identity"]] == [0, 1, 2, 3]


def test_field_aut_reports_dihedral_fingerprint():
    doc = run_json("field", "aut", "--spec", "F0(5)", "--labels", "paper")
    assert doc["fingerprint"]["order"] == 8
    assert doc["fingerprint"]["iso_class"] == "D4 (the dihedral group of order 8)"
    assert doc["elements"] == ["a", "c", "e", "g", "p", "r", "t", "v"]


def test_field_aut_markdown_table():
    proc = run_cli("field", "aut", "--spec", "F0(3)", "--labels", "paper")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "| o | a | c |"
    assert lines[2] == "| **a** | a | c |"
    assert lines[3] == "| **c** | c | a |"


def test_field_check_passes_on_valid_field():
    doc = run_json("field", "check", "--spec", "odd(8)")
    assert doc["passed"] is True
    assert doc["additive_axioms"] is True
    assert doc["distributivity"] is True
    assert doc["unit"] == "1"
    assert doc["zero_element"] is None


@pytest.mark.parametrize("spec, carriers", [pytest.param(spec, carriers, id=spec) for spec, carriers
                                            in [("odd(32)", 1), ("F0(5)", 1), ("F0(2)xF0(3)", 3)]])
def test_field_check_decides_each_axiom_group_once(spec, carriers):
    # the field is built with the cheap invariants only, which pass by the
    # certified retract and Light's test, so the retract each builder made
    # nu from is checked once per carrier built (a product builds its two
    # factors too), on o alone, with no coset form compared, and no
    # invariant walk runs (a failing carrier walks once: see
    # test_ternary_kernel.test_a_failing_invariant_is_walked_once); the
    # checkers read the retract and the cheap laws construction decided
    def counting(name):
        return mock.patch.object(tk, name, wraps=getattr(tk, name))

    with counting("_retract_certificate") as retract, counting("_is_coset_form") as coset, \
            counting("_distrib_certificate") as distrib, \
            counting("_closure") as closure, counting("_nu_invariants") as nu_inv, \
            counting("_mu_invariants") as mu_inv, \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["field", "check", "--spec", spec, "--format", "json"]) == 0
    assert json.loads(out.getvalue())["passed"] is True
    assert retract.call_count == carriers and distrib.call_count == 1
    assert coset.call_count == 0
    # mu alone: a retract-born nu is closed, as its validated o is
    assert closure.call_count == carriers
    assert nu_inv.call_count == mu_inv.call_count == 0


def test_field_check_gate_and_overrides():
    # carrier of 64 exceeds the default exhaustive-check gate
    proc = run_cli("field", "check", "--spec", "odd(128)", "--format", "json")
    assert proc.returncode == 2
    assert "TERNARY_MAX_CARRIER" in proc.stderr or "limit" in proc.stderr

    doc = run_json("field", "check", "--spec", "odd(128)", "--limit", "64")
    assert doc["passed"] is True

    doc = run_json("field", "check", "--spec", "odd(128)",
                   env_extra={"TERNARY_MAX_CARRIER": "64"})
    assert doc["passed"] is True

    proc = run_cli("field", "check", "--spec", "odd(32)", "--format", "json",
                   env_extra={"TERNARY_MAX_CARRIER": "8"})
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["field", "build", "--spec", "F0(7)", "--limit", "64"],
    ["field", "build", "--spec", "F0(3)", "--labels", "paper"],
    ["field", "table", "--spec", "F0(3)", "--limit", "4"],
    ["field", "aut", "--spec", "F0(3)", "--limit", "4"],
    ["field", "check", "--spec", "F0(3)", "--labels", "paper"],
])
def test_each_field_command_takes_only_the_options_it_reads(argv):
    # --limit is read by check alone and --labels by table and aut alone
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments" in proc.stderr


def test_malformed_carrier_limit_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("TERNARY_MAX_CARRIER", "abc")
    code, out, err = run_main("field", "check", "--spec", "odd(8)")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: TERNARY_MAX_CARRIER='abc' is not an integer"


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_envelope_locality_report():
    doc = run_json("envelope", "--spec", "odd(4)")
    assert doc["field_size"] == 2
    assert doc["envelope_size"] == 4
    assert doc["zero"] == "q(3)"
    assert doc["is_local_with_z2_residue"] is True
    assert doc["maximal_is_pair_part"] is True
    assert doc["residue_sizes"] == [2]
    assert doc["maximal_ideals"] == [["q(1)", "q(3)"]]


def test_envelope_markdown_lists_keys():
    proc = run_cli("envelope", "--spec", "F0(2)")
    assert proc.returncode == 0
    assert "is_local_with_z2_residue: true" in proc.stdout
    assert "schema" not in proc.stdout


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

def test_poly_ce_accepts_the_surviving_exponents():
    doc = run_json("poly", "ce", "x^4 - 1")
    assert doc["completely_even"] is True
    assert doc["coefficients"] == "Z2"


def test_poly_ce_rejects_with_odd_witness():
    proc = run_cli("poly", "ce", "x^3 - 1", "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["completely_even"] is False
    assert doc["witness_parity"] == "odd"


def test_poly_ce_integer_domain_differs():
    # 2x^2+3x+1 = (2x+1)(x+1): even only after reducing the coefficients
    doc = run_json("poly", "ce", "2*x^2 + 3*x + 1")
    assert doc["completely_even"] is True
    proc = run_cli("poly", "ce", "2*x^2 + 3*x + 1", "--coeffs", "Z",
                   "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["completely_even"] is False
    assert doc["witness"] == "2*x + 1"


@pytest.mark.parametrize("expr", ["0", "2*x^2 + 2"])
def test_poly_ce_of_a_polynomial_that_vanishes_mod_2(expr):
    code, out, err = run_main("poly", "ce", expr)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"error: every coefficient of {expr} is even, "
                                    "so it is the zero polynomial mod 2")


def test_poly_ce_rejects_unknown_domain():
    proc = run_cli("poly", "ce", "x^2 - 1", "--coeffs", "Q")
    assert proc.returncode == 2


def test_poly_norm2_values():
    doc = run_json("poly", "norm2", "x + 1/3")
    assert doc["parity"] == "even"
    assert doc["norm2"] == "1"

    doc = run_json("poly", "norm2", "1/2*x + 3")
    assert doc["parity"] == "undefined"
    assert doc["norm2"] == "2^1"

    doc = run_json("poly", "norm2", "4*x^2 + 8")
    assert doc["norm2"] == "2^-2"


# ---------------------------------------------------------------------------
# dyadic
# ---------------------------------------------------------------------------

def test_dyadic_val2():
    doc = run_json("dyadic", "val2", "12")
    assert doc["val2"] == 2
    assert doc["abs2"] == "2^-2"

    doc = run_json("dyadic", "val2", "0")
    assert doc["val2"] == "inf"

    proc = run_cli("dyadic", "val2", "1/6")
    assert proc.returncode == 2  # even denominator: outside the domain


def test_dyadic_reduce():
    doc = run_json("dyadic", "reduce", "1/3", "--precision", "4")
    assert doc["residue"] == 11
    assert doc["modulus"] == 16
    # 3 * 11 = 33 = 1 mod 16


@pytest.mark.parametrize("argv,dashed", [
    (["val2", "-7/3"], ["val2", "--", "-7/3"]),
    (["val2", "-12"], ["val2", "--", "-12"]),
    (["val2", "-1e3"], ["val2", "--", "-1e3"]),
    (["reduce", "-5/7", "--precision", "9"], ["reduce", "--precision", "9", "--", "-5/7"]),
    (["reduce", "--precision", "9", "-5/7", "--format", "json"],
     ["reduce", "--precision", "9", "--format", "json", "--", "-5/7"]),
], ids=" ".join)
def test_a_negative_rational_needs_no_double_dash(argv, dashed):
    code, out, _ = run_main("dyadic", *argv)
    assert code == 0 and "-" in out
    assert (code, out) == run_main("dyadic", *dashed)[:2]


@pytest.mark.parametrize("arg", ["--bogus", "-x", "-/3"])
def test_an_unknown_option_is_still_a_usage_error(arg):
    with pytest.raises(SystemExit) as exit_:
        run_main("dyadic", "val2", arg)
    assert exit_.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_dyadic_reduce_refuses_a_modulus_past_the_digit_limit(fmt):
    # 2^14284 has 4300 decimal digits, Python's int-to-str limit; 2^14285 has 4301
    code, out, err = run_main("dyadic", "reduce", "1/3", "--precision", "14284",
                              "--format", fmt)
    assert code == 0
    modulus = str(1 << 14284)
    assert len(modulus) == 4300
    assert (f'"modulus": {modulus},' if fmt == "json" else f"modulus: {modulus}") in out
    code, out, err = run_main("dyadic", "reduce", "1/3", "--precision", "14285",
                              "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == ("error: precision 14285 gives a modulus of more "
                                    "than 4300 digits, past Python's int-to-str limit")


# ---------------------------------------------------------------------------
# vec
# ---------------------------------------------------------------------------

def test_vec_free():
    doc = run_json("vec", "free", "2", "--spec", "odd(4)")
    assert doc["size"] == 8
    assert doc["basis"] == ["(1,q(3))", "(q(3),1)"]


def test_vec_resolve():
    doc = run_json("vec", "resolve", "1,1", "3,1", "--spec", "odd(4)")
    assert doc["space_size"] == 4
    assert doc["free_size"] == 8
    assert doc["kernel_size"] == 2
    assert doc["formula_size"] == 4
    assert doc["formula_holds"] is True


def test_vec_resolve_rejects_ragged_generators():
    proc = run_cli("vec", "resolve", "1,1", "3", "--spec", "odd(4)")
    assert proc.returncode == 2
    assert "same width" in proc.stderr


# ---------------------------------------------------------------------------
# struct
# ---------------------------------------------------------------------------

def test_struct_toeplitz():
    doc = run_json("struct", "toeplitz", "3", "--spec", "F0(1)")
    assert doc["size"] == 4
    assert doc["commutative"] is True
    assert doc["constructed_isomorphism"] is True
    assert doc["isomorphic_to_size"] == 4


def test_struct_toeplitz_over_eight_residues():
    # n = 256: the isomorphism target is the quotient field over (Z/8Z)^odd
    doc = run_json("struct", "toeplitz", "3", "--spec", "odd(8)")
    assert doc["size"] == 256
    assert doc["constructed_isomorphism"] is True


def test_struct_triangular():
    doc = run_json("struct", "triangular", "2", "--spec", "odd(4)")
    assert doc["size"] == 16
    assert doc["commutative"] is False
    assert len(doc["noncommutative_witness"]) == 2


def test_struct_quaternion():
    doc = run_json("struct", "quaternion", "--spec", "odd(4)")
    assert doc["size"] == 128
    assert doc["commutative"] is False
    assert doc["inverses_verified"] == 128


def test_struct_groupalg_pass_and_fail():
    doc = run_json("struct", "groupalg", "4", "--spec", "F0(1)")
    assert doc["is_3field"] is True
    assert doc["constructed_isomorphism"] is True
    assert doc["isomorphic_to_size"] == 8

    proc = run_cli("struct", "groupalg", "3", "--spec", "F0(1)",
                   "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["is_3field"] is False
    assert doc["witness"] == "(1,1,1)"


def test_struct_groupalg_refuses_the_order_before_building_the_group():
    # the cyclic group's k x k table is never built for a refused order
    with mock.patch.object(cli, "cyclic_group", side_effect=AssertionError("built")):
        code, out, err = run_main("struct", "groupalg", "2000", "--spec", "F0(1)")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].endswith("is too large")


@pytest.mark.parametrize("argv,message", [
    (("struct", "groupalg", "20000"), "carrier of size 2^19999 is too large"),
    (("vec", "free", "20000"), "free carrier of size 2^19999 is too large"),
    (("struct", "toeplitz", "20000"), "carrier of size 2^19999 exceeds the table limit"),
    (("struct", "triangular", "200"), "carrier of size 2^40000 exceeds the table limit"),
])
def test_sizes_past_the_digit_limit_are_refused_with_exit_2(argv, message):
    # these sizes have more decimal digits than Python converts to str
    spec = "odd(4)" if argv[1] == "triangular" else "F0(1)"
    code, out, err = run_main(*argv, "--spec", spec)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: {message}"


def test_struct_groupalg_odd_order_above_the_limit_exits_with_the_norm_witness():
    proc = run_cli("struct", "groupalg", "11", "--spec", "F0(1)")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-3:] == [
        "is_3field: false", "verdict_mode: theorem",
        "witness: (1,1,1,1,1,1,1,1,1,1,1)"]


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_suite_json_ledger():
    proc = run_cli("paper-suite")
    assert proc.returncode == 0
    ledger = json.loads(proc.stdout)
    assert ledger["schema"] == 1
    assert ledger["all_passed"] is True
    assert len(ledger["criteria"]) == 11
    for entry in ledger["criteria"]:
        assert entry["passed"] is True
    # the three budgeted criteria report their timing verdicts
    budgeted = {e["criterion"]: e for e in ledger["criteria"]
                if e.get("budget_seconds") is not None}
    assert sorted(budgeted) == [1, 5, 11]
    assert all(e["within_budget"] for e in budgeted.values())
    # timing lines go to stderr, keeping stdout deterministic
    assert "criterion" in proc.stderr.lower() or proc.stderr


def test_suite_markdown():
    proc = run_cli("paper-suite", "--format", "markdown")
    assert proc.returncode == 0
    assert proc.stdout.startswith("| criterion | title | passed |")
    assert "all passed: true" in proc.stdout
