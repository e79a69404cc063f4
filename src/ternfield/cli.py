"""Command-line front end: constructions, verification suites, and table
exports.

Each command is declared once, by `command` on its handler: its words, its
argparse arguments in --help order, and whether it prints csv.
`build_parser` builds the argparse tree from that table; `main` builds it
on its first call and reuses it.  A handler returns its report and exit
code (and, for the table commands, the table); `main` adds the schema and
command keys and prints the report.

Every invocation is deterministic; the version banner goes to stderr so the
data stream is byte-identical across runs.  Exit codes: 0 when all requested
checks pass, 1 when a check fails (with a witness printed), 2 on usage or
precondition errors (a malformed spec, rational or polynomial, any
StructureError, a size gate).  Any other exception is a bug: `main`
propagates it, and `run`, the console script, prints its traceback and
exits 70 (EX_SOFTWARE), so that a bug never reads as a verdict.
"""

import argparse
import functools
import json
import re
import sys
import traceback
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .ternary_kernel import (
    CarrierSizeError,
    StructureError,
    check_distributivity,
    check_limit,
    check_ternary_group,
    detect_derived_structure,
    odd_residue_field,
)
from .pair_envelope import build_envelope, verify_local
from .dyadic import (
    DEFAULT_PRECISION,
    norm2_str,
    reduce_mod,
    val2,
)
from .poly_fields import (
    QuotientFieldSpec,
    TernaryPolynomial,
    build_quotient_field,
    completely_even,
    norm2,
    parity,
    prime_subfield,
    product_field,
)
from .automorphisms import (
    automorphism_group,
    cayley_table,
    fingerprint_group,
)
from .structures import (
    cyclic_group,
    free_resolution,
    free_space,
    group_algebra,
    group_algebra_size,
    quaternion_field,
    quaternion_inverse_check,
    toeplitz_field,
    triangular_field,
    vector_power_space,
)

_SPEC_RE = re.compile(r"^(F0|odd)\((\d+(?:,\d+)*)\)$")
# argparse takes only -7 and -0.5 for negative numbers, and anything else that
# starts with "-" for an option; every argument that starts like a negative
# number (-7/3, -.5, -1e3) is an argument
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class UsageError(ValueError):
    """Malformed input; maps to exit code 2."""


def _parse_factor(text, check):
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise UsageError(
            f"cannot parse field spec {text!r}: expected F0(n), F0(n1,...,nk) "
            "or odd(m) with m a power of two, optionally joined by 'x'")
    kind, args = m.group(1), [int(v) for v in m.group(2).split(",")]
    if kind == "odd":
        if len(args) != 1:
            raise UsageError("odd(...) takes a single modulus")
        return odd_residue_field(args[0], check=check)
    return build_quotient_field(QuotientFieldSpec(tuple(args)), check=check)


def parse_spec(text, check="auto"):
    """F0(n), F0(n1,...,nk), odd(m), or products joined by 'x'; `check` is
    passed to every constructor (see FiniteThreeField)."""
    factors = [_parse_factor(part, check) for part in text.split("x")]
    if len(factors) == 1:
        return factors[0]
    return product_field(*factors, check=check).field


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational {text!r}: expected a number "
                         "such as 12 or 1/3, with a nonzero denominator") from None


def _emit(doc, fmt, words, table=None):
    """Print a report dict as json or markdown, or a table as csv or
    markdown (main rejects csv for every other command before it runs)."""
    if fmt == "json":
        head = table.to_json() if table is not None else {}
        print(json.dumps({**head, "schema": 1, "command": words, **doc},
                         indent=2))
    elif table is not None:
        letters = doc["labels"] == "paper"
        print(table.to_csv(letters=letters) if fmt == "csv"
              else table.to_markdown(letters=letters))
    else:
        for key, value in doc.items():
            print(f"{key}: {_plain(value)}")


def _plain(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_plain(v)}" for k, v in value.items()) + "}"
    return str(value)


# -- the command table --------------------------------------------------------

Command = namedtuple("Command", "words handler arguments csv")

# words -> Command, in the order --help lists them
COMMANDS = {}

_VERB_HELP = {
    "field": "build, inspect and check fields",
    "envelope": "the enveloping ring of a field",
    "poly": "polynomial predicates",
    "dyadic": "2-adic valuation and reduction",
    "vec": "3-vector spaces and resolutions",
    "struct": "matrix, quaternion and group fields",
    "paper-suite": "run the full verification suite",
}


def _arg(*names, **kwargs):
    return names, kwargs


_FORMAT = _arg("--format", choices=["markdown", "csv", "json"],
               default="markdown")
_SPEC = _arg("--spec", required=True)
_LABELS = _arg("--labels", choices=["canonical", "paper"], default="canonical")


def command(words, *arguments, csv=False, fmt=_FORMAT):
    """Declare `handler` as `ternfield <words>`, taking `arguments` and then
    `fmt`; only a `csv` command may be asked for --format csv."""
    def declare(handler):
        COMMANDS[words] = Command(words, handler, arguments + (fmt,), csv)
        return handler
    return declare


# -- field ------------------------------------------------------------------

def _paper_order(table, args):
    if args.labels == "paper":
        return table.reorder(sorted(table.labels(letters=True)), letters=True)
    return table


@command("field build", _SPEC)
def cmd_field_build(args):
    field = parse_spec(args.spec)
    return {
        "spec": args.spec,
        "size": field.n,
        "one": field.label(field.one),
        "characteristic": int(prime_subfield(field).characteristic),
        "labels": list(field.labels),
        "validated": "exhaustive" if field.n <= check_limit() else "invariants",
    }, 0


@command("field table", _SPEC, _LABELS, csv=True)
def cmd_field_table(args):
    table = _paper_order(cayley_table(parse_spec(args.spec)), args)
    doc = {"spec": args.spec, "labels": args.labels}
    if args.labels == "paper":
        doc["elements"] = table.labels(letters=True)
        doc["letter_map"] = dict(zip(table.labels(), table.labels(letters=True)))
    return doc, 0, table


@command("field aut", _SPEC, _LABELS, csv=True)
def cmd_field_aut(args):
    table = _paper_order(automorphism_group(parse_spec(args.spec)), args)
    doc = {"spec": args.spec, "labels": args.labels,
           "fingerprint": fingerprint_group(table)}
    if args.labels == "paper":
        doc["elements"] = table.labels(letters=True)
    return doc, 0, table


@command("field check", _SPEC, _arg("--limit", type=int, default=None))
def cmd_field_check(args):
    # construction runs only the cheap laws and the checkers decide the
    # rest; each cheap law is decided once per carrier, so the checkers
    # read the verdicts construction reached
    field = parse_spec(args.spec, check="light")
    v_add = check_ternary_group(field.carrier, limit=args.limit)
    v_mul = check_distributivity(field.carrier, limit=args.limit)
    found = detect_derived_structure(field.carrier)
    doc = {
        "spec": args.spec,
        "size": field.n,
        "additive_axioms": bool(v_add),
        "distributivity": bool(v_mul),
        "unit": None if found["unit"] is None else field.label(found["unit"]),
        "zero_element": None if found["zero"] is None
                        else field.label(found["zero"]),
    }
    ok = (bool(v_add) and bool(v_mul) and found["unit"] == field.one
          and found["zero"] is None)
    if not v_add:
        doc["witness"] = v_add.detail
    elif not v_mul:
        doc["witness"] = v_mul.detail
    doc["passed"] = ok
    return doc, 0 if ok else 1


# -- envelope ---------------------------------------------------------------

@command("envelope", _SPEC)
def cmd_envelope(args):
    field = parse_spec(args.spec)
    env = build_envelope(field)
    report = verify_local(env)
    return {
        "spec": args.spec,
        "field_size": field.n,
        "envelope_size": env.n,
        "zero": env.labels[env.zero],
        "maximal_ideals": [[env.labels[i] for i in m]
                           for m in report["maximal_ideals"]],
        "residue_sizes": report["residue_sizes"],
        "is_local_with_z2_residue": report["is_local_with_z2_residue"],
        "maximal_is_pair_part": report.get("maximal_is_pair_part"),
    }, 0 if report["is_local_with_z2_residue"] else 1


# -- poly -------------------------------------------------------------------

@command("poly ce", _arg("expr"), _arg("--coeffs", default="Z2"),
         _arg("--max-degree", type=int, default=8))
def cmd_poly_ce(args):
    p = TernaryPolynomial.parse(args.expr)
    domain = {"Z2": "gf2", "Z": "integer"}.get(args.coeffs)
    if domain is None:
        raise UsageError("--coeffs must be Z2 or Z")
    report = completely_even(p, domain=domain, max_degree=args.max_degree)
    doc = {
        "polynomial": str(p),
        "coefficients": args.coeffs,
        "completely_even": report["completely_even"],
    }
    if report["witness"] is not None:
        doc["witness"] = str(report["witness"])
        doc["witness_parity"] = parity(report["witness"])
    if "factors" in report:
        doc["factors"] = [str(f) for f in report["factors"]]
    if "carrier_power" in report:
        doc["carrier_power"] = report["carrier_power"]
    return doc, 0 if report["completely_even"] else 1


@command("poly norm2", _arg("expr"))
def cmd_poly_norm2(args):
    p = TernaryPolynomial.parse(args.expr)
    value = norm2(p)
    if value == 1:
        shown = "1"
    elif value.numerator == 1:
        shown = f"2^-{value.denominator.bit_length() - 1}"
    else:
        shown = f"2^{value.numerator.bit_length() - 1}"
    try:
        par = parity(p)
    except StructureError:
        par = "undefined"  # coefficient sum outside the odd-denominator domain
    return {"polynomial": str(p), "parity": par, "norm2": shown}, 0


# -- dyadic -----------------------------------------------------------------

@command("dyadic val2", _arg("rational"))
def cmd_dyadic_val2(args):
    x = _parse_rational(args.rational)
    v = val2(x)
    return {
        "value": str(x),
        "val2": "inf" if v == float("inf") else int(v),
        "abs2": norm2_str(x),
    }, 0


@command("dyadic reduce", _arg("rational"),
         _arg("--precision", type=int, default=DEFAULT_PRECISION))
def cmd_dyadic_reduce(args):
    x = _parse_rational(args.rational)
    # 2^p prints iff it is below 10^digits, i.e. p < bit_length(10^digits)
    digits = sys.get_int_max_str_digits()
    if digits and args.precision >= (10 ** digits).bit_length():
        raise UsageError(f"precision {args.precision} gives a modulus of more than "
                         f"{digits} digits, past Python's int-to-str limit")
    residue = reduce_mod(x, args.precision)
    return {
        "value": str(x),
        "precision": args.precision,
        "modulus": 1 << args.precision,
        "residue": residue,
    }, 0


# -- vec --------------------------------------------------------------------

@command("vec free", _arg("width", type=int), _SPEC)
def cmd_vec_free(args):
    field = parse_spec(args.spec)
    space = free_space(field, args.width)
    return {
        "spec": args.spec,
        "width": args.width,
        "size": space.n,
        "basis": [space.label(b) for b in space.basis],
    }, 0


@command("vec resolve",
         _arg("generators", nargs="+",
              help="comma-separated coordinate labels, e.g. 1,1 3,1"),
         _SPEC)
def cmd_vec_resolve(args):
    field = parse_spec(args.spec)
    parsed = [tuple(part.strip() for part in g.split(",")) for g in args.generators]
    widths = {len(p) for p in parsed}
    if len(widths) != 1:
        raise UsageError("all generators must have the same width")
    width = widths.pop()
    space = vector_power_space(field, width)
    gens = [space.from_labels(p) for p in parsed]
    report = free_resolution(space, gens)
    return {
        "spec": args.spec,
        "generators": [space.label(g) for g in gens],
        "space_size": report["space_size"],
        "free_size": report["free_size"],
        "kernel_size": report["kernel_size"],
        "kernel": [list(k) for k in report["kernel"]],
        "formula_size": report["formula_size"],
        "formula_holds": report["formula_holds"],
    }, 0 if report["formula_holds"] else 1


# -- struct -----------------------------------------------------------------

@command("struct toeplitz", _arg("size", type=int), _SPEC)
def cmd_struct_toeplitz(args):
    field = parse_spec(args.spec)
    result = toeplitz_field(args.size, field)
    doc = {
        "spec": args.spec,
        "matrix_size": args.size,
        "size": result.field.n,
        "commutative": True,
        "constructed_isomorphism": result.isomorphism is not None,
    }
    if result.isomorphism is not None:
        doc["isomorphic_to_size"] = result.isomorphism.source.n
    return doc, 0


@command("struct triangular", _arg("size", type=int), _SPEC)
def cmd_struct_triangular(args):
    field = parse_spec(args.spec)
    result = triangular_field(args.size, field)
    doc = {
        "spec": args.spec,
        "matrix_size": args.size,
        "size": result.field.n,
        "commutative": result.noncommutative_witness is None,
    }
    if result.noncommutative_witness is not None:
        doc["noncommutative_witness"] = list(result.noncommutative_witness)
    return doc, 0


@command("struct quaternion", _SPEC)
def cmd_struct_quaternion(args):
    field = parse_spec(args.spec)
    result = quaternion_field(field)
    checked = quaternion_inverse_check(result)
    doc = {
        "spec": args.spec,
        "size": result.field.n,
        "commutative": result.commutative,
        "inverses_verified": checked,
    }
    if result.noncommutative_witness is not None:
        doc["noncommutative_witness"] = list(result.noncommutative_witness)
    return doc, 0


@command("struct groupalg", _arg("order", type=int, help="cyclic group order"),
         _SPEC)
def cmd_struct_groupalg(args):
    field = parse_spec(args.spec)
    group_algebra_size(args.order, field)     # refuse before the k x k table
    result = group_algebra(cyclic_group(args.order), field)
    doc = {
        "spec": args.spec,
        "group": f"Z/{args.order}Z",
        "size": result.size,
        "is_3field": result.is_3field,
        "verdict_mode": result.verdict_mode,
    }
    if result.witness is not None:
        doc["witness"] = result.witness
    if result.isomorphism is not None:
        doc["constructed_isomorphism"] = True
        doc["isomorphic_to_size"] = result.isomorphism.target.n
    return doc, 0 if result.is_3field else 1


# -- suite ------------------------------------------------------------------

@command("paper-suite",
         fmt=_arg("--format", choices=["markdown", "json"], default="json"))
def cmd_suite(args):
    """Prints the ledger itself, so returns no report."""
    from ._suite import run_suite
    ledger = run_suite(stream=sys.stderr)
    if args.format == "markdown":
        print("| criterion | title | passed |")
        print("|---|---|---|")
        for entry in ledger["criteria"]:
            print(f"| {entry['criterion']} | {entry['title']} | "
                  f"{'pass' if entry['passed'] else 'FAIL'} |")
        print(f"\nall passed: {_plain(ledger['all_passed'])}")
    else:
        print(json.dumps(ledger, indent=2))
    return None, 0 if ledger["all_passed"] else 1


# -- wiring -----------------------------------------------------------------

def build_parser():
    """The argparse tree of COMMANDS: one subparser per verb, and one per
    action under a two-word verb."""
    parser = argparse.ArgumentParser(
        prog="ternfield",
        description="Exact computations in unital 3-fields and their "
                    "envelope rings.")
    verbs = parser.add_subparsers(dest="verb", required=True)
    actions = {}
    for words, cmd in COMMANDS.items():
        verb, _, action = words.partition(" ")
        if action and verb not in actions:
            actions[verb] = verbs.add_parser(
                verb, help=_VERB_HELP[verb]).add_subparsers(
                    dest="action", required=True)
        p = (actions[verb].add_parser(action) if action
             else verbs.add_parser(verb, help=_VERB_HELP[verb]))
        for names, kwargs in cmd.arguments:
            p.add_argument(*names, **kwargs)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(cmd=cmd)
    return parser


@functools.cache
def _parser():
    # built on the first main call, not at import: importing cli stays cheap
    return build_parser()


def main(argv=None):
    print(f"ternfield {__version__}", file=sys.stderr)
    args = _parser().parse_args(argv)
    cmd = args.cmd
    try:
        if args.format == "csv" and not cmd.csv:
            raise UsageError("csv output is only available for table commands")
        doc, code, *table = cmd.handler(args)
    except (UsageError, StructureError, CarrierSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if doc is not None:
        _emit(doc, args.format, cmd.words, *table)
    return code


def run(argv=None):
    """`main` as a process: an internal error exits 70, not 1."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(run())
