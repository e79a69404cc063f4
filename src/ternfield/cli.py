"""Command-line front end: constructions, verification suites, and table
exports.

Every invocation is deterministic; the version banner goes to stderr so the
data stream is byte-identical across runs.  Exit codes: 0 when all requested
checks pass, 1 when a check fails (with a witness printed), 2 on usage or
precondition errors.
"""

import argparse
import json
import re
import sys
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
    quaternion_field,
    quaternion_inverse_check,
    toeplitz_field,
    triangular_field,
    vector_power_space,
)

_SPEC_RE = re.compile(r"^(F0|odd)\((\d+(?:,\d+)*)\)$")


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


def _emit(doc, fmt, table=None):
    """Print a report dict as json or markdown, or a table as csv (main
    rejects csv for every other command before it runs)."""
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        print(table.to_csv(letters=doc.get("labels") == "paper"))
    else:
        if table is not None:
            print(table.to_markdown(letters=doc.get("labels") == "paper"))
        else:
            for key, value in doc.items():
                if key in ("schema", "command"):
                    continue
                print(f"{key}: {_plain(value)}")


def _plain(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_plain(v)}" for k, v in value.items()) + "}"
    return str(value)


# -- field ------------------------------------------------------------------

def cmd_field_build(args):
    field = parse_spec(args.spec)
    doc = {
        "schema": 1,
        "command": "field build",
        "spec": args.spec,
        "size": field.n,
        "one": field.label(field.one),
        "characteristic": int(prime_subfield(field).characteristic),
        "labels": list(field.labels),
        "validated": "exhaustive" if field.n <= check_limit() else "invariants",
    }
    _emit(doc, args.format)
    return 0


def cmd_field_table(args):
    field = parse_spec(args.spec)
    table = cayley_table(field, "multiplication")
    letters = args.labels == "paper"
    if letters:
        table = table.reorder(sorted(table.labels(letters=True)), letters=True)
    doc = table.to_json()
    doc.update({"schema": 1, "command": "field table", "spec": args.spec,
                "labels": args.labels})
    if letters:
        doc["elements"] = table.labels(letters=True)
        doc["letter_map"] = dict(zip(table.labels(), table.labels(letters=True)))
    _emit(doc, args.format, table=table)
    return 0


def cmd_field_aut(args):
    field = parse_spec(args.spec)
    table = automorphism_group(field)
    letters = args.labels == "paper"
    if letters:
        table = table.reorder(sorted(table.labels(letters=True)), letters=True)
    doc = table.to_json()
    doc.update({"schema": 1, "command": "field aut", "spec": args.spec,
                "labels": args.labels,
                "fingerprint": fingerprint_group(table)})
    if letters:
        doc["elements"] = table.labels(letters=True)
    _emit(doc, args.format, table=table)
    return 0


def cmd_field_check(args):
    # the checks below decide the axioms, so construction runs only the
    # cheap invariants
    field = parse_spec(args.spec, check="light")
    v_add = check_ternary_group(field.carrier, limit=args.limit)
    v_mul = check_distributivity(field.carrier, limit=args.limit)
    found = detect_derived_structure(field.carrier)
    doc = {
        "schema": 1,
        "command": "field check",
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
    _emit(doc, args.format)
    return 0 if ok else 1


# -- envelope ---------------------------------------------------------------

def cmd_envelope(args):
    field = parse_spec(args.spec)
    env = build_envelope(field)
    report = verify_local(env)
    doc = {
        "schema": 1,
        "command": "envelope",
        "spec": args.spec,
        "field_size": field.n,
        "envelope_size": env.n,
        "zero": env.labels[env.zero],
        "maximal_ideals": [[env.labels[i] for i in m]
                           for m in report["maximal_ideals"]],
        "residue_sizes": report["residue_sizes"],
        "is_local_with_z2_residue": report["is_local_with_z2_residue"],
        "maximal_is_pair_part": report.get("maximal_is_pair_part"),
    }
    _emit(doc, args.format)
    return 0 if report["is_local_with_z2_residue"] else 1


# -- poly -------------------------------------------------------------------

def cmd_poly_ce(args):
    p = TernaryPolynomial.parse(args.expr)
    domain = {"Z2": "gf2", "Z": "integer"}.get(args.coeffs)
    if domain is None:
        raise UsageError("--coeffs must be Z2 or Z")
    report = completely_even(p, domain=domain, max_degree=args.max_degree)
    doc = {
        "schema": 1,
        "command": "poly ce",
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
    _emit(doc, args.format)
    return 0 if report["completely_even"] else 1


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
    doc = {
        "schema": 1,
        "command": "poly norm2",
        "polynomial": str(p),
        "parity": par,
        "norm2": shown,
    }
    _emit(doc, args.format)
    return 0


# -- dyadic -----------------------------------------------------------------

def cmd_dyadic_val2(args):
    x = Fraction(args.rational)
    v = val2(x)
    doc = {
        "schema": 1,
        "command": "dyadic val2",
        "value": str(x),
        "val2": "inf" if v == float("inf") else int(v),
        "abs2": norm2_str(x),
    }
    _emit(doc, args.format)
    return 0


def cmd_dyadic_reduce(args):
    x = Fraction(args.rational)
    residue = reduce_mod(x, args.precision)
    doc = {
        "schema": 1,
        "command": "dyadic reduce",
        "value": str(x),
        "precision": args.precision,
        "modulus": 1 << args.precision,
        "residue": residue,
    }
    _emit(doc, args.format)
    return 0


# -- vec --------------------------------------------------------------------

def cmd_vec_free(args):
    field = parse_spec(args.spec)
    space = free_space(field, args.width)
    doc = {
        "schema": 1,
        "command": "vec free",
        "spec": args.spec,
        "width": args.width,
        "size": space.n,
        "basis": [space.label(b) for b in space.basis],
    }
    _emit(doc, args.format)
    return 0


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
    doc = {
        "schema": 1,
        "command": "vec resolve",
        "spec": args.spec,
        "generators": [space.label(g) for g in gens],
        "space_size": report["space_size"],
        "free_size": report["free_size"],
        "kernel_size": report["kernel_size"],
        "kernel": [list(k) for k in report["kernel"]],
        "formula_size": report["formula_size"],
        "formula_holds": report["formula_holds"],
    }
    _emit(doc, args.format)
    return 0 if report["formula_holds"] else 1


# -- struct -----------------------------------------------------------------

def cmd_struct_toeplitz(args):
    field = parse_spec(args.spec)
    result = toeplitz_field(args.size, field)
    doc = {
        "schema": 1,
        "command": "struct toeplitz",
        "spec": args.spec,
        "matrix_size": args.size,
        "size": result.field.n,
        "commutative": True,
        "constructed_isomorphism": result.isomorphism is not None,
    }
    if result.isomorphism is not None:
        doc["isomorphic_to_size"] = result.isomorphism.source.n
    _emit(doc, args.format)
    return 0


def cmd_struct_triangular(args):
    field = parse_spec(args.spec)
    result = triangular_field(args.size, field)
    doc = {
        "schema": 1,
        "command": "struct triangular",
        "spec": args.spec,
        "matrix_size": args.size,
        "size": result.field.n,
        "commutative": result.noncommutative_witness is None,
    }
    if result.noncommutative_witness is not None:
        doc["noncommutative_witness"] = list(result.noncommutative_witness)
    _emit(doc, args.format)
    return 0


def cmd_struct_quaternion(args):
    field = parse_spec(args.spec)
    result = quaternion_field(field)
    checked = quaternion_inverse_check(result)
    doc = {
        "schema": 1,
        "command": "struct quaternion",
        "spec": args.spec,
        "size": result.field.n,
        "commutative": result.commutative,
        "inverses_verified": checked,
    }
    if result.noncommutative_witness is not None:
        doc["noncommutative_witness"] = list(result.noncommutative_witness)
    _emit(doc, args.format)
    return 0


def cmd_struct_groupalg(args):
    field = parse_spec(args.spec)
    result = group_algebra(cyclic_group(args.order), field)
    doc = {
        "schema": 1,
        "command": "struct groupalg",
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
    _emit(doc, args.format)
    return 0 if result.is_3field else 1


# -- suite ------------------------------------------------------------------

def cmd_suite(args):
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
    return 0 if ledger["all_passed"] else 1


# -- wiring -----------------------------------------------------------------

def _add_format(p, default="markdown"):
    p.add_argument("--format", choices=["markdown", "csv", "json"],
                   default=default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ternfield",
        description="Exact computations in unital 3-fields and their "
                    "envelope rings.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_field = sub.add_parser("field", help="build, inspect and check fields")
    f_sub = p_field.add_subparsers(dest="action", required=True)
    for name, fn in (("build", cmd_field_build), ("table", cmd_field_table),
                     ("aut", cmd_field_aut), ("check", cmd_field_check)):
        p = f_sub.add_parser(name)
        p.add_argument("--spec", required=True)
        p.add_argument("--labels", choices=["canonical", "paper"],
                       default="canonical")
        p.add_argument("--limit", type=int, default=None)
        _add_format(p)
        p.set_defaults(handler=fn)

    p_env = sub.add_parser("envelope", help="the enveloping ring of a field")
    p_env.add_argument("--spec", required=True)
    _add_format(p_env)
    p_env.set_defaults(handler=cmd_envelope)

    p_poly = sub.add_parser("poly", help="polynomial predicates")
    poly_sub = p_poly.add_subparsers(dest="action", required=True)
    p_ce = poly_sub.add_parser("ce")
    p_ce.add_argument("expr")
    p_ce.add_argument("--coeffs", default="Z2")
    p_ce.add_argument("--max-degree", type=int, default=8)
    _add_format(p_ce)
    p_ce.set_defaults(handler=cmd_poly_ce)
    p_n2 = poly_sub.add_parser("norm2")
    p_n2.add_argument("expr")
    _add_format(p_n2)
    p_n2.set_defaults(handler=cmd_poly_norm2)

    p_dy = sub.add_parser("dyadic", help="2-adic valuation and reduction")
    dy_sub = p_dy.add_subparsers(dest="action", required=True)
    p_v2 = dy_sub.add_parser("val2")
    p_v2.add_argument("rational")
    _add_format(p_v2)
    p_v2.set_defaults(handler=cmd_dyadic_val2)
    p_rd = dy_sub.add_parser("reduce")
    p_rd.add_argument("rational")
    p_rd.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    _add_format(p_rd)
    p_rd.set_defaults(handler=cmd_dyadic_reduce)

    p_vec = sub.add_parser("vec", help="3-vector spaces and resolutions")
    vec_sub = p_vec.add_subparsers(dest="action", required=True)
    p_vf = vec_sub.add_parser("free")
    p_vf.add_argument("width", type=int)
    p_vf.add_argument("--spec", required=True)
    _add_format(p_vf)
    p_vf.set_defaults(handler=cmd_vec_free)
    p_vr = vec_sub.add_parser("resolve")
    p_vr.add_argument("generators", nargs="+",
                      help="comma-separated coordinate labels, e.g. 1,1 3,1")
    p_vr.add_argument("--spec", required=True)
    _add_format(p_vr)
    p_vr.set_defaults(handler=cmd_vec_resolve)

    p_st = sub.add_parser("struct", help="matrix, quaternion and group fields")
    st_sub = p_st.add_subparsers(dest="action", required=True)
    p_tp = st_sub.add_parser("toeplitz")
    p_tp.add_argument("size", type=int)
    p_tp.add_argument("--spec", required=True)
    _add_format(p_tp)
    p_tp.set_defaults(handler=cmd_struct_toeplitz)
    p_tr = st_sub.add_parser("triangular")
    p_tr.add_argument("size", type=int)
    p_tr.add_argument("--spec", required=True)
    _add_format(p_tr)
    p_tr.set_defaults(handler=cmd_struct_triangular)
    p_qt = st_sub.add_parser("quaternion")
    p_qt.add_argument("--spec", required=True)
    _add_format(p_qt)
    p_qt.set_defaults(handler=cmd_struct_quaternion)
    p_ga = st_sub.add_parser("groupalg")
    p_ga.add_argument("order", type=int, help="cyclic group order")
    p_ga.add_argument("--spec", required=True)
    _add_format(p_ga)
    p_ga.set_defaults(handler=cmd_struct_groupalg)

    p_suite = sub.add_parser(
        "paper-suite", help="run the full verification suite")
    p_suite.add_argument("--format", choices=["markdown", "json"],
                         default="json")
    p_suite.set_defaults(handler=cmd_suite)

    return parser


def main(argv=None):
    print(f"ternfield {__version__}", file=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format == "csv" and args.handler not in (cmd_field_table,
                                                         cmd_field_aut):
            raise UsageError("csv output is only available for table commands")
        return args.handler(args)
    except (UsageError, StructureError, CarrierSizeError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
