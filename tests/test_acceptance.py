"""Acceptance suite: twelve end-to-end criteria exercised directly against
the library (and, for the last one, the installed command line).  Every
expected value is frozen here as a literal; nothing is routed through the
packaged verification suite except criterion 12, which runs it as a
subprocess exactly the way a user would."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from ternfield import (
    FiniteThreeField,
    QuotientFieldSpec,
    RingMorphism,
    TernaryCarrier,
    TernaryPolynomial,
    TruncatedDyadic,
    automorphism_group,
    build_envelope,
    build_f0,
    build_quotient_field,
    cardinality,
    cayley_table,
    check_distributivity,
    check_ternary_group,
    completely_even,
    cyclic_group,
    detect_derived_structure,
    embedding_criterion,
    field_isomorphism,
    fingerprint_group,
    free_resolution,
    group_algebra,
    odd_rational,
    odd_residue_field,
    parity,
    product_field,
    quaternion_field,
    quaternion_inverse_check,
    reduce_mod,
    residue_ring,
    toeplitz_field,
    triangular_field,
    val2,
    vector_power_space,
    verify_local,
)
from ternfield import _suite

from oracles import FIELDS, tuple_index


def roster():
    """The exhibit list, built afresh from the shared roster: odd residue
    fields to 32 elements, quotient fields to 32 elements, one
    multi-variable field, one product."""
    fields = [(f"odd(2^{n})", FIELDS[f"odd({1 << n})"](check="light")) for n in range(1, 7)]
    fields += [(f"F0({n})", FIELDS[f"F0({n})"](check="light")) for n in range(1, 7)]
    fields.append(("F0(2,2)", FIELDS["F0(2,2)"](check="light")))
    fields.append(("F0(2)xF0(2)", FIELDS["F0(2)xF0(2)"](check="auto")))
    return fields


# ---------------------------------------------------------------------------
# criterion 1: the axioms hold exhaustively across the roster, under 10s
# ---------------------------------------------------------------------------

def test_criterion_01_axiom_suite_across_roster():
    start = time.perf_counter()
    for name, f in roster():
        v_add = check_ternary_group(f.carrier, limit=f.n)
        assert bool(v_add), f"{name}: {v_add.detail}"
        v_mul = check_distributivity(f.carrier, limit=f.n)
        assert bool(v_mul), f"{name}: {v_mul.detail}"
        found = detect_derived_structure(f.carrier)
        assert found["unit"] == f.one, name
        assert found["zero"] is None, f"{name} carries an additive zero"
    assert time.perf_counter() - start < 10.0


def test_criterion_01_names_the_additive_witness_first(monkeypatch):
    # pi o nu of odd(16) passes every cheap law and fails both checks; the
    # suite's entry names the additive witness first, as `field check` does
    f = odd_residue_field(16)
    pi = np.random.default_rng(0).permutation(f.n)
    g = FiniteThreeField(TernaryCarrier(f.labels, pi[f.carrier.nu], f.carrier.mu), f.one,
                         check="light")
    monkeypatch.setattr(_suite, "_suite_fields", lambda: [("pi o nu", g)])
    ok, detail = _suite.criterion_1()
    v_add = check_ternary_group(g.carrier, limit=g.n)
    assert not v_add and not check_distributivity(g.carrier, limit=g.n)
    [entry] = detail["fields"]
    assert not ok and entry["passed"] is False
    assert entry["witness"] == v_add.detail


# ---------------------------------------------------------------------------
# criterion 2: envelopes are local with two-element residue; the envelope of
# the odd residues is the full residue ring, by a constructed isomorphism
# ---------------------------------------------------------------------------

def test_criterion_02_envelope_locality():
    for name, f in roster():
        env = build_envelope(f)
        assert env.n == 2 * f.n, name
        report = verify_local(env)
        assert report["is_local_with_z2_residue"], name
        assert report["maximal_is_pair_part"], name
        assert report["residue_sizes"] == [2], name


def test_criterion_02_envelope_of_odd_residues_is_the_residue_ring():
    for n in range(1, 7):
        mod = 1 << n
        f = odd_residue_field(mod, check="light")
        env = build_envelope(f)
        ring = residue_ring(mod)
        mapping = [0] * env.n
        for i in range(f.n):
            value = int(f.labels[i])
            mapping[i] = value
            mapping[env.pair_index(i)] = (value + 1) % mod
        iso = RingMorphism(env, ring, mapping)  # validates both operations
        assert iso.is_bijective(), f"odd(2^{n})"


# ---------------------------------------------------------------------------
# criterion 3: every cardinality is a power of two; the single-variable
# quotient fields have 2^(n-1) elements through n = 8
# ---------------------------------------------------------------------------

def test_criterion_03_cardinalities():
    for name, f in roster():
        assert f.n & (f.n - 1) == 0, f"{name} has size {f.n}"
    for n in range(1, 9):
        expected = 2 ** (n - 1)
        assert build_f0(n, check="light").n == expected
        assert cardinality(QuotientFieldSpec((n,))) == expected


# ---------------------------------------------------------------------------
# criterion 4: the frozen multiplication tables, with the corrected cell
# ---------------------------------------------------------------------------

F03_ORDER = ["1", "a", "b", "c"]
F03_MULT = [
    ["1", "a", "b", "c"],
    ["a", "b", "c", "1"],
    ["b", "c", "1", "a"],
    ["c", "1", "a", "b"],
]

F04_ORDER = ["1", "a", "b", "c", "d", "e", "f", "g"]
F04_MULT = [
    ["1", "a", "b", "c", "d", "e", "f", "g"],
    ["a", "b", "c", "1", "g", "d", "e", "f"],
    ["b", "c", "1", "a", "f", "g", "d", "e"],
    ["c", "1", "a", "b", "e", "f", "g", "d"],
    ["d", "g", "f", "e", "b", "a", "1", "c"],
    ["e", "d", "g", "f", "a", "1", "c", "b"],
    ["f", "e", "d", "g", "1", "c", "b", "a"],
    ["g", "f", "e", "d", "c", "b", "a", "1"],
]


def _letter_rows(field, order):
    t = cayley_table(field).reorder(order, letters=True)
    return [[t.entry_label(i, j, letters=True) for j in range(t.order)]
            for i in range(t.order)]


def test_criterion_04_four_element_table_with_corrected_cell():
    rows = _letter_rows(build_f0(3, check="light"), F03_ORDER)
    assert rows == F03_MULT
    # the transcription this table was checked against prints c in the (c,c)
    # cell; direct computation and the Latin-square property force b
    cc = rows[F03_ORDER.index("c")][F03_ORDER.index("c")]
    assert cc == "b"
    assert cc != "c"
    assert sorted(rows[F03_ORDER.index("c")]) == sorted(F03_ORDER)


def test_criterion_04_eight_element_table():
    assert _letter_rows(build_f0(4, check="light"), F04_ORDER) == F04_MULT


# ---------------------------------------------------------------------------
# criterion 5: automorphism groups through five terms, under 5s
# ---------------------------------------------------------------------------

AUT5_ORDER = ["a", "c", "e", "g", "p", "r", "t", "v"]
AUT5_TABLE = [
    ["a", "c", "e", "g", "p", "r", "t", "v"],
    ["c", "a", "p", "r", "e", "g", "v", "t"],
    ["e", "v", "g", "t", "c", "p", "a", "r"],
    ["g", "r", "t", "a", "v", "c", "e", "p"],
    ["p", "t", "r", "v", "a", "e", "c", "g"],
    ["r", "g", "v", "c", "t", "a", "p", "e"],
    ["t", "p", "a", "e", "r", "v", "g", "c"],
    ["v", "e", "c", "p", "g", "t", "r", "a"],
]


def test_criterion_05_automorphism_groups():
    start = time.perf_counter()

    orders = {n: automorphism_group(build_f0(n, check="light")).order
              for n in range(2, 6)}
    assert orders == {2: 1, 3: 2, 4: 4, 5: 8}

    # the one nontrivial map of the four-element field is an involution
    t3 = automorphism_group(build_f0(3, check="light"))
    c = t3.position("c", letters=True)
    assert int(t3.table[c, c]) == t3.identity

    # the eight-element field: exactly c, d, f beyond the identity, all
    # involutions
    t4 = automorphism_group(build_f0(4, check="light"))
    labs = t4.labels(letters=True)
    nontrivial = sorted(l for i, l in enumerate(labs) if i != t4.identity)
    assert nontrivial == ["c", "d", "f"]
    assert all(int(t4.table[i, i]) == t4.identity for i in range(t4.order))

    # the sixteen-element field: the frozen composition table and the
    # dihedral fingerprint
    t5 = automorphism_group(build_f0(5, check="light")).reorder(
        AUT5_ORDER, letters=True)
    rows = [[t5.entry_label(i, j, letters=True) for j in range(8)]
            for i in range(8)]
    assert rows == AUT5_TABLE
    fp = fingerprint_group(t5)
    assert fp["abelian"] is False
    assert fp["iso_class"] == "D4 (the dihedral group of order 8)"

    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 6: which x^n - 1 are completely even, with an independent
# factorization oracle
# ---------------------------------------------------------------------------

def _deg(m):
    return m.bit_length() - 1


def _divmod2(a, b):
    q = 0
    while a and _deg(a) >= _deg(b):
        shift = _deg(a) - _deg(b)
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _factor2(m):
    """Trial-division factorization of a polynomial bitmask over the
    two-element coefficients, independent of the library's routine."""
    out = []
    while _deg(m) > 0:
        hit = None
        for d in range(2, (1 << (_deg(m) // 2 + 1)) + 1):
            q, r = _divmod2(m, d)
            if r == 0:
                hit = d
                break
        if hit is None:
            out.append(m)
            break
        out.append(hit)
        m, _ = _divmod2(m, hit)
    return out


def test_criterion_06_completely_even_powers():
    surviving = {1, 2, 4, 8, 16}
    for n in range(1, 21):
        report = completely_even(TernaryPolynomial.parse(f"x^{n} - 1"),
                                 domain="gf2")
        expected = n in surviving
        assert report["completely_even"] == expected, f"n = {n}"
        # oracle: completely even over these coefficients iff every
        # irreducible factor of the mask has an even number of terms
        mask = (1 << n) | 1
        oracle = all(bin(f).count("1") % 2 == 0 for f in _factor2(mask))
        assert oracle == expected, f"oracle disagrees at n = {n}"
        if not expected:
            assert report["witness"] is not None
            assert parity(report["witness"]) == "odd"


# ---------------------------------------------------------------------------
# criterion 7: no field beyond one element embeds into a binary field
# ---------------------------------------------------------------------------

def test_criterion_07_embedding_criterion():
    for name, f in roster():
        report = embedding_criterion(f)
        if f.n == 1:
            assert report["embeds"] is True, name
            assert report["witness"] is None
        else:
            assert report["embeds"] is False, name
            assert report["witness"] is not None, name
            assert report["zero_divisor"] is not None, name
            # replay the witness: x + y - xy = 1 with x, y both != 1
            env = build_envelope(f)
            x = f.index(report["witness"][0])
            y = f.index(report["witness"][1])
            assert x != f.one and y != f.one
            s = env.add_at(env.add_at(x, y), env.neg_at(env.mul_at(x, y)))
            assert s == env.one, name


# ---------------------------------------------------------------------------
# criterion 8: product of fields vs multi-variable quotient field
# ---------------------------------------------------------------------------

def test_criterion_08_product_vs_two_variable_field():
    f2 = build_f0(2, check="light")
    prod = product_field(f2, f2)
    fp = prod.field
    f22 = build_f0(2, 2, check="light")

    assert fp.n == 4
    assert f22.n == 8
    assert prod.presentation is not None and prod.presentation["verified"]

    # the presentation relations, replayed inside the product:
    # each generator squares to 1, and x1 x2 = x1 + x2 - 1
    x1 = fp.index("(x,1)")
    x2 = fp.index("(1,x)")
    minus_one = fp.quer(fp.one)
    assert fp.mu(x1, x1) == fp.one
    assert fp.mu(x2, x2) == fp.one
    assert fp.mu(x1, x2) == fp.nu(x1, x2, minus_one)
    # while in the two-variable field the same product is a fifth element
    y1 = f22.index("x1")
    y2 = f22.index("x2")
    assert f22.mu(y1, y2) != f22.nu(y1, y2, f22.quer(f22.one))


# ---------------------------------------------------------------------------
# criterion 9: dyadic reduction is a morphism; truncation commutes with the
# operations; the valuation laws hold -- ten thousand cases each
# ---------------------------------------------------------------------------

def test_criterion_09_reduction_is_a_morphism():
    rng = random.Random(987654321)
    for _ in range(10000):
        x = odd_rational(2 * rng.randrange(-500, 500) + 1,
                         2 * rng.randrange(0, 500) + 1)
        y = odd_rational(2 * rng.randrange(-500, 500) + 1,
                         2 * rng.randrange(0, 500) + 1)
        z = odd_rational(2 * rng.randrange(-500, 500) + 1,
                         2 * rng.randrange(0, 500) + 1)
        n = rng.randrange(1, 17)
        mod = 1 << n
        assert reduce_mod(x + y + z, n) == (
            reduce_mod(x, n) + reduce_mod(y, n) + reduce_mod(z, n)) % mod
        assert reduce_mod(x * y, n) == (
            reduce_mod(x, n) * reduce_mod(y, n)) % mod


def test_criterion_09_truncation_commutes():
    rng = random.Random(24601)
    for _ in range(10000):
        big = rng.randrange(2, 17)
        small = rng.randrange(1, big + 1)
        a = TruncatedDyadic(2 * rng.randrange(0, 1 << (big - 1)) + 1, big)
        b = TruncatedDyadic(2 * rng.randrange(0, 1 << (big - 1)) + 1, big)
        c = TruncatedDyadic(2 * rng.randrange(0, 1 << (big - 1)) + 1, big)
        assert (a * b).reduce_precision(small) == (
            a.reduce_precision(small) * b.reduce_precision(small))
        assert a.add3(b, c).reduce_precision(small) == (
            a.reduce_precision(small).add3(b.reduce_precision(small),
                                           c.reduce_precision(small)))
        assert a.inv().reduce_precision(small) == (
            a.reduce_precision(small).inv())


def test_criterion_09_valuation_laws():
    rng = random.Random(1729)
    for _ in range(10000):
        x = Fraction(rng.randrange(-2000, 2001) or 1,
                     2 * rng.randrange(0, 1000) + 1)
        y = Fraction(rng.randrange(-2000, 2001) or 1,
                     2 * rng.randrange(0, 1000) + 1)
        assert val2(x * y) == val2(x) + val2(y)
        assert val2(x + y) >= min(val2(x), val2(y))
        if val2(x) != val2(y):
            assert val2(x + y) == min(val2(x), val2(y))


# ---------------------------------------------------------------------------
# criterion 10: the free-resolution cardinality identity
# ---------------------------------------------------------------------------

def test_criterion_10_free_resolution_identity():
    f = odd_residue_field(4, check="light")
    space = vector_power_space(f, 2)
    report = free_resolution(space, [space.from_labels(("1", "1")),
                                     space.from_labels(("3", "1"))])
    assert report["space_size"] == 4
    assert report["free_size"] == 8
    assert report["kernel_size"] == 2
    assert sorted(report["kernel"]) == [("q(1)", "q(1)"), ("q(3)", "q(3)")]
    assert report["formula_size"] == report["free_size"] // report["kernel_size"] == 4
    assert report["formula_holds"] is True


# ---------------------------------------------------------------------------
# criterion 11: matrix, quaternion and group-algebra constructions, under 30s
# ---------------------------------------------------------------------------

def test_criterion_11_derived_structures():
    start = time.perf_counter()
    f1 = odd_residue_field(2, check="light")
    f4 = odd_residue_field(4, check="light")

    # Toeplitz 3x3 over the one-element field: the four-element quotient
    # field, by the constructed isomorphism and by independent search
    tp = toeplitz_field(3, f1)
    assert tp.field.n == 4
    assert tp.isomorphism is not None and tp.isomorphism.is_bijective()
    assert field_isomorphism(tp.field, build_f0(3, check="light")) is not None

    # triangular 2x2 over the two-element field: noncommutative, with a
    # verified witness pair
    tr = triangular_field(2, f4)
    assert tr.field.n == 16
    a_lab, b_lab = tr.noncommutative_witness
    a, b = tr.field.index(a_lab), tr.field.index(b_lab)
    assert tr.field.mu(a, b) != tr.field.mu(b, a)

    # quaternions over the two-element field: 128 elements, all invertible,
    # i1 i2 = i3 = -(i2 i1)
    q = quaternion_field(f4)
    assert q.field.n == 128
    assert quaternion_inverse_check(q) == 128
    i1, i2, i3 = q.unit_index(1), q.unit_index(2), q.unit_index(3)
    env = q.env
    minus_i3 = tuple_index(q.tables)[(env.zero, env.zero, env.zero, env.neg_at(env.one))]
    assert q.field.mu(i1, i2) == i3
    assert q.field.mu(i2, i1) == minus_i3
    assert i3 != minus_i3

    # group algebras over the one-element field: odd order fails with the
    # all-ones witness; order four is a 3-field matched with the 8-element
    # quotient field (same cardinality; a 4-element target is impossible)
    ga3 = group_algebra(cyclic_group(3), f1)
    assert not ga3.is_3field
    assert ga3.witness == "(1,1,1)"

    ga4 = group_algebra(cyclic_group(4), f1)
    assert ga4.is_3field
    assert ga4.size == 8
    assert ga4.isomorphism is not None and ga4.isomorphism.is_bijective()
    assert ga4.isomorphism.target.n == 8
    assert field_isomorphism(ga4.field,
                             build_f0(4, check="light")) is not None

    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 12: the packaged verification suite runs clean from the CLI and
# emits a machine-readable ledger
# ---------------------------------------------------------------------------

def test_criterion_12_cli_suite_ledger():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from ternfield.cli import main; raise SystemExit(main())",
         "paper-suite", "--format", "json"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(proc.stdout)
    assert ledger["schema"] == 1
    assert ledger["all_passed"] is True
    assert [e["criterion"] for e in ledger["criteria"]] == list(range(1, 12))
    assert all(e["passed"] for e in ledger["criteria"])
    budgets = {e["criterion"]: e["budget_seconds"]
               for e in ledger["criteria"] if "budget_seconds" in e}
    assert budgets == {1: 10.0, 5: 5.0, 11: 30.0}
    assert all(e["within_budget"] for e in ledger["criteria"]
               if "within_budget" in e)
