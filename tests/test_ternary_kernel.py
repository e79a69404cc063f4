"""Axioms, carriers, the O(n^3) certificates, the O(n^5) scans and
FiniteThreeField's validation."""

import contextlib
import functools
import inspect
import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternfield import (
    CarrierSizeError,
    FiniteThreeField,
    Morphism,
    ProperThreeThreeField,
    StructureError,
    TernaryCarrier,
    build_envelope,
    check_distributivity,
    check_ternary_group,
    detect_derived_structure,
    kernel_backend,
    odd_residue_field,
    quer_add,
    residue_ring,
    triangular_field,
    twisted_coset,
    units_as_3field,
)
from ternfield import pair_envelope, poly_fields, ternary_kernel as tk
from ternfield.poly_fields import (
    QuotientFieldSpec,
    build_f0,
    build_quotient_field,
    generated_subalgebra,
    product_field,
)
from ternfield.structures import (
    cyclic_group,
    group_algebra,
    quaternion_field,
    toeplitz_field,
)

from oracles import (
    FIELDS,
    derived_ternary_mu,
    gathered_subset_carrier,
    pair_assoc_scan,
    pair_distrib_scan,
    pair_scan_blocks,
    perturbations,
    power,
    relabel,
    swapped_cell_mutants,
    verdict_dict,
    whole_cube_assoc_witness,
    with_tables,
)


def decided(field):
    """The field validated again with every axiom decided: built "light",
    then both checkers run with the gate at the field's own size, a failure
    raising the message check="auto" raises within the gate."""
    f = FiniteThreeField(field.carrier, field.one, field.origin, check="light")
    for check, fails in ((check_ternary_group, "additive axioms fail"),
                         (check_distributivity, "distributivity fails")):
        v = check(f.carrier, limit=f.n)
        if not v:
            raise StructureError(f"{fails}: {v.detail}")
    return f


@pytest.fixture(scope="module")
def odd8():
    return decided(odd_residue_field(8, check=False))


def binary_derived_carrier(m):
    """Z/mZ with nu = x+y+z and mu = x*y: has a zero, so not a proper field."""
    vals = np.arange(m)
    nu = (vals[:, None, None] + vals[None, :, None] + vals[None, None, :]) % m
    mu = (vals[:, None] * vals[None, :]) % m
    return TernaryCarrier([str(v) for v in vals],
                          nu.astype(np.int32), mu.astype(np.int32))


# -- axioms -----------------------------------------------------------------

@pytest.mark.parametrize("modulus", [2, 4, 8, 16, 32])
def test_odd_residues_satisfy_all_axioms(modulus):
    f = decided(odd_residue_field(modulus, check=False))
    assert f.n == modulus // 2
    assert f.label(f.one) == "1"
    assert check_ternary_group(f.carrier, limit=f.n)
    assert check_distributivity(f.carrier, limit=f.n)
    found = detect_derived_structure(f.carrier)
    assert found["unit"] == f.one
    assert found["zero"] is None


def test_no_zero_anywhere(odd8):
    # a zero would be additively neutral: nu(z, z, x) = x for all x
    n = odd8.n
    for z in range(n):
        assert any(odd8.nu(z, z, x) != x for x in range(n))


def test_zero_carrying_carrier_is_rejected():
    c = binary_derived_carrier(3)
    found = detect_derived_structure(c)
    assert found["unit"] == 1 and found["zero"] == 0
    # the zero cannot be multiplicatively invertible, so the carrier is out
    with pytest.raises(StructureError):
        FiniteThreeField(c, 1)


def test_unit_must_be_two_sided():
    f = odd_residue_field(8, check=False)
    with pytest.raises(StructureError, match="unit"):
        FiniteThreeField(f.carrier, f.index("3"))


# -- querelement ------------------------------------------------------------

def test_quer_defining_identity_and_involution(odd8):
    for x in odd8.elements():
        q = odd8.quer(x)
        assert odd8.nu(x, x, q) == x
        assert odd8.quer(q) == x


def test_quer_matches_negation_in_the_odd_model(odd8):
    # in (Z/8Z)^odd the querelement of v is -v
    for x in odd8.elements():
        v = int(odd8.label(x))
        assert int(odd8.label(odd8.quer(x))) == (-v) % 8


def test_quer_add_on_raw_carrier(odd8):
    for x in odd8.elements():
        assert quer_add(odd8.carrier, x) == odd8.quer(x)


def test_quer_asks_only_for_its_own_querelement():
    # an unchecked field where 3 has no unique querelement still answers for 1
    f = odd_residue_field(8, check=False)
    nu = f.carrier.nu.copy()
    three = f.index("3")
    nu[three, three] = three              # nu(3,3,t) = 3 for every t
    g = FiniteThreeField(TernaryCarrier(f.labels, nu, f.carrier.mu), f.one, check=False)
    assert g.quer(g.one) == g.index("7")  # -1 mod 8
    with pytest.raises(StructureError, match=r"^nu\(3,3,t\)=3 has 4 solutions"):
        g.quer(three)


def test_solvability_via_querelements(odd8):
    # the unique solution of nu(a,b,x) = c is x = nu(quer a, quer b, c)
    for a in odd8.elements():
        qa = odd8.quer(a)
        for b in odd8.elements():
            qb = odd8.quer(b)
            for c in odd8.elements():
                x = odd8.nu(qa, qb, c)
                assert odd8.nu(a, b, x) == c


# -- verdicts and witnesses ---------------------------------------------------

def test_broken_associativity_yields_least_witness():
    f = odd_residue_field(8, check=False)
    nu = f.carrier.nu.copy()
    # transpose one fiber: nu(0,0,*) gets a non-associative wrinkle
    nu[0, 0, 0], nu[0, 0, 1] = nu[0, 0, 1], nu[0, 0, 0]
    broken = TernaryCarrier(f.carrier.labels, nu, f.carrier.mu)
    v = check_ternary_group(broken, limit=broken.n)
    assert not v
    assert v.axiom in ("associativity", "commutativity", "solvability")
    assert v.witness is not None
    assert v.detail


def test_distributivity_witness_on_wrong_mu():
    f = odd_residue_field(8, check=False)
    mu = f.carrier.mu.copy()
    mu[2, 3], mu[2, 1] = mu[2, 1], mu[2, 3]
    broken = TernaryCarrier(f.carrier.labels, f.carrier.nu, mu)
    v = check_distributivity(broken, limit=broken.n)
    assert not v and v.witness is not None


# -- size gating --------------------------------------------------------------

def test_carrier_gate_raises_beyond_limit():
    f = odd_residue_field(128, check="light")
    with pytest.raises(CarrierSizeError):
        check_ternary_group(f.carrier)  # 64 > default gate 32
    assert check_ternary_group(f.carrier, limit=64)


def test_env_var_overrides_gate(monkeypatch):
    f = odd_residue_field(128, check="light")
    monkeypatch.setenv("TERNARY_MAX_CARRIER", "16")
    with pytest.raises(CarrierSizeError):
        check_ternary_group(odd_residue_field(64, check=False).carrier)
    monkeypatch.setenv("TERNARY_MAX_CARRIER", "64")
    assert check_ternary_group(f.carrier)


def test_full_check_ignores_gate():
    # check="auto" skips the axioms past the default gate, and the checkers'
    # explicit limit decides them
    f = odd_residue_field(128, check=False)
    with mock.patch.object(tk, "_distrib_certificate",
                           wraps=tk._distrib_certificate) as decide:
        FiniteThreeField(f.carrier, f.one, check="auto")
        assert decide.call_count == 0
        assert decided(f).n == 64
    assert decide.call_count == 1


@pytest.mark.parametrize("modulus", [2 ** k for k in range(1, 11)])
def test_odd_residue_tables_match_the_residue_arithmetic(modulus):
    # the residues themselves as the oracle: sums and products mod 2^k, one
    # first argument at a time, mapped back to indices by (r-1)/2
    f = odd_residue_field(modulus, check=False)
    vals = np.arange(1, modulus, 2, dtype=np.int64)
    assert list(f.labels) == [str(v) for v in vals] and f.one == 0
    assert (f.carrier.mu == (np.multiply.outer(vals, vals) % modulus - 1) // 2).all()
    for a, va in enumerate(vals):
        s3 = (va + vals[:, None] + vals) % modulus
        assert (f.carrier.nu[a] == (s3 - 1) // 2).all()


def test_odd_residue_tables_hold_no_wider_temporaries():
    tracemalloc.start()
    try:
        f = odd_residue_field(256, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.carrier.nu.nbytes == 2 ** 23
    assert peak < 10 * 2 ** 20, peak


# -- twisted cosets -----------------------------------------------------------

def test_twisted_coset_is_proper():
    from ternfield import build_f0
    f = build_f0(3)  # {1, x, x^2, x^2+x+1}, multiplicatively cyclic
    sub = [f.index("1"), f.index("x^2")]
    assert f.is_subfield(sub)
    t = f.index("x")  # x*x = x^2 lies in the subfield, x does not
    coset = twisted_coset(f, sub, t)
    assert isinstance(coset, ProperThreeThreeField)
    assert sorted(coset.labels) == ["x", "x^2+x+1"]
    found = detect_derived_structure(coset)
    assert found["unit"] is None  # properness: no unit at all


def test_twisted_coset_preconditions():
    from ternfield import build_f0
    f = build_f0(3)
    sub = [f.index("1"), f.index("x^2")]
    with pytest.raises(StructureError, match="outside"):
        twisted_coset(f, sub, f.index("x^2"))
    with pytest.raises(StructureError, match="not a unital 3-subfield"):
        twisted_coset(f, [f.one, f.index("x")], f.index("x^2+x+1"))


# -- serialization ------------------------------------------------------------

def test_carrier_json_round_trip(odd8):
    doc = odd8.to_json()
    assert doc["one"] == odd8.one
    assert doc["elements"] == list(odd8.labels)
    back = TernaryCarrier.from_json(doc)
    assert (back.nu == odd8.carrier.nu).all()
    assert (back.mu == odd8.carrier.mu).all()
    rebuilt = decided(FiniteThreeField(back, doc["one"], check=False))
    assert rebuilt.n == odd8.n


# Tables NumPy reads as something other than integers: rows of different
# lengths, strings, and floats that an int cast would truncate into range.
BAD_ENTRIES = {
    "ragged": (lambda rows: rows[:-1] + [rows[-1][:-1]],
               "table is ragged: its rows differ in length"),
    "strings": (lambda rows: [[str(v) + "a" for v in row] for row in rows],
                "table entries must be integers"),
    "floats": (lambda rows: [[v + 0.5 for v in row] for row in rows],
               "table entries must be integers"),
}


@pytest.mark.parametrize("check", [False, "light", "auto"])
@pytest.mark.parametrize("table", ["nu", "mu"])
@pytest.mark.parametrize("kind", list(BAD_ENTRIES))
def test_tables_of_other_than_integers_are_refused(odd8, kind, table, check):
    spoil, message = BAD_ENTRIES[kind]
    c = odd8.carrier
    tables = {"nu": c.nu.reshape(c.n, -1).tolist(), "mu": c.mu.tolist()}
    tables[table] = spoil(tables[table])
    with pytest.raises(StructureError, match=f"^{table} {message}$"):
        FiniteThreeField(TernaryCarrier(c.labels, tables["nu"], tables["mu"]), odd8.one,
                         check=check)
    doc = odd8.to_json()                 # a flat list: spoil its entries as one row
    doc[table] = spoil([doc[table]])[0] if kind != "ragged" else doc[table][:-1] + [[0, 1]]
    with pytest.raises(StructureError, match=f"^{table} {message}$"):
        FiniteThreeField(TernaryCarrier.from_json(doc), odd8.one, check=check)


def test_integral_floats_are_read_and_entries_are_not_wrapped_into_range(odd8):
    c = odd8.carrier
    back = TernaryCarrier(c.labels, c.nu.astype(float), c.mu.astype(float))
    assert (back.nu == c.nu).all() and back.mu.dtype == np.int32
    wrapped = c.mu.astype(np.int64)
    wrapped[1, 1] += 2 ** 32             # an int32 cast would give the old entry
    with pytest.raises(StructureError, match=r"^mu table entries must lie in \[-1, 4\)$"):
        TernaryCarrier(c.labels, c.nu, wrapped)


# -- generators and Light's associativity test ------------------------------------

def left_normed_products(t, gens):
    """Every left-normed product (..((a1 a2) a3)..) of the generators."""
    found, todo = set(), list(gens)
    while todo:
        x = todo.pop()
        if x not in found:
            found.add(x)
            todo.extend(int(t[x, g]) for g in gens)
    return found


def assert_generators_decide_associativity(t):
    order = [*range(1, len(t)), 0]          # the search order: index 0 last
    gens = tk._generators(t)
    assert gens == sorted(gens, key=order.index)
    assert left_normed_products(t, gens) == set(range(len(t)))
    # greedy: each generator is the first element, in the search order, that
    # is not a product of the earlier ones
    assert all(g == next(x for x in order if x not in left_normed_products(t, gens[:i]))
               for i, g in enumerate(gens))
    assert tk._light_associative(t, gens) == (tk._assoc_violation(t) is None)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))
def test_generators_and_light_test_on_arbitrary_magmas(cells):
    n = math.isqrt(len(cells))
    assert_generators_decide_associativity(np.array(cells, dtype=np.int32).reshape(n, n))


def test_generators_and_light_test_on_roster_tables_with_one_cell_moved():
    rng = np.random.default_rng(17)
    verdicts = set()
    for name in ROSTER:
        c = roster_field(name).carrier
        for t in (c.mu, c.retract[0]):
            assert_generators_decide_associativity(t)
            assert len(tk._generators(t)) <= 1 + math.log2(c.n)    # a group
            verdicts.add(True)
            for _ in range(4):
                moved = t.copy()
                i, j = rng.integers(0, c.n, size=2)
                moved[i, j] = (moved[i, j] + 1 + rng.integers(0, c.n - 1)) % c.n
                assert_generators_decide_associativity(moved)
                verdicts.add(tk._assoc_violation(moved) is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", list(FIELDS))
def test_a_group_with_identity_0_needs_at_most_log2_n_generators(name):
    # the search spends no generator on the identity 0: the first is 1 and
    # each next one at least doubles the subgroup.  o's identity is 0 on
    # every certified retract, mu's wherever the field's unit is 0
    f = FIELDS[name](check="light")
    c = f.carrier
    for t in (c.retract[0], c.mu) if f.one == 0 else (c.retract[0],):
        gens = tk._generators(t)
        assert (0 in gens) == (c.n == 1)
        assert len(gens) <= max(1, math.log2(c.n))


# -- the scans against a pure-Python reference ----------------------------------
#
# The references walk the quintuples in row-major order with the laws in the
# order 1, 2, 3, one entry at a time, so the first failure they meet is the
# least witness the vectorised scans must report.

def reference_assoc(t):
    t = t.tolist()
    for a, b, c, d, e in itertools.product(range(len(t)), repeat=5):
        v1 = t[t[a][b][c]][d][e]
        if v1 != t[a][t[b][c][d]][e] or v1 != t[a][b][t[c][d][e]]:
            return (a, b, c, d, e)
    return None


def reference_distrib(s, m):
    s, m = s.tolist(), m.tolist()
    for a, b, c, d, e in itertools.product(range(len(s)), repeat=5):
        if m[s[a][b][c]][d][e] != s[m[a][d][e]][m[b][d][e]][m[c][d][e]]:
            return (1, a, b, c, d, e)
        if m[a][s[b][c][d]][e] != s[m[a][b][e]][m[a][c][e]][m[a][d][e]]:
            return (2, a, b, c, d, e)
        if m[a][b][s[c][d][e]] != s[m[a][b][c]][m[a][b][d]][m[a][b][e]]:
            return (3, a, b, c, d, e)
    return None


def test_compiled_backend_is_active():
    assert kernel_backend() == "numpy"


def test_assoc_scan_passes_valid_tables():
    for modulus in (4, 8, 16):
        nu = odd_residue_field(modulus, check=False).carrier.nu
        assert tk._assoc_scan(nu) is None
        assert reference_assoc(nu) is None


def test_assoc_scan_matches_reference_on_random_tables():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            op = rng.integers(0, n, size=(n, n, n), dtype=np.int32)
            assert tk._assoc_scan(op) == reference_assoc(op)


def test_distrib_scan_matches_reference_on_random_tables():
    # several laws usually fail at the least witness, which pins the law order
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(12):
            s, m = rng.integers(0, n, size=(2, n, n, n), dtype=np.int32)
            assert tk._distrib_scan(s, m) == reference_distrib(s, m)


@pytest.mark.parametrize("build", [functools.partial(odd_residue_field, 8, check=False),
                                   functools.partial(build_f0, 3, check="light")],
                         ids=["odd(8)", "F0(3)"])
def test_distrib_scan_matches_reference(build):
    f = build()
    nu, tmu = f.carrier.nu, derived_ternary_mu(f.carrier)
    assert tk._distrib_scan(nu, tmu) is None
    assert reference_distrib(nu, tmu) is None
    rng = np.random.default_rng(11)
    for _ in range(8):
        bad = tmu.copy()
        a, b, c = rng.integers(0, f.n, size=3)
        bad[a, b, c] = (bad[a, b, c] + 1) % f.n
        w = tk._distrib_scan(nu, bad)
        assert w is not None and w == reference_distrib(nu, bad)


# -- the scans' blocks -----------------------------------------------------------
#
# The scans compare the quintuples in blocks of consecutive (a, b, c) triples:
# one triple, then twice as many per block up to a cap.  A block smaller than
# a pair is a range of c inside one pair; from n triples on a block is a run
# of whole pairs inside one a.  Planted faults put the only violation at a
# chosen (a, b, c), so that the least witness lands on either side of a block
# boundary.  Unpatched, the first pair is c = 0 | 1-2 | 3-4 at n = 5,
# 0 | 1-2 | 3-6 | 7 at n = 8 and 0 | 1-2 | 3-6 | 7-14 | 15 at n = 16; the
# later blocks of a = 0 are b = 1-2 | 3-4 at n = 5, 1-2 | 3-6 | 7 at n = 8 and
# 1-2 | 3-6 | 7-14 | 15 at n = 16, and each later a is one block.  With the
# block budget patched to 1 entry every block is one triple; patched to n^3
# entries the first pair is cut as unpatched and every later block is one
# pair.

def block_targets(n, pairs):
    """(a, b, c) targets: c = 0, 1, 2, 3, 4, 7, 8 and n - 1 in pair (0, 0),
    and the first triple of each of `pairs`."""
    first = sorted({c for c in (0, 1, 2, 3, 4, 7, 8, n - 1) if c < n})
    return [(0, 0, c) for c in first] + [(a, b, 0) for a, b in pairs]


BLOCK_TARGETS = {
    5: block_targets(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (4, 4)]),
    8: block_targets(8, [(0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (1, 0), (7, 0), (7, 7)]),
    16: block_targets(16, [(0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (0, 14), (0, 15),
                           (1, 0), (1, 15)]),
}


def spare(n, *used, count=2):
    """`count` distinct elements outside `used`."""
    return [v for v in range(n) if v not in used][:count]


def assoc_fault(n, a, b, c):
    """A constant table k with t(a,b,c) = p and t(p,x,x) = z: the only
    quintuple whose regroupings disagree is (a, b, c, x, x), where
    t(t(a,b,c),x,x) reads both cells; a, b, c and x are no values of t, so
    no other regrouping reads either."""
    k, p, z = spare(n, a, b, c, count=3)
    x = spare(n, k, p, z, count=1)[0]
    t = np.full((n, n, n), k, dtype=np.int32)
    t[a, b, c], t[p, x, x] = p, z
    return t, (a, b, c, x, x)


def law1_fault(n, a, b, c):
    """Constant s and m, except s(a,b,c) = a and m(a,q,q) = w: only law 1 at
    (a, b, c, q, q) reads both, so it is the least and only witness."""
    k, w = spare(n, a, b, c)
    q = spare(n, k, a, count=1)[0]
    s = np.full((n, n, n), k, dtype=np.int32)
    m = s.copy()
    s[a, b, c], m[a, q, q] = a, w
    return s, m, (1, a, b, c, q, q)


def law3_fault(n, a, b, c):
    """Constant s and m, except s(c,0,0) = p and m(a,b,p) = w: only law 3 at
    (a, b, c, 0, 0) reads both, so it is the least and only witness."""
    k, p, w = spare(n, a, b, c, count=3)
    s = np.full((n, n, n), k, dtype=np.int32)
    m = s.copy()
    s[c, 0, 0], m[a, b, p] = p, w
    return s, m, (3, a, b, c, 0, 0)


@pytest.fixture(params=["cap", "one triple", "one pair"])
def block_budget(request, monkeypatch):
    if request.param == "one triple":
        monkeypatch.setattr(tk, "_BLOCK_ENTRIES", 1)
    elif request.param == "one pair":
        monkeypatch.setattr(tk, "_BLOCK_ENTRIES", request.node.callspec.params["n"] ** 3)
    return request.param


@pytest.mark.parametrize("n", sorted(BLOCK_TARGETS))
def test_scan_blocks_cover_the_pairs_in_row_major_order(n, block_budget):
    # the blocks tile the (a, b, c) triples once, in row-major order: a block
    # smaller than a pair lies inside one pair, a larger one is whole pairs
    blocks = list(tk._scan_blocks(n))
    triples = [(a, b, c) for a, b0, b1, c0, c1 in blocks
               for b in range(b0, b1) for c in range(c0, c1)]
    assert triples == list(itertools.product(range(n), repeat=3))
    assert all(b1 - b0 == 1 or (c0, c1) == (0, n) for a, b0, b1, c0, c1 in blocks)
    sizes = [(b1 - b0) * (c1 - c0) for a, b0, b1, c0, c1 in blocks]
    cap = {"cap": n * n, "one triple": 1, "one pair": n}[block_budget]
    assert max(sizes) == cap
    # the first pair in 1, 2, 4, ... triples, the last block cut at its end
    first = [c1 - c0 for a, b0, b1, c0, c1 in blocks if (a, b0) == (0, 0)]
    doubling = [min(2 ** i, cap) for i in range(len(first))]
    assert first[:-1] == doubling[:-1] and 0 < first[-1] <= doubling[-1]
    if block_budget == "cap":
        later = [(a, b0, b1) for a, b0, b1, c0, c1 in blocks if (a, b0) != (0, 0)]
        assert later == [blk for blk in pair_scan_blocks(n) if blk[:2] != (0, 0)]


def test_scan_blocks_after_the_first_pair_are_the_pair_blocks_up_to_n_64():
    # at the default budget a passing scan and a late witness cost what they
    # did with whole-pair blocks; above n = 64 no block exceeds n^2 or
    # _BLOCK_ENTRIES entries (the first blocks of n = 128, 256 and 512)
    for n in range(1, 65):
        blocks = list(tk._scan_blocks(n))
        later = [blk for blk in blocks if blk[:2] != (0, 0)]
        assert all((c0, c1) == (0, n) for a, b0, b1, c0, c1 in later), n
        assert ([(a, b0, b1) for a, b0, b1, c0, c1 in later]
                == [blk for blk in pair_scan_blocks(n) if blk[:2] != (0, 0)]), n
    for n in (128, 256, 512):
        blocks = list(itertools.islice(tk._scan_blocks(n), 4 * n))
        sizes = [(b1 - b0) * (c1 - c0) for a, b0, b1, c0, c1 in blocks]
        cap = max(1, tk._BLOCK_ENTRIES // n ** 2)
        assert sizes[:3] == [1, min(2, cap), min(4, cap)] and max(sizes) == cap
        assert cap * n * n <= max(n * n, tk._BLOCK_ENTRIES)
        assert all(b1 - b0 == 1 for a, b0, b1, c0, c1 in blocks)


@pytest.mark.parametrize("n", sorted(BLOCK_TARGETS))
def test_least_witness_on_either_side_of_a_block_boundary(n, block_budget):
    for a, b, c in BLOCK_TARGETS[n]:
        t, want = assoc_fault(n, a, b, c)
        assert tk._assoc_scan(t) == reference_assoc(t) == want
        for fault in (law1_fault, law3_fault):
            s, m, want = fault(n, a, b, c)
            assert tk._distrib_scan(s, m) == reference_distrib(s, m) == want


@pytest.mark.parametrize("n", [5, 8])
def test_law_tie_break_when_laws_fail_at_one_quintuple(n, block_budget):
    # constant s = m = 0 with one cell of m faulted: law 1 reads m(0,d,e),
    # law 2 reads m(a,0,e) and law 3 reads m(a,b,0)
    cases = {
        (0, 0, 0): (1, 0, 0, 0, 0, 0),          # all three laws at one quintuple
        (0, 0, 2): (1, 0, 0, 0, 0, 2),          # laws 1 and 2
        (n - 1, 0, 0): (2, n - 1, 0, 0, 0, 0),  # laws 2 and 3, in the last a
    }
    for cell, want in cases.items():
        s = np.zeros((n, n, n), dtype=np.int32)
        m = s.copy()
        m[cell] = 1
        assert tk._distrib_scan(s, m) == reference_distrib(s, m) == want
    # a fault of s at (0,0,0) breaks every law everywhere
    s = np.zeros((n, n, n), dtype=np.int32)
    s[0, 0, 0] = 1
    m = np.zeros_like(s)
    assert tk._distrib_scan(s, m) == reference_distrib(s, m) == (1, 0, 0, 0, 0, 0)


def test_early_witness_scans_stay_below_one_slab():
    # pi o nu on odd(128), n = 64: the witness is (0,0,0,0,1), in the first
    # block, and an n^4 int32 slab would be 64 MiB
    f = odd_residue_field(128, check=False)
    n = f.n
    nu = np.random.default_rng(0).permutation(n).astype(np.int32)[f.carrier.nu]
    tmu = derived_ternary_mu(f.carrier)
    slab = n ** 4 * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        w_assoc = tk._assoc_scan(nu)
        _, peak_assoc = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        w_distrib = tk._distrib_scan(nu, tmu)
        _, peak_distrib = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w_assoc == (0, 0, 0, 0, 1)
    assert w_distrib is not None and w_distrib[1:3] == (0, 0)
    assert peak_assoc < slab and peak_distrib < slab


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_early_witness_at_n_128_costs_a_slab_not_a_cube():
    # pi o nu on odd(256), n = 128, passes every cheap invariant and fails
    # both scans in the first pair.  Blocks of whole pairs hold (n, n, n)
    # arrays, 104 MiB traced through both checkers; the first block here is
    # one (n, n) slab.  check_distributivity still builds the derived
    # product mu[mu], an 8 MiB n^3 cube, so the bound is above that
    bound = 32 * 2 ** 20
    c = odd_residue_field(256, check=False).carrier
    nu = np.random.default_rng(0).permutation(c.n).astype(np.int32)[c.nu]
    perm = TernaryCarrier(c.labels, nu, c.mu)
    verdicts, peak = traced_peak(lambda: (check_ternary_group(perm, limit=128),
                                          check_distributivity(perm, limit=128)))
    assert [(v.axiom, v.witness, v.method) for v in verdicts] == [
        ("associativity", (0, 0, 0, 0, 1), "scan"),
        ("distributivity-law-1", (0, 0, 0, 0, 1), "scan")]
    assert peak < bound, peak
    # a witness in the second pair, reached through the first pair's blocks
    n = perm.n
    t, want = assoc_fault(n, 0, 1, 0)
    w, peak = traced_peak(tk._assoc_scan, t)
    assert w == want and peak < bound, peak
    for fault in (law1_fault, law3_fault):
        s, m, want = fault(n, 0, 1, 0)
        w, peak = traced_peak(tk._distrib_scan, s, m)
        assert w == want and peak < bound, (fault.__name__, peak)


def test_law_checks_hold_no_whole_cube():
    # n = 128, where one int32 n^3 cube is 8 MiB; the tables themselves are
    # built before tracing starts
    f8, f7 = build_f0(8), build_f0(7)
    limit = 8 * 2 ** 20
    for check in (check_ternary_group, check_distributivity):
        v, peak = traced_peak(check, f8.carrier, limit=f8.n)
        assert v and v.method == "certificate"
        assert peak < limit, (check.__name__, peak)
    env, peak = traced_peak(build_envelope, f7)
    assert env.n == 128
    assert peak < limit, peak


# -- the scans against the pair-block scans -----------------------------------------
#
# `pair_assoc_scan` and `pair_distrib_scan` (oracles.py) are the scans in
# blocks of whole (a, b) pairs.  With them in place of the kernel's scans,
# both checkers must return the same Verdicts: axiom, witness, detail and
# method.

def checker_verdicts(build, limit):
    """Both checkers' Verdicts as (ok, axiom, witness, detail, method) on a
    fresh carrier from `build()`, with the kernel's scans and with the
    pair-block scans; asserted equal."""
    def run():
        c = build()
        return [full_verdict(check(c, limit=limit))
                for check in (check_ternary_group, check_distributivity)]
    got = run()
    with mock.patch.object(tk, "_assoc_scan", pair_assoc_scan), \
            mock.patch.object(tk, "_distrib_scan", pair_distrib_scan):
        assert run() == got
    return got


def refute_tables(n):
    """The tables of the benchmark's refute workload at n: pi o nu with a
    seeded permutation pi, and one field's nu with another's mu."""
    fields = {**FIELDS, "F0(7)": functools.partial(build_f0, 7)}
    permuted, swaps = {
        16: (("odd(32)", "F0(5)", "F0(3)xF0(3)"), (("odd(32)", "F0(5)"), ("F0(5)", "odd(32)"))),
        32: (("odd(64)", "F0(6)", "F0(3,2)"), (("odd(64)", "F0(6)"), ("F0(3,2)", "odd(64)"))),
        64: (("odd(128)", "F0(7)"), (("odd(128)", "F0(7)"), ("F0(7)", "odd(128)"))),
    }[n]
    rng = np.random.default_rng(n)
    for name in permuted:
        c = fields[name](check=False).carrier
        assert c.n == n
        yield TernaryCarrier(c.labels, rng.permutation(n).astype(np.int32)[c.nu], c.mu)
    for a, b in swaps:
        ca, cb = fields[a](check=False).carrier, fields[b](check=False).carrier
        yield TernaryCarrier(cb.labels, ca.nu, cb.mu)


@pytest.mark.parametrize("budget", [None, 1, 64, 4096])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_checkers_on_refute_tables_match_the_pair_scans(n, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(tk, "_BLOCK_ENTRIES", budget)
    for carrier in refute_tables(n):
        verdicts = checker_verdicts(lambda: with_tables(carrier), n)
        assert not all(ok for ok, *_ in verdicts)
        for ok, axiom, witness, detail, method in verdicts:
            assert ok or (method == "scan" and witness[:2] == (0, 0))


def first_pair_boundaries(n):
    """c on both sides of each boundary between the first pair's blocks at
    the default budget: 0 | 1-2 | 3-6 | 7-14 | ..."""
    starts = [c0 for a, b0, b1, c0, c1 in itertools.islice(tk._scan_blocks(n), n)
              if (a, b0) == (0, 0)]
    return sorted({c for c0 in starts for c in (c0 - 1, c0) if 0 <= c < n})


def raised_cells(table, n):
    """`table` with one cell raised by 1 mod n: cells (p,p,p), then
    (p,n-1,n-1), for each p."""
    for cell in [*((p, p, p) for p in range(n)), *((p, n - 1, n - 1) for p in range(n))]:
        t = table.copy()
        t[cell] = (t[cell] + 1) % n
        yield t


@pytest.mark.parametrize("name", ["odd(32)", "F0(5)", "odd(64)", "F0(6)", "odd(128)"])
def test_one_cell_mutants_match_the_pair_scans_on_every_first_pair_boundary(name):
    # a one-cell mutant of a field's nu or of its ternary product is picked
    # for each c beside a block boundary of the first pair, where its least
    # witness falls; scans and checkers agree with the pair-block scans
    f = FIELDS[name](check=False)
    n, labels, nu, mu = f.n, f.labels, f.carrier.nu, f.carrier.mu
    tmu = derived_ternary_mu(f.carrier)
    targets = first_pair_boundaries(n)
    reached = {"nu": set(), "mu": set()}

    def first_at_a_new_target(which, w):
        """Whether w, an (a,b,c,d,e) witness or None, is the first one seen
        in pair (0, 0) at a target c."""
        if w is None or w[:2] != (0, 0) or w[2] not in targets or w[2] in reached[which]:
            return False
        reached[which].add(w[2])
        return True

    for t in raised_cells(nu, n):
        w = tk._assoc_scan(t)
        if first_at_a_new_target("nu", w):
            assert w == pair_assoc_scan(t)
            assert tk._distrib_scan(t, tmu) == pair_distrib_scan(t, tmu)
            checker_verdicts(lambda: TernaryCarrier(labels, t, mu), n)
    for t in raised_cells(tmu, n):
        w = tk._distrib_scan(nu, t)
        if first_at_a_new_target("mu", w and w[1:]):
            assert w == pair_distrib_scan(nu, t)
            _, v_mul = checker_verdicts(lambda: unchecked_coset(labels, nu, t), n)
            assert v_mul[1:3] == (f"distributivity-law-{w[0]}", w[1:])
    # every boundary but the last triple is some mutant's least witness; in
    # F0(k) a changed cell of the product is mostly first seen in a later pair
    for which in ("nu", "mu") if name.startswith("odd") else ("nu",):
        assert reached[which] >= set(targets) - {n - 1}, (which, sorted(reached[which]))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_one_cell_mutants_of_constant_tables_match_the_pair_scans_in_later_pairs(n):
    # a constant table with one cell changed puts the least witness at the
    # start of any pair: the second pair, and for n <= 32 the last, which
    # the pair-block scans reach only after n^5 quintuples
    pairs = [(0, 1)] + ([(n - 1, n - 1)] if n <= 32 else [])
    labels = [str(v) for v in range(n)]
    for a, b in pairs:
        k, z = spare(n, a, b)
        t = np.full((n, n, n), k, dtype=np.int32)
        t[a, b, k] = z                    # t(a,b,t(c,d,e)) = z, the others k
        assert tk._assoc_scan(t) == pair_assoc_scan(t) == (a, b, 0, 0, 0)
        m = t.copy()
        t[a, b, k] = k                    # law 3: m(a,b,s(c,d,e)) = z
        assert tk._distrib_scan(t, m) == pair_distrib_scan(t, m) == (3, a, b, 0, 0, 0)
        v_add, v_mul = checker_verdicts(lambda: unchecked_coset(labels, t, m), n)
        assert not v_add[0] and v_add[4] == "cheap"
        assert (v_mul[1], v_mul[2], v_mul[4]) == ("distributivity-law-3", (a, b, 0, 0, 0), "scan")


def test_a_proper_three_three_field_decides_associativity_as_the_pair_scan():
    # ProperThreeThreeField scans mu itself when mu has no coset form: on the
    # noncommutative coset of T4(F0(1)) and each of its one-cell mutants it
    # raises, or does not, exactly as with the pair-block scan
    f = triangular_field(4, build_f0(1)).field
    coset = twisted_coset(f, generated_subalgebra(f, [10])[0], 25)
    outcomes = set()
    for cell in itertools.product(range(coset.n), repeat=3):
        for shift in range(coset.n):
            mu = coset.mu.copy()
            mu[cell] = (mu[cell] + shift) % coset.n
            messages = []
            for scan in (tk._assoc_scan, pair_assoc_scan):
                with mock.patch.object(tk, "_assoc_scan", scan):
                    try:
                        ProperThreeThreeField(coset.labels, coset.nu, mu)
                        messages.append(None)
                    except StructureError as exc:
                        messages.append(str(exc))
            assert messages[0] == messages[1]
            outcomes.add(messages[0] is None)
            if messages[0] is not None:
                assert messages[0].startswith("ternary multiplication not associative")
    assert outcomes == {True, False}


def whole_cube_derived_structure(obj):
    """detect_derived_structure's report from the whole ternary product."""
    n, idx = obj.n, np.arange(obj.n)
    if isinstance(obj, ProperThreeThreeField):
        tmu = obj.mu                                # genuinely ternary, (n,n,n)
        assert tmu.ndim == 3
        unit = next((e for e in range(n) if (tmu[e, e] == idx).all()), None)
    else:
        tmu = derived_ternary_mu(obj)               # [i,j,k] -> mu[mu[i,j],k]
        unit = next((e for e in range(n) if (obj.mu[e] == idx).all()
                     and (obj.mu[:, e] == idx).all()), None)
    zero = next((z for z in range(n) if z != unit and (obj.nu[z, z] == idx).all()
                 and (tmu[z] == z).all()), None)
    return {"unit": unit, "zero": zero}


def test_derived_structure_builds_no_derived_cube():
    f3 = build_f0(3)
    carriers = [roster_field(name).carrier for name in ROSTER]
    carriers += [binary_derived_carrier(m) for m in (2, 3, 4, 6, 8)]
    # mu not associative: (0*j)*k = 0 for all j, k, though 0*(j*k) = 1
    z3 = binary_derived_carrier(3)
    carriers.append(TernaryCarrier(z3.labels, z3.nu, [[1, 1, 1], [0, 0, 0], [2, 2, 2]]))
    # nu(0,0,0) = 0 but nu(0,0,x) != x elsewhere: 0 absorbs mu, yet is no zero
    nu = z3.nu.copy()
    nu[0, 0, [1, 2]] = 2, 1
    carriers.append(TernaryCarrier(z3.labels, nu, z3.mu))
    carriers.append(twisted_coset(f3, [f3.index("1"), f3.index("x^2")], f3.index("x")))
    reports = [detect_derived_structure(c) for c in carriers]
    assert reports == [whole_cube_derived_structure(c) for c in carriers]
    assert {r["zero"] for r in reports} == {None, 0}
    f = build_f0(3, 3, check=False)
    found, peak = traced_peak(detect_derived_structure, f.carrier)
    assert found == {"unit": f.one, "zero": None}
    assert peak < 8 * 2 ** 20, peak
    # the neutral elements are read from the retract: nu's cube is not built
    assert "nu" not in vars(f.carrier)


def test_refused_sizes_are_written_in_decimal_within_the_digit_limit():
    tk._refuse_size(512, 512, "never raised")
    with pytest.raises(CarrierSizeError, match="^size 513 over 512$"):
        tk._refuse_size(513, 512, "size {size} over {limit}")
    for size, text in [(10 ** 4000, "1" + "0" * 4000), (2 ** 20000, "2^20000"),
                       (3 * 2 ** 20000, "more than 2^20001")]:
        with pytest.raises(CarrierSizeError, match=f"^ring of size {re.escape(text)}$"):
            tk._refuse_size(size, 512, "ring of size {size}")


def test_odd_residues_past_the_table_limit_are_refused_before_any_table():
    # odd(2048) would need an 8 GiB int64 cube of sums
    with pytest.raises(CarrierSizeError, match="^carrier of size 1024 exceeds the build limit 512$"):
        odd_residue_field(2048, check=False)


# -- the chunked invariants against the whole-cube formulas ---------------------

def whole_cube_invariants(nu, mu, labels):
    """The cheap invariants over whole n^3 cubes: (axiom, witness, detail) of
    the first failure, commutativity, solvability, then mu-associativity."""
    n = len(nu)
    bad = (nu != nu.transpose(1, 0, 2)) | (nu != nu.transpose(0, 2, 1))
    if bad.any():
        w = tk._least(bad)
        return ("commutativity", w,
                "nu is not symmetric at ({},{},{})".format(*(labels[v] for v in w)))
    rows_ok = (np.sort(nu, axis=2) == np.arange(n)).all(axis=2)
    if not rows_ok.all():
        a, b = tk._least(~rows_ok)
        return ("solvability", (a, b),
                f"nu({labels[a]},{labels[b]},x) does not reach every element exactly once")
    w = whole_cube_assoc_witness(mu)
    if w is not None:
        return ("mu-associativity", w,
                "mu is not associative at ({},{},{})".format(*(labels[v] for v in w)))
    return None


def chunked_invariants(nu, mu, labels):
    v = tk._nu_invariants(nu, labels)
    if v is None:
        v = tk._mu_invariants(mu, labels)
    return None if v is None else (v.axiom, v.witness, v.detail)


@pytest.mark.parametrize("rows", [1, 3, 7, 32])
def test_chunked_invariants_match_the_whole_cube(rows, monkeypatch):
    c = roster_field("odd(64)").carrier
    n, labels = c.n, c.labels
    monkeypatch.setattr(tk, "_BLOCK_ENTRIES", rows * n * n)   # rows per chunk
    rng = np.random.default_rng(rows)
    assert chunked_invariants(c.nu, c.mu, labels) is None
    seen = set()
    for _ in range(24):
        # faults whose least index lies anywhere, chunk edges included
        i, j, k = sorted(rng.integers(0, n, size=3))
        nu, mu = c.nu.copy(), c.mu.copy()
        kind = rng.integers(0, 4)
        if kind == 0:                       # one cell: no longer symmetric
            nu[j, i, k] = (nu[j, i, k] + 1) % n
        elif kind == 1:                     # symmetric, a row hits a value twice
            for cell in itertools.permutations((i, j, k)):
                nu[cell] = (c.nu[i, j, k] + 1) % n
        elif kind == 2:                     # mu no longer associative
            mu[i, j] = (mu[i, j] + 1) % n
        else:                               # a relabelled nu: passes
            moved = relabel(c, rng.permutation(n))
            nu, mu = moved.nu, moved.mu
        want = whole_cube_invariants(nu, mu, labels)
        assert chunked_invariants(nu, mu, labels) == want
        seen.add(None if want is None else want[0])
    assert len(seen) >= 3


def verdicts_and_error(carrier, one):
    """Both checkers' verdicts in full, and the message a field raises when
    every axiom is decided (`decided`; None when it accepts), on a fresh
    copy of the carrier, so that its retract is computed under the current
    chunk size."""
    carrier, n = with_tables(carrier), carrier.n
    vs = [(v.ok, v.axiom, v.witness, v.detail, v.method)
          for v in (check_ternary_group(carrier, limit=n),
                    check_distributivity(carrier, limit=n))]
    try:
        decided(FiniteThreeField(carrier, one, check=False))
    except StructureError as exc:
        return vs, str(exc)
    return vs, None


@pytest.mark.parametrize("name", ["F0(5)", "odd(32)", "T2(F0(2))", "T2(odd(4))"])
def test_small_chunks_give_the_same_verdicts_and_errors(name, monkeypatch):
    # 64 entries per chunk: every law check walks many chunks, so a witness
    # found past a chunk boundary must come out as at the default size
    f = roster_field(name)
    mutants = list(swapped_cell_mutants(f.carrier, np.random.default_rng(f.n), 12))
    want = [verdicts_and_error(c, f.one) for c in [f.carrier] + mutants]
    monkeypatch.setattr(tk, "_BLOCK_ENTRIES", 64)
    assert [verdicts_and_error(c, f.one) for c in [f.carrier] + mutants] == want
    assert want[0] == ([(True, None, None, None, "certificate")] * 2, None)
    assert len({err for _, err in want}) >= 4


# -- certificates against the scan ---------------------------------------------
#
# The scan is the oracle: a passing certificate must mean the NumPy scan finds
# no witness, the certificate must pass on every valid field (so the fast path
# is really taken), and with the certificate failing the verdict must be the
# scan's, witness, axiom and detail alike.

# the roster fields of these tests and the check each is built with; the
# two triangular fields are noncommutative
ROSTER = {
    **{f"odd({m})": False for m in (4, 8, 16, 32, 64)},
    **{name: "light" for name in ("F0(2)", "F0(3)", "F0(4)", "F0(5)", "F0(6)",
                                  "F0(2,2)", "F0(3,2)", "F0(2)xF0(3)", "F0(3)xF0(3)",
                                  "T2(F0(2))", "T2(odd(4))")},
}


# the roster fields whose scans take well under a second on NumPy (n <= 16)
SMALL = ["odd(4)", "odd(8)", "odd(16)", "odd(32)", "F0(2)", "F0(3)", "F0(4)", "F0(5)",
         "F0(2,2)", "F0(2)xF0(3)", "F0(3)xF0(3)", "T2(F0(2))", "T2(odd(4))"]


@functools.lru_cache(maxsize=None)
def roster_field(name):
    return FIELDS[name](check=ROSTER[name])


def scan_only():
    """Every carrier without a certified retract, cached or not: both
    decisions go to the scan."""
    return mock.patch.object(TernaryCarrier, "retract", property(lambda c: None))


def assert_agrees_with_scan(carrier):
    """Both checks give the scan's verdict; returns the fast verdicts."""
    n = carrier.n
    fast = (check_ternary_group(carrier, limit=n), check_distributivity(carrier, limit=n))
    with scan_only():
        slow = (check_ternary_group(carrier, limit=n), check_distributivity(carrier, limit=n))
    for f, s in zip(fast, slow):
        assert verdict_dict(f) == verdict_dict(s)
        assert f.method in ("cheap", "certificate", "scan")
        if f.method != "certificate":
            assert f.method == s.method
    return fast


PASS = {"ok": True, "axiom": None, "witness": None, "detail": None}


@pytest.mark.parametrize("name", list(ROSTER))
def test_certificates_pass_on_valid_fields(name):
    f = roster_field(name)
    c = f.carrier
    assert detect_derived_structure(c) == {"unit": f.one, "zero": None}
    rng = np.random.default_rng(len(name))
    for carrier in (c, relabel(c, rng.permutation(c.n))):
        assert carrier.retract is not None
        assert tk._distrib_certificate(carrier)
        v_add = check_ternary_group(carrier, limit=carrier.n)
        v_mul = check_distributivity(carrier, limit=carrier.n)
        assert v_add.method == v_mul.method == "certificate"
        assert verdict_dict(v_add) == verdict_dict(v_mul) == PASS


@pytest.mark.parametrize("name", SMALL)
def test_passing_certificate_means_no_scan_witness(name):
    c = roster_field(name).carrier
    assert c.retract is not None and tk._assoc_scan(c.nu) is None
    assert tk._distrib_certificate(c)
    assert tk._distrib_scan(c.nu, derived_ternary_mu(c)) is None


# x*y = g_y(x), where g_y is the element mapping 0 to y of a nonabelian group
# of affine maps of F2^3 that acts regularly: a group with unit 0 whose right
# translations are affine for XOR and whose left translations are not all
ONE_SIDED_MU = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 6, 4, 3, 7, 2, 5],
                         [2, 5, 3, 7, 6, 4, 1, 0], [3, 4, 7, 0, 1, 6, 5, 2],
                         [4, 3, 5, 1, 0, 2, 7, 6], [5, 2, 1, 6, 7, 0, 3, 4],
                         [6, 7, 4, 5, 2, 3, 0, 1], [7, 6, 0, 2, 5, 1, 4, 3]])


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_product_distributive_on_one_side_only_fails_the_certificate(side):
    # over nu = x+y+z on o = (F2^3, XOR), a certificate that tests the
    # translations of one side only would pass this product; the scan names
    # the law that fails
    v = np.arange(8)
    xor_affine = lambda g: ((g[v[:, None] ^ v] ^ g[0]) == (g[:, None] ^ g)).all()
    assert all(xor_affine(ONE_SIDED_MU[:, y]) for y in v)        # x -> x*y
    assert not all(xor_affine(ONE_SIDED_MU[x]) for x in v)       # y -> x*y
    mu = ONE_SIDED_MU if side == "right" else ONE_SIDED_MU.T    # or the opposite product
    carrier = TernaryCarrier([str(i) for i in v], v[:, None, None] ^ v[None, :, None] ^ v, mu)
    assert tk._mu_invariants(carrier.mu, carrier.labels) is None     # a group, unit 0
    v_add, v_mul = assert_agrees_with_scan(carrier)
    assert v_add.method == "certificate"
    assert not v_mul and v_mul.method == "scan"
    with pytest.raises(StructureError, match="^distributivity fails: law"):
        FiniteThreeField(with_tables(carrier), 0)


def test_relabelled_unit_off_index_zero_agrees_with_scan():
    rng = np.random.default_rng(3)
    for name in ("odd(16)", "F0(4)", "F0(2)xF0(3)"):
        f = roster_field(name)
        perm = rng.permutation(f.n)
        while perm[f.one] == 0:
            perm = rng.permutation(f.n)
        fast = assert_agrees_with_scan(relabel(f.carrier, perm))
        assert [v.method for v in fast] == ["certificate", "certificate"]


@pytest.mark.parametrize("name", ["H(odd(4))", "F0(1)[D4]"])
def test_the_128_element_noncommutative_fields_pass_by_certificate(name):
    # beyond the scan oracle: the certificate decides both checks, as built
    # and relabelled with the unit moved, and each validates with every
    # axiom decided
    f = FIELDS[name](check="light")
    assert f.n == 128 and (f.carrier.mu != f.carrier.mu.T).any()
    rng = np.random.default_rng(7)
    for perm in (np.arange(f.n), *(rng.permutation(f.n) for _ in range(3))):
        g = decided(relabel(f, perm))
        assert [(v.ok, v.method) for v in (check_ternary_group(g.carrier, limit=g.n),
                                           check_distributivity(g.carrier, limit=g.n))] \
            == [(True, "certificate")] * 2


@pytest.mark.parametrize("name", ["odd(8)", "odd(16)", "odd(32)", "F0(3)", "F0(4)",
                                  "F0(5)", "F0(2,2)", "F0(2)xF0(3)", "F0(3)xF0(3)",
                                  "T2(F0(2))", "T2(odd(4))"])
def test_failing_verdicts_are_the_scans(name):
    f = roster_field(name)
    rng = np.random.default_rng(f.n)
    for carrier in perturbations(relabel(f.carrier, rng.permutation(f.n)), rng):
        assert_agrees_with_scan(carrier)


@pytest.mark.parametrize("pair", [("odd(8)", "F0(3)"), ("odd(16)", "F0(4)"),
                                  ("odd(32)", "F0(5)"), ("odd(32)", "F0(3)xF0(3)"),
                                  ("odd(64)", "F0(6)"), ("odd(64)", "F0(3,2)")])
def test_swapped_nu_mu_pairs_agree_with_scan(pair):
    a, b = (roster_field(name).carrier for name in pair)
    for nu_of, mu_of in ((a, b), (b, a)):
        v_add, v_mul = assert_agrees_with_scan(with_tables(nu_of, mu=mu_of.mu))
        assert v_add.method == "certificate"
        assert v_mul.method == ("certificate" if v_mul else "scan")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["odd(4)", "odd(8)", "odd(16)", "F0(3)", "F0(4)", "F0(2,2)"]),
       st.integers(0, 2**32 - 1), st.sampled_from(["relabel", "pi-nu", "mu"]))
def test_certificates_agree_with_scan_on_random_tables(name, seed, kind):
    f = roster_field(name)
    rng = np.random.default_rng(seed)
    carrier = relabel(f.carrier, rng.permutation(f.n))
    if kind != "relabel":
        carrier = list(perturbations(carrier, rng))[kind == "mu"]
    assert_agrees_with_scan(carrier)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_certificates_agree_with_scan_on_arbitrary_tables(n, seed):
    rng = np.random.default_rng(seed)
    nu = rng.integers(0, n, size=(n, n, n), dtype=np.int32)
    nu = np.minimum(nu, nu.transpose(1, 0, 2)) if seed % 2 else nu
    mu = rng.integers(0, n, size=(n, n), dtype=np.int32)
    carrier = TernaryCarrier([str(i) for i in range(n)], nu, mu)
    assert_agrees_with_scan(carrier)
    assert_retract_matches_the_split_certificates(with_tables(carrier))


def odd_twist_carrier():
    """x+y+z+2[x,y,z all odd] on Z/4 with mu = x*y: symmetric and uniquely
    solvable, its retract at 0 is Z/4, yet nu is not of the form x+y+z+k."""
    v = np.arange(4)
    odd = v % 2
    nu = (v[:, None, None] + v[None, :, None] + v[None, None, :]
          + 2 * odd[:, None, None] * odd[None, :, None] * odd[None, None, :]) % 4
    return TernaryCarrier("0123", nu, (v[:, None] * v[None, :]) % 4)


def identity_free_carrier():
    """nu factoring through {0,1} -> 0, {2} -> 1 onto Z/2, so the retract
    x o y = nu(x,2,y) has no identity; distributivity fails."""
    nu = [[[2, 2, 0], [2, 2, 0], [0, 0, 2]], [[2, 2, 0], [2, 2, 0], [0, 0, 2]],
          [[0, 0, 2], [0, 0, 2], [2, 2, 0]]]
    mu = [[0, 1, 2], [1, 1, 2], [2, 2, 1]]
    return TernaryCarrier("abc", nu, mu)


def test_associative_retract_alone_certifies_nothing():
    carrier = odd_twist_carrier()
    assert carrier.retract is None
    v_add, v_mul = assert_agrees_with_scan(carrier)
    assert not v_add and v_add.method == "scan"
    assert v_mul.method == "scan"


def test_retract_without_identity_certifies_nothing():
    carrier = identity_free_carrier()
    assert carrier.retract is None
    # a coset form over a retract with no identity: the retract's group
    # checks, not the form, refuse it
    assert split_assoc_certificate(carrier.nu) is not None
    v_mul = assert_agrees_with_scan(carrier)[1]
    assert not v_mul and v_mul.method == "scan"


# -- the certified retract against the split certificates -----------------------
#
# The oracles are the certificates as two functions with two acceptance
# tests, the associativity one handing its retract to the distributivity one
# through `coset`.  The carrier's one certified retract must reproduce them:
# equal acceptance wherever associativity is decided (nu passed the cheap
# invariants), equal distributivity acceptance everywhere, and both
# checkers' verdicts and methods equal to the split form's.

def split_retract(nu):
    sols = np.flatnonzero(nu[0, 0] == 0)
    if len(sols) != 1:
        return None
    return np.ascontiguousarray(nu[:, int(sols[0]), :]), int(nu[0, 0, 0])


def is_coset_form(nu, o, k):
    """The coset form by its definition: o associative on the whole cube
    and nu = F[o] on the whole table."""
    return whole_cube_assoc_witness(o) is None and (tk._coset_form(o, k)[o] == nu).all()


def split_assoc_certificate(nu):
    r = split_retract(nu)
    return r if r is not None and is_coset_form(nu, *r) else None


def split_distrib_certificate(nu, mu, coset=None):
    r = coset or split_retract(nu)
    if r is None:
        return False
    o, k = r
    n = len(o)
    zero = o == 0
    if not (tk._identity(o) == 0 and (o == o.T).all() and zero.any(axis=1).all()
            and (coset is not None or is_coset_form(nu, o, k))):
        return False
    neg = np.argmax(zero, axis=1)
    trans = np.concatenate([mu, mu.T])
    c = trans[:, 0]
    g = o[trans, neg[c][:, None]]
    if not (g[:, k] == o[o[c, c], k]).all():
        return False
    return tk._first_violation(2 * n, n * n, lambda rows: g[rows][:, o]
                               != o[g[rows][:, :, None], g[rows][:, None, :]]) is None


def scanned(check, c):
    with scan_only():
        return check(with_tables(c), limit=c.n)


def split_verdicts(c):
    """(verdict_dict, method) of both checkers with the split certificates in
    front of the unchanged cheap invariants and scans, for closed tables."""
    certificate = tk.Verdict(True, method="certificate")
    v_add = tk._nu_invariants(c.nu, c.labels)
    if v_add is None:
        v_add = (certificate if split_assoc_certificate(c.nu) is not None
                 else scanned(check_ternary_group, c))
    v_mul = tk._mu_invariants(c.mu, c.labels)
    if v_mul is None:
        v_mul = (certificate if split_distrib_certificate(c.nu, c.mu)
                 else scanned(check_distributivity, c))
    return [(verdict_dict(v), v.method) for v in (v_add, v_mul)]


def verdicts(c):
    return [(verdict_dict(v), v.method)
            for v in (check_ternary_group(c, limit=c.n), check_distributivity(c, limit=c.n))]


def assert_retract_matches_the_split_certificates(c):
    r = c.retract
    if tk._nu_invariants(c.nu, c.labels) is None:
        assert (r is None) == (split_assoc_certificate(c.nu) is None)
    if r is not None:
        o, k = split_retract(c.nu)
        assert (r[0] == o).all() and r[1] == k
    accepted = r is not None and tk._distrib_certificate(c)
    assert bool(accepted) == bool(split_distrib_certificate(c.nu, c.mu))
    assert verdicts(c) == split_verdicts(c)


@pytest.mark.parametrize("name", list(ROSTER))
def test_retract_matches_the_split_certificates(name):
    c = roster_field(name).carrier
    rng = np.random.default_rng(c.n)
    for perm in (np.arange(c.n), *(rng.permutation(c.n) for _ in range(9))):
        relabelled = relabel(c, perm)
        assert_retract_matches_the_split_certificates(relabelled)
        for carrier in perturbations(relabelled, rng):
            assert_retract_matches_the_split_certificates(carrier)


def test_retract_matches_the_split_certificates_on_hand_made_tables():
    for carrier in (odd_twist_carrier(), identity_free_carrier()):
        assert_retract_matches_the_split_certificates(carrier)


# -- the coset form, written once ---------------------------------------------------
#
# Every builder that starts from an additive group hands its retract (o, k)
# to `TernaryCarrier.from_retract`, whose nu is the coset form F[o] built
# on first read; the certificate checks o alone, so the certified retract
# of a built carrier is the builder's own (o, k), and the dense route, which
# reads the form back from the cube, names the same one.  That nu is
# x+y+z+k itself is tested against the residue and mask arithmetic
# (test_odd_residue_tables_match_the_residue_arithmetic,
# test_poly_fields.test_index_tables_match_the_mask_path).

FROM_RETRACT = TernaryCarrier.from_retract


def built_retract(build):
    """The field build() returns, and the (o, k) its carrier was born from
    (`TernaryCarrier.from_retract`), or None."""
    born = []                           # (carrier, o, k) per retract-born carrier

    def from_retract(labels, o, k, mu):
        born.append((FROM_RETRACT(labels, o, k, mu), o, k))
        return born[-1][0]

    with mock.patch.object(TernaryCarrier, "from_retract", from_retract):
        f = build()
    return f, next(((o, k) for c, o, k in born if c is f.carrier), None)


def z2odd(exponents, m):
    return lambda: build_quotient_field(QuotientFieldSpec(exponents, base=m), check=False)


F0_SPECS = [((1,), ()), ((4,), ()), ((6,), ()), ((3, 3), ()), ((2, 2, 2), ()),
            ((6,), ("x^4+1",)), ((2, 2), ("x1*x2+x1+x2+1",))]
BUILDERS = {
    **{f"odd({2 ** e})": functools.partial(odd_residue_field, 2 ** e, check=False)
       for e in range(1, 11)},
    **{f"F0{ex}{list(rel)}": functools.partial(build_quotient_field,
                                                QuotientFieldSpec(ex, rel), check=False)
       for ex, rel in F0_SPECS},
    **{f"(Z/{2 ** m}Z)^odd{ex}": z2odd(ex, m) for ex, m in (((1,), 3), ((2,), 2), ((2, 2), 2))},
    "toeplitz(3, F0(1))": lambda: toeplitz_field(3, build_f0(1)).field,
    "toeplitz(2, odd(4))": lambda: toeplitz_field(2, odd_residue_field(4)).field,
    "triangular(2, F0(2))": lambda: triangular_field(2, build_f0(2)).field,
    "triangular(2, odd(4))": lambda: triangular_field(2, odd_residue_field(4)).field,
    "quaternion(F0(1))": lambda: quaternion_field(build_f0(1)).field,
    "quaternion(odd(4))": lambda: quaternion_field(odd_residue_field(4)).field,
    "groupalg(C4, F0(1))": lambda: group_algebra(cyclic_group(4), build_f0(1)).field,
    "groupalg(C2, odd(4))": lambda: group_algebra(cyclic_group(2), odd_residue_field(4)).field,
    "F0(2)xF0(3)": lambda: product_field(build_f0(2), build_f0(3), check=False).field,
    "units(Z/16)": lambda: units_as_3field(residue_ring(16)),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_the_certified_retract_is_the_builders_own(name):
    f, built = built_retract(BUILDERS[name])
    with mock.patch.object(tk, "_coset_retract", wraps=tk._coset_retract) as cube:
        r = f.carrier.retract
    assert built is not None and r is not None and cube.call_count == 0
    assert np.array_equal(built[0], r[0]) and built[1] == r[1]


# -- retract-born carriers against their dense twins ----------------------------------
#
# A builder's carrier holds its retract (o, k) and builds the cube nu only
# when something reads it; its certificate is the group checks on o, and
# its consumers read nu through `nu_of`.  A dense carrier over the same
# tables is the oracle: every decision that reads nu must be the same on
# both, and where o fails a group check the dense route decides.

def dense_twin(c):
    """A dense carrier over c's tables, nothing decided (reading c.nu builds
    c's cube)."""
    return TernaryCarrier(c.labels, c.nu, c.mu)


def outcome(fn, *args):
    """fn(*args), or the type and message of the StructureError it raises."""
    try:
        return fn(*args)
    except StructureError as exc:
        return type(exc).__name__, str(exc)


def checker_outcome(check, c):
    """The checker's Verdict at limit n, as a dict with its method."""
    def run():
        v = check(c, limit=c.n)
        return verdict_dict(v), v.method
    return outcome(run)


def construction(c, one):
    """None when c is the carrier of a 3-field with unit one, checked as
    check="auto" checks it, else the error's type and message."""
    return outcome(lambda: FiniteThreeField(c, one, check="auto") and None)


def decisions(c, one, seeds=None):
    """What the carrier c decides from nu: the certificate, each cheap law,
    both checkers at limit n, the derived structure and the message of a
    field's construction; with seeds, also the closure of the seeds and the
    envelope's tables."""
    got = {
        "certificate": c._certificate,
        "laws": {law: full_verdict(tk._first_failure(c, law)) for law in tk._CHEAP_LAWS},
        "additive": checker_outcome(check_ternary_group, c),
        "distributive": checker_outcome(check_distributivity, c),
        "derived": detect_derived_structure(c),
        "field": construction(c, one),
    }
    if seeds is not None:
        f = FiniteThreeField(c, one, check=False)
        env = pair_envelope.EnvelopeRing(f)
        got["closure"] = poly_fields._subalgebra_closure(f, seeds)
        got["envelope"] = env.add, env.mul
    return got


def assert_decides_as_its_dense_twin(born, one, seeds=None):
    """The retract-born carrier decides as the dense carrier over its tables,
    and builds its cube only where the dense route decides."""
    got = decisions(born, one, seeds)
    assert ("nu" in vars(born)) == (tk._retract_certificate(*born._born_from) is None)
    np.testing.assert_equal(got, decisions(dense_twin(born), one, seeds))
    return got


@pytest.mark.parametrize("name", list(BUILDERS))
def test_a_builders_carrier_decides_as_its_dense_twin(name):
    f = BUILDERS[name]()
    born = f.carrier
    assert born._born_from is not None and "nu" not in vars(born)
    got = assert_decides_as_its_dense_twin(born, f.one, [f.one, (f.one + 1) % f.n])
    assert got["additive"][1] == got["distributive"][1] == "certificate"
    (o, k, gens), r = got["certificate"], tk._coset_retract(born.nu)
    assert np.array_equal(o, born.retract[0]) and k == born.retract[1]
    assert np.array_equal(gens, born.retract_generators)
    assert np.array_equal(r[0], o) and r[1] == k and np.array_equal(r[2], gens)


def d4_table():
    """The dihedral group of order 8 as a table on range(8), identity 0:
    the symmetries of a square as permutations of its corners."""
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    elements = [(0, 1, 2, 3)]
    for g in elements:                              # closed under r and s
        for h in (r, s):
            gh = tuple(h[g[i]] for i in range(4))
            if gh not in elements:
                elements.append(gh)
    return np.array([[elements.index(tuple(b[a[i]] for i in range(4))) for b in elements]
                     for a in elements], dtype=np.int32)


def mutant_retracts():
    """Retracts (o, k) over odd(16)'s 8 elements that fail o's group checks:
    the identity moved off 0, one cell changed, and a group that is not
    commutative (D4)."""
    o, k = odd_residue_field(16).carrier.retract
    sigma = np.roll(np.arange(8, dtype=np.int32), 1)        # 0 -> 7
    moved = sigma[o[np.ix_(np.argsort(sigma), np.argsort(sigma))]]
    broken = o.copy()
    broken[1, 2] = o[1, 3]
    return {"identity off 0": (moved, k), "one cell": (broken, k), "D4": (d4_table(), k)}


@pytest.mark.parametrize("name", ["identity off 0", "one cell", "D4"])
def test_a_mutant_retract_keeps_the_dense_route(name):
    f = odd_residue_field(16)
    o, k = mutant_retracts()[name]
    assert tk._retract_certificate(o, k) is None
    born = TernaryCarrier.from_retract(f.labels, o, k, f.carrier.mu)
    with mock.patch.object(tk, "_coset_retract", wraps=tk._coset_retract) as cube:
        got = assert_decides_as_its_dense_twin(born, f.one)
    assert cube.call_args_list[0].args[0] is born.nu          # the dense route decided
    assert np.array_equal(born.nu, tk._coset_form(o, k)[o])
    if name == "identity off 0":     # nu is still a commutative ternary group
        assert got["certificate"] is not None and not np.array_equal(born.retract[0], o)
        assert got["additive"][1] == "certificate"
    else:
        assert got["certificate"] is None and got["additive"][0]["ok"] is False
        assert got["field"][0] == "StructureError"


def test_a_retract_born_loop_decides_as_its_dense_twin():
    # every commutative loop of order 6 passes o's checks up to Light's
    # test, which 396 of them fail: those fall back to the dense route
    labels = [str(i) for i in range(6)]
    for o in commutative_loops(6):
        born = TernaryCarrier.from_retract(labels, o, 0, o)
        dense = TernaryCarrier(labels, tk._coset_form(o, 0)[o], o)
        assert ([full_verdict(tk._first_failure(born, law)) for law in tk._CHEAP_LAWS]
                == [full_verdict(tk._first_failure(dense, law)) for law in tk._CHEAP_LAWS])
        assert (born.retract is None) == (dense.retract is None)
        if born.retract is not None:
            assert "nu" not in vars(born)
            assert np.array_equal(born.retract[0], dense.retract[0])


def test_nu_of_reads_nu_as_numpy_indexes_it():
    for name in ("F0(3)", "odd(16)", "F0(2,2)"):
        born = FIELDS[name](check=False).carrier
        dense = dense_twin(born)
        n, one = born.n, 1 % born.n
        rows, cols = np.arange(n)[:, None], np.arange(n)
        sub = np.array([0, n - 1])
        for args in [(0, 1, n - 1), (one, one), (slice(1, 3),), (sub,), (rows, one, cols),
                     (rows, cols, one), (born.mu, rows, one), (rows, cols, born.mu),
                     np.ix_(sub, cols, sub), np.ix_(cols, sub, cols), np.ix_(sub, sub, [one]),
                     (rows, rows, cols), (sub[:, None, None], cols[:, None], sub),
                     (sub[:, None], one, sub), (rows[:, :, None], cols[:, None], cols[None, None, :2])]:
            got, want = born.nu_of(*args), dense.nu_of(*args)
            assert got.shape == want.shape and np.array_equal(got, want), args
            assert np.array_equal(want, dense.nu[args])


def test_a_retract_born_carrier_validates_its_retract():
    labels = ["a", "b"]
    mu = [[0, 1], [1, 0]]
    for o, k, message in [([[0, 1], [1, 2]], 0, r"retract table entries must lie in \[0, 2\)"),
                          ([[0, 1], [1, -1]], 0, r"retract table entries must lie in \[0, 2\)"),
                          ([0, 1, 1], 0, "retract table must have shape"),
                          ([[0, 1], [1, 0]], 2, "k = 2 is not an element of the 2-element carrier")]:
        with pytest.raises(StructureError, match=message):
            TernaryCarrier.from_retract(labels, o, k, mu)
    with pytest.raises(StructureError, match="carrier labels must be distinct"):
        TernaryCarrier.from_retract(["a", "a"], [[0, 1], [1, 0]], 0, mu)


def test_builders_and_checkers_hold_no_cube():
    # the builders' carriers, both checkers and the derived structure stay
    # well below one int32 n^3 cube (64 MiB at n = 256, 512 MiB at 512);
    # the cube is built on the first read of nu, once, read-only
    for build in (lambda: build_f0(3, 3, check="light"),
                  lambda: odd_residue_field(1024, check="light"),
                  lambda: triangular_field(3, odd_residue_field(4, check="light")).field):
        def run():
            c = build().carrier
            verdicts = check_ternary_group(c, limit=c.n), check_distributivity(c, limit=c.n)
            return c, verdicts, detect_derived_structure(c)
        (c, verdicts, found), peak = traced_peak(run)
        assert [v.method for v in verdicts] == ["certificate"] * 2 and all(verdicts)
        assert found["zero"] is None and found["unit"] is not None
        cube = 4 * c.n ** 3
        assert peak < cube / 8, (c.n, peak)
        assert "nu" not in vars(c)
        o, k = c._born_from
        nu, form = c.nu, tk._coset_form(o, k)
        assert all(np.array_equal(nu[x], form[o[x]]) for x in range(c.n))   # nu is F[o]
        assert not nu.flags.writeable and c.nu is nu
        del c, nu                       # the cube goes before the next build


@pytest.mark.parametrize("name", ["odd(4)", "odd(8)", "F0(3)", "F0(2,2)", "T2(F0(2))",
                                  "H(odd(4))"])
def test_a_one_cell_change_to_nu_is_no_coset_form(name):
    # a coset form is a Latin square in its last argument, and one changed
    # cell breaks that, so no retract certifies the change
    c = FIELDS[name](check=False).carrier
    n, (o, k) = c.n, c.retract
    assert tk._is_coset_form(c.nu, o, k)
    rng = np.random.default_rng(n)
    cells = (list(itertools.product(range(n), repeat=3)) if n <= 4
             else [tuple(rng.integers(0, n, size=3)) for _ in range(24)])
    for cell in cells:
        for shift in (range(1, n) if n <= 4 else rng.integers(1, n, size=2)):
            nu = c.nu.copy()
            nu[cell] = (nu[cell] + shift) % n
            assert not tk._is_coset_form(nu, o, k), (cell, shift)
            assert tk._coset_retract(nu) is None, (cell, shift)


# -- the cheap laws, certificate first ---------------------------------------------
#
# The nu invariants pass by the certified retract and the invariants of a
# binary mu by Light's test on mu's generators; the walks run only on a
# failure, to name it.  Each law must give the walk's verdict exactly.

def commutative_loops(n):
    """Every commutative loop on range(n) with identity 0: the symmetric
    Latin squares whose row and column 0 are the identity, by backtracking
    over the cells (i, j), 1 <= i <= j."""
    t = np.zeros((n, n), dtype=np.int32)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    used = [{i} for i in range(n)]              # the values in row i, = column i
    loops = []

    def fill(c):
        if c == len(cells):
            loops.append(t.copy())
            return
        i, j = cells[c]
        for v in range(n):
            if v not in used[i] and v not in used[j]:
                t[i, j] = t[j, i] = v
                used[i].add(v), used[j].add(v)
                fill(c + 1)
                used[i].discard(v), used[j].discard(v)
    fill(0)
    return loops


def full_verdict(v):
    return None if v is None else (v.ok, v.axiom, v.witness, v.detail, v.method)


def assert_cheap_laws_are_the_walks(c):
    """Both cheap invariants of a fresh closed carrier give their walk's
    verdict: axiom, witness, detail and method."""
    c = with_tables(c)
    assert (full_verdict(tk._first_failure(c, "nu closure", "nu invariants"))
            == full_verdict(tk._nu_invariants(c.nu, c.labels)))
    assert (full_verdict(tk._first_failure(c, "mu closure", "mu invariants"))
            == full_verdict(tk._mu_invariants(c.mu, c.labels)))


def test_the_cheap_laws_on_every_commutative_loop_of_order_6():
    # nu = (x o y) o z is the coset form of o by construction, so the
    # certificate is decided by Light's test on o alone; as a binary mu,
    # each loop is decided by Light's test on its own generators
    loops = commutative_loops(6)
    labels = [str(i) for i in range(6)]
    z6 = (np.arange(6)[:, None] + np.arange(6)) % 6
    associative = [tk._assoc_violation(o) is None for o in loops]
    assert (len(loops), associative.count(False)) == (456, 396)
    for o, assoc in zip(loops, associative):
        c = TernaryCarrier(labels, tk._coset_form(o, 0)[o], o)
        assert (c.retract is not None) == assoc
        assert_cheap_laws_are_the_walks(c)
        assert_cheap_laws_are_the_walks(TernaryCarrier(labels, tk._coset_form(z6, 0)[z6], o))


def one_cell_mutants(c, rng, count):
    """Carriers with one cell of nu, or of mu, moved by a random shift."""
    for k in range(count):
        nu, mu = c.nu.copy(), c.mu.copy()
        t = nu if k % 2 else mu
        cell = tuple(rng.integers(0, c.n, size=t.ndim))
        t[cell] = (t[cell] + rng.integers(1, c.n)) % c.n
        yield TernaryCarrier(c.labels, nu, mu)


@pytest.mark.parametrize("name", list(ROSTER))
def test_the_cheap_laws_are_the_walks_on_the_roster_and_its_mutants(name):
    c = roster_field(name).carrier
    rng = np.random.default_rng(c.n)
    for carrier in (c, relabel(c, rng.permutation(c.n))):
        assert_cheap_laws_are_the_walks(carrier)
        for mutant in (*one_cell_mutants(carrier, rng, 12),
                       *swapped_cell_mutants(carrier, rng, 6), *perturbations(carrier, rng)):
            assert_cheap_laws_are_the_walks(mutant)


# -- the affine law on a stack of maps ----------------------------------------------

@pytest.mark.parametrize("per_chunk", [None, 1, 3])
def test_a_stack_of_maps_is_decided_as_its_maps(per_chunk, monkeypatch):
    # mu's translations, each also with one image moved and shifted by
    # o's element 1: every map against the whole nu table, and every stack
    # against its maps, in chunks of `per_chunk` maps when the block is
    # patched small.  A shift keeps g additive and breaks only the affine
    # constant, unless 1 + 1 = 0 in o.
    rng = np.random.default_rng(19)
    for name in ("odd(16)", "F0(4)", "F0(2)xF0(3)"):
        c = with_tables(roster_field(name).carrier)
        r, gens = c.retract, c.retract_generators
        good = tk._translations(c.mu)                    # a map per column
        moved = good.copy()
        x = rng.integers(0, c.n, size=moved.shape[1])
        moved[x, np.arange(moved.shape[1])] = (moved[x, np.arange(moved.shape[1])] + 1) % c.n
        shifted = r[0][good, 1]
        maps = np.concatenate([good, moved, shifted], axis=1)
        each = [tk._map_violation(f, c.nu, c.nu) is None for f in maps.T]
        w = good.shape[1]
        assert all(each[:w]) and not any(each[w:2 * w])
        assert all(each[2 * w:]) == (r[0][1, 1] == 0)
        if per_chunk:
            monkeypatch.setattr(tk, "_BLOCK_ENTRIES", per_chunk * c.n * len(gens))
        assert [tk._affine_on(f, r, gens, *r) for f in maps.T] == each
        with mock.patch.object(tk, "_carries_on", wraps=tk._carries_on) as carries:
            assert tk._affine_on(good, r, gens, *r)
        # one call for the stack, then one per chunk when it is split
        chunks = -(-good.shape[1] // (per_chunk or good.shape[1]))
        assert carries.call_count == (1 if chunks == 1 else 1 + chunks)
        for _ in range(20):
            idx = np.sort(rng.choice(maps.shape[1], size=rng.integers(1, 12), replace=False))
            assert tk._affine_on(maps[:, idx], r, gens, *r) == all(each[i] for i in idx)
        assert not tk._affine_on(np.concatenate([good, moved[:, -1:]], axis=1), r, gens, *r)
        monkeypatch.undo()


def test_verdict_method_records_how_it_was_reached():
    f = roster_field("F0(3)")
    v = check_ternary_group(f.carrier)
    assert v.method == "certificate"
    assert set(verdict_dict(v)) == {"ok", "axiom", "witness", "detail"}
    nu = f.carrier.nu.copy()
    nu[0, 1, 2] = nu[0, 2, 1] = (nu[0, 1, 2] + 1) % f.n
    assert check_ternary_group(with_tables(f.carrier, nu=nu)).method == "cheap"
    sub = [f.index("1"), f.index("x^2")]
    coset = twisted_coset(f, sub, f.index("x"))
    v = check_distributivity(coset)
    assert coset.retract is not None and v and v.method == "certificate"
    assert check_ternary_group(f.carrier) is not check_ternary_group(f.carrier)


# -- FiniteThreeField validation ---------------------------------------------
#
# FiniteThreeField validates itself with the checkers' own invariant and
# decision functions: every check mode rejects a broken cheap invariant, only
# "auto" reaches the scan, and each invariant runs once.  The test mode
# "full" is a light field whose axioms the checkers then decide with the
# gate at the carrier's own size (`decided`).

CHECK_MODES = {"light": lambda c, one: FiniteThreeField(c, one, check="light"),
               "auto": lambda c, one: FiniteThreeField(c, one, check="auto"),
               "full": lambda c, one: decided(FiniteThreeField(c, one, check=False))}

def _non_symmetric_nu(c):
    nu = c.nu.copy()
    nu[0, 1, 2], nu[0, 1, 3] = nu[0, 1, 3], nu[0, 1, 2]
    return with_tables(c, nu=nu)


def _non_permutation_row(c):
    nu = c.nu.copy()
    for cell in itertools.permutations((0, 1, 2)):
        nu[cell] = c.nu[0, 1, 3]          # nu(0,1,.) takes that value twice
    return with_tables(c, nu=nu)


def _non_associative_mu(c):
    # swap an intercalate of the group table: still a Latin square with the
    # same unit and inverses, but no longer associative
    mu = c.mu.copy()
    seven, nine = c.index("7"), c.index("9")
    for row in (c.index("3"), c.index("13")):
        mu[row, seven], mu[row, nine] = mu[row, nine], mu[row, seven]
    return with_tables(c, mu=mu)


BROKEN = {  # kind -> (carrier, unit index, what the error names)
    "non-symmetric nu": (lambda: _non_symmetric_nu(roster_field("odd(16)").carrier), 0,
                         "not symmetric"),
    "non-permutation nu row": (lambda: _non_permutation_row(roster_field("odd(16)").carrier),
                               0, "exactly once"),
    "non-associative mu": (lambda: _non_associative_mu(roster_field("odd(16)").carrier), 0,
                           "not associative"),
    # a zero absorbs the product, so it has no inverse: that check catches it
    "additive zero": (lambda: binary_derived_carrier(3), 1, "inverse"),
}


@pytest.mark.parametrize("check, checked_first",
                         [*(pytest.param(m, False, id=m) for m in CHECK_MODES),
                          *(pytest.param(m, True, id=f"{m} checked first") for m in CHECK_MODES)])
@pytest.mark.parametrize("kind", list(BROKEN))
def test_every_check_mode_rejects_a_broken_invariant(kind, check, checked_first):
    # the cheap laws are decided once per carrier, by whichever caller comes
    # first: construction and both checkers must report as on a fresh carrier
    build, one, what = BROKEN[kind]
    carrier = build()
    if checked_first:
        checked = verdicts(carrier)
    with pytest.raises(StructureError, match=what) as exc:
        CHECK_MODES[check](carrier, one)
    fresh = build()
    with pytest.raises(StructureError) as want:
        CHECK_MODES[check](fresh, one)
    assert str(exc.value) == str(want.value)
    assert (checked if checked_first else verdicts(carrier)) == verdicts(build())


@pytest.mark.parametrize("field_first", [True, False])
def test_each_caller_keeps_its_order_of_laws(field_first):
    # nu is not symmetric and mu leaves the carrier at (3,5): a field checks
    # both closures before the nu invariants, check_ternary_group never looks
    # at mu, and check_distributivity stops at the closure of mu
    c = _non_symmetric_nu(roster_field("odd(16)").carrier)
    mu = c.mu.copy()
    mu[1, 2] = tk.FOREIGN
    carrier = with_tables(c, mu=mu)

    def build():
        with pytest.raises(StructureError, match=r"^field operations must be closed: "
                                                 r"mu\(3,5\) = \? not in carrier$"):
            FiniteThreeField(carrier, 0, check="light")

    def check():
        v = check_ternary_group(carrier, limit=carrier.n)
        assert (v.axiom, v.witness, v.method) == ("commutativity", (0, 1, 2), "cheap")
        v = check_distributivity(carrier, limit=carrier.n)
        assert (v.axiom, v.witness, v.detail) == ("closure", (1, 2), "mu(3,5) = ? not in carrier")

    for step in (build, check) if field_first else (check, build):
        step()


def test_an_unchecked_field_finds_a_missing_inverse_when_asked():
    # Z/3 with its zero: construction raises, and an unchecked field raises
    # the same error at its first inverse, and again at the next
    c = binary_derived_carrier(3)
    message = "^element 0 has no right inverse$"
    with pytest.raises(StructureError, match=message):
        FiniteThreeField(c, 1, check="light")
    f = FiniteThreeField(c, 1, check=False)
    for ask in (lambda: f.inv(2), lambda: f.is_subfield([1, 2]), lambda: power(f, 2, -1)):
        with pytest.raises(StructureError, match=message):
            ask()
    g = FiniteThreeField(roster_field("odd(8)").carrier, 0, check=False)
    assert [g.inv(x) for x in g.elements()] == [0, 1, 2, 3]     # odd squares are 1 mod 8


@pytest.mark.parametrize("check", list(CHECK_MODES))
def test_only_the_scanning_modes_reject_a_scan_only_failure(check):
    # nu of a relabelled odd(16) with the multiplication of F0(4) passes every
    # cheap invariant; distributivity fails, and only the scan can say so
    odd16, f4 = roster_field("odd(16)"), roster_field("F0(4)")
    relabelled = relabel(odd16.carrier, np.random.default_rng(5).permutation(odd16.n))
    carrier = with_tables(relabelled, mu=f4.carrier.mu)
    if check == "light":
        CHECK_MODES[check](carrier, f4.one)
    else:
        with pytest.raises(StructureError, match="distributivity fails: law 1"):
            CHECK_MODES[check](carrier, f4.one)


def test_auto_construction_runs_each_invariant_once():
    c = with_tables(roster_field("odd(32)").carrier)    # no retract cached yet

    def counting(name):
        return mock.patch.object(tk, name, wraps=getattr(tk, name))

    with counting("_closure") as closure, counting("_nu_invariants") as nu_inv, \
            counting("_mu_invariants") as mu_inv, counting("_zero_element") as zero, \
            counting("_coset_retract") as retract, counting("_is_coset_form") as coset, \
            counting("_distrib_certificate") as distrib, \
            counting("_assoc_violation") as assoc:
        FiniteThreeField(c, 0, check="auto")
    assert closure.call_count == 2                  # nu, then mu
    # the invariants pass by the certified retract and Light's test: no
    # walk, which runs only to name a failure (next test)
    assert nu_inv.call_count == mu_inv.call_count == assoc.call_count == 0
    assert zero.call_count == 0                     # a 3-field's group mu has no zero
    # the nu invariants and both decisions read the carrier's retract, so
    # the coset form of nu is checked once
    assert retract.call_count == coset.call_count == distrib.call_count == 1


@pytest.mark.parametrize("law", ["nu", "mu"])
def test_a_failing_invariant_is_walked_once(law):
    # the certificate fails, so the walk names the failure, once per
    # carrier: construction and both checkers read the one verdict
    f = roster_field("odd(16)")
    c = (_non_symmetric_nu if law == "nu" else _non_associative_mu)(f.carrier)
    failing, passing = ("_nu_invariants", "_mu_invariants")[::1 if law == "nu" else -1]
    with mock.patch.object(tk, failing, wraps=getattr(tk, failing)) as walked, \
            mock.patch.object(tk, passing, wraps=getattr(tk, passing)) as other:
        with pytest.raises(StructureError) as raised:
            FiniteThreeField(c, f.one, check="auto")
        v = check_ternary_group(c) if law == "nu" else check_distributivity(c)
    assert walked.call_count == 1 and other.call_count == 0
    assert not v and v.method == "cheap" and str(raised.value) == v.detail
    assert v.axiom == ("commutativity" if law == "nu" else "mu-associativity")


@pytest.mark.parametrize("first", [check_ternary_group, check_distributivity])
def test_both_checkers_on_one_carrier_check_the_coset_form_once(first):
    c = with_tables(roster_field("odd(32)").carrier)
    second = check_distributivity if first is check_ternary_group else check_ternary_group
    with mock.patch.object(tk, "_is_coset_form", wraps=tk._is_coset_form) as coset:
        assert first(c, limit=c.n).method == "certificate"
        assert coset.call_count == 1                # either checker alone checks it
        assert second(c, limit=c.n).method == "certificate"
        FiniteThreeField(c, 0, check="auto")
    assert coset.call_count == 1


def test_standalone_distributivity_check_still_checks_the_coset_form():
    c = with_tables(roster_field("odd(32)").carrier)
    with mock.patch.object(tk, "_is_coset_form", wraps=tk._is_coset_form) as coset:
        assert check_distributivity(c, limit=c.n).method == "certificate"
    assert coset.call_count == 1
    # a nu that is not of coset form has no retract, and the scan decides
    bad = with_tables(c, nu=np.random.default_rng(3).permutation(c.n).astype(np.int32)[c.nu])
    assert bad.retract is None and split_assoc_certificate(bad.nu) is None
    assert not split_distrib_certificate(bad.nu, bad.mu)
    assert check_distributivity(bad, limit=bad.n).method == "scan"


def test_check_distributivity_builds_no_second_ternary_product():
    c = roster_field("odd(16)").carrier
    assert check_distributivity(c, limit=c.n).method == "certificate"
    with scan_only():
        assert check_distributivity(c, limit=c.n).method == "scan"


# -- sub-tables against their scalar definitions ------------------------------

def reference_subset_carrier(field, indices):
    """The restriction built one cell at a time: (labels, nu, mu), FOREIGN
    where a result leaves the subset."""
    back = {g: s for s, g in enumerate(indices)}
    n = len(indices)
    nu = np.empty((n, n, n), dtype=np.int32)
    mu = np.empty((n, n), dtype=np.int32)
    for (a, ga), (b, gb) in itertools.product(enumerate(indices), repeat=2):
        mu[a, b] = back.get(field.mu(ga, gb), tk.FOREIGN)
        for c, gc in enumerate(indices):
            nu[a, b, c] = back.get(field.nu(ga, gb, gc), tk.FOREIGN)
    return [field.label(g) for g in indices], nu, mu


def assert_subset_carrier_matches_the_gather(field, indices):
    """subset_carrier against the dense gather of the subset's tables: the
    same labels, tables, retract and retract generators on a closed subset,
    a refusal on one that is not; and the closure test on the retract
    tables against the one on the gathered cube.  Returns whether the
    subset is closed under nu, and whether under nu and mu."""
    dense = gathered_subset_carrier(field, indices)
    s = np.asarray(indices, dtype=np.intp)
    o, k, mu = field._restriction(s, tk._positions(s, field.n))
    nu_closed = dense.nu.min() >= 0
    assert (k != tk.FOREIGN and o.min() >= 0) == nu_closed
    if nu_closed:           # a coset of an additive subgroup, re-based at s[0]
        assert dense.retract[1] == k and (dense.retract[0] == o).all()
    closed = nu_closed and dense.mu.min() >= 0
    assert tk._closed(o, k, mu) == closed
    if not closed:
        with pytest.raises(StructureError, match="^the subset is not closed under nu and mu$"):
            field.subset_carrier(indices)
        return nu_closed, False
    c = field.subset_carrier(indices)
    assert c.labels == dense.labels
    assert (c.nu == dense.nu).all() and (c.mu == dense.mu).all()
    assert c.retract[1] == dense.retract[1] and (c.retract[0] == dense.retract[0]).all()
    assert (c.retract_generators == dense.retract_generators).all()
    return True, True


def reference_is_subfield(field, indices):
    s = set(indices)
    return field.one in s and all(
        field.inv(a) in s and field.mu(a, b) in s
        and all(field.nu(a, b, c) in s for c in s)
        for a in s for b in s)


def cyclic_subgroup(field, t):
    """The powers of t: closed under mu and inverses, not always under nu."""
    out = [field.one]
    while field.mu(out[-1], t) != field.one:
        out.append(field.mu(out[-1], t))
    return out


def random_subsets(field, count, seed):
    """Random index lists in random order, plus the closures of single
    elements, which are subfields, and the powers of every element."""
    rng = np.random.default_rng(seed)
    out = [rng.permutation(field.n)[:rng.integers(1, min(field.n, 12) + 1)].tolist()
           for _ in range(count)]
    return (out + [generated_subalgebra(field, [t])[0]
                   for t in range(0, field.n, max(1, field.n // 8))]
            + [cyclic_subgroup(field, t) for t in range(field.n)])


@pytest.mark.parametrize("name", ["F0(4)", "F0(5)", "odd(32)"])
def test_subset_carrier_matches_reference(name):
    # the gather oracle against the scalar one, FOREIGN entries included,
    # then the sub-carrier against the gather
    f = roster_field(name)
    closed = []
    for s in random_subsets(f, 20, seed=11):
        labels, nu, mu = reference_subset_carrier(f, s)
        dense = gathered_subset_carrier(f, s)
        assert list(dense.labels) == labels
        assert (dense.nu == nu).all() and (dense.mu == mu).all()
        closed.append(assert_subset_carrier_matches_the_gather(f, s)[1])
    assert any(closed) and not all(closed)


def test_retract_is_read_only_and_none_on_carriers_that_are_not_closed():
    f = roster_field("F0(4)")
    o, k = f.carrier.retract
    assert not o.flags.writeable
    carriers = [gathered_subset_carrier(f, s) for s in random_subsets(f, 20, seed=13)]
    not_closed = [c for c in carriers if c.nu.min() < 0]
    assert not_closed and all(c.retract is None for c in not_closed)


def test_is_subfield_matches_reference_on_every_subset_of_f0_3():
    f = roster_field("F0(3)")
    subsets = [list(s) for r in range(f.n + 1) for s in itertools.combinations(range(f.n), r)]
    assert len(subsets) == 16
    verdicts = [f.is_subfield(s) for s in subsets]
    assert verdicts == [reference_is_subfield(f, s) for s in subsets]
    assert sum(verdicts) == 3        # {1}, {1, x^2} and the whole field


def test_sub_carriers_match_the_gather_on_every_subset_of_f0_3():
    # each subset in both orders, so that each element is a base of the
    # retract read on it
    f = roster_field("F0(3)")
    subsets = [list(s) for r in range(1, f.n + 1) for s in itertools.combinations(range(f.n), r)]
    closed = [assert_subset_carrier_matches_the_gather(f, s[::step])
              for s in subsets for step in (1, -1)]
    # nu: every coset of a subgroup of the retract (Z/2)^2, so the 4 points,
    # the 6 pairs and the whole field; mu too: {1}, {1, x^2} and the field
    assert [sum(c) for c in zip(*closed)] == [2 * 11, 2 * 3]


def subsets_and_cosets(field, seed):
    """`random_subsets`, and cosets mu[t, S] of the subfields S it holds, in
    S's order, for random t: closed under nu, and unless t lies in S, not
    holding the unit."""
    subsets = random_subsets(field, 20, seed)
    rng = np.random.default_rng(seed)
    subfields = [s for s in subsets if reference_is_subfield(field, s)]
    return subsets + [field.carrier.mu[t, s].tolist()
                      for s in subfields for t in rng.integers(field.n, size=3)]


SUBFIELD_FIELDS = {
    "F0(5)": lambda: roster_field("F0(5)"),
    "odd(32)": lambda: roster_field("odd(32)"),
    # units at 15, 6 and 31: a subset holding the unit is rarely based at it
    "toeplitz_field(3, odd(4))": lambda: toeplitz_field(3, odd_residue_field(4)).field,
    "triangular_field(2, odd(4))": lambda: triangular_field(2, odd_residue_field(4)).field,
    "quaternion_field(odd(4))": lambda: quaternion_field(odd_residue_field(4)).field,
}


@pytest.mark.parametrize("name", list(SUBFIELD_FIELDS))
def test_sub_carriers_and_subfields_match_the_gather_on_subsets_and_cosets(name):
    f = SUBFIELD_FIELDS[name]()
    subsets = subsets_and_cosets(f, seed=17)
    closed = [assert_subset_carrier_matches_the_gather(f, s) for s in subsets]
    verdicts = [f.is_subfield(s) for s in subsets]
    assert verdicts == [reference_is_subfield(f, s) for s in subsets]
    # a subset closed under mu is a group, so every closed subset holds the
    # unit; the cosets of subfields outside them are closed under nu alone
    # (odd(32) has none: its only subset closed under nu is the whole field)
    assert [v for _, v in closed] == verdicts and any(verdicts)
    assert any(nu and not v for nu, v in closed) == (name != "odd(32)")


@pytest.mark.parametrize("bad,ask", [
    ("index -2", lambda f: f.is_subfield([0, -2])),   # -2 would wrap to x^2: {1, x^2} is a subfield
    ("index -2", lambda f: f.subset_carrier([0, -2])),
    ("index 9", lambda f: f.is_subfield([0, 9])),
    ("index -2", lambda f: twisted_coset(f, [0, -2], 1)),
    ("index -1", lambda f: twisted_coset(f, [0, 2], -1)),     # -1 would wrap to x^2+x+1
    ("index 4", lambda f: twisted_coset(f, [0, 2], 4)),
    ("target -2", lambda f: generated_subalgebra(f, [1, -2])),  # the same check
], ids=["is_subfield", "subset_carrier", "is_subfield-past-the-end", "twisted_coset",
        "twisted_coset-t", "twisted_coset-t-past-the-end", "generated_subalgebra"])
def test_indices_outside_the_field_are_refused(bad, ask):
    f = roster_field("F0(3)")
    with pytest.raises(StructureError, match=f"^{bad} is not an element of the 4-element field$"):
        ask(f)


def test_is_subfield_checks_the_inverses_when_mu_is_no_group():
    # an unchecked F0(3) whose mu has x x = x and x x^2 = x^2 x = 1: {1, x}
    # is closed under mu and nu, but the inverse of x lies outside it
    f = roster_field("F0(3)")
    mu = np.array([[0, 1, 2, 3], [1, 1, 0, 3], [2, 0, 3, 3], [3, 3, 3, 0]])
    g = FiniteThreeField(TernaryCarrier.from_retract(f.labels, *f.carrier.retract, mu),
                         f.one, check=False)
    assert g.inv(1) == 2 and gathered_subset_carrier(g, [0, 1]).mu.min() >= 0
    assert not g.is_subfield([0, 1]) and not reference_is_subfield(g, [0, 1])
    assert g.is_subfield([0, 1, 2, 3]) and reference_is_subfield(g, [0, 1, 2, 3])


def test_a_subset_carrier_needs_a_certified_retract():
    # nu of odd(16) under a permutation of its values: no coset form, so
    # no retract to read the subset's tables on
    f = roster_field("odd(16)")
    nu = np.random.default_rng(3).permutation(f.n).astype(np.int32)[f.carrier.nu]
    g = FiniteThreeField(with_tables(f.carrier, nu=nu), f.one, check=False)
    for ask in (lambda: g.subset_carrier([0]), lambda: g.is_subfield([0])):
        with pytest.raises(StructureError, match="certified retract"):
            ask()


@pytest.mark.parametrize("name", ["odd(16)", "F0(5)"])
def test_is_subfield_matches_reference_on_random_subsets(name):
    f = roster_field(name)
    subsets = random_subsets(f, 40, seed=12)
    verdicts = [f.is_subfield(s) for s in subsets]
    assert verdicts == [reference_is_subfield(f, s) for s in subsets]
    assert any(verdicts)
    # some group of powers is not closed under nu: only nu decides there
    assert not all(verdicts[-f.n:])


def reference_twisted_coset(field, f1, t):
    """The coset tables built one cell at a time; raises at the first cell,
    row-major, that leaves the coset, nu before the ternary product."""
    coset = sorted({field.mu(t, f) for f in f1})
    back = {g: s for s, g in enumerate(coset)}
    n = len(coset)
    nu = np.empty((n, n, n), dtype=np.int32)
    tmu = np.empty((n, n, n), dtype=np.int32)
    for (a, ga), (b, gb), (c, gc) in itertools.product(enumerate(coset), repeat=3):
        r = field.nu(ga, gb, gc)
        if r not in back:
            raise StructureError(
                f"coset not closed under nu: nu({field.label(ga)},"
                f"{field.label(gb)},{field.label(gc)}) = {field.label(r)}")
        nu[a, b, c] = back[r]
        m = field.mu(field.mu(ga, gb), gc)
        if m not in back:
            raise StructureError(
                f"coset not closed under the ternary product at "
                f"({field.label(ga)},{field.label(gb)},{field.label(gc)})")
        tmu[a, b, c] = back[m]
    return [field.label(g) for g in coset], nu, tmu


@functools.lru_cache(maxsize=None)
def triangular_f0_2():
    return triangular_field(2, build_f0(2)).field


def test_twisted_coset_matches_reference_over_every_subfield():
    f = triangular_f0_2()
    subfields = sorted({tuple(generated_subalgebra(f, [a, b])[0])
                        for a in range(f.n) for b in range(a, f.n)})
    messages, cosets = set(), 0
    for sub in subfields:
        for t in range(f.n):
            if t in sub or f.mu(t, t) not in sub:
                continue
            try:
                expected = reference_twisted_coset(f, sub, t)
            except StructureError as exc:
                with pytest.raises(StructureError) as got:
                    twisted_coset(f, sub, t)
                assert str(got.value) == str(exc)
                messages.add(str(exc))
                continue
            try:
                coset = twisted_coset(f, sub, t)
            except StructureError as exc:        # a unit: not a proper (3,3)-field
                assert "multiplicative unit" in str(exc)
                continue
            labels, nu, tmu = expected
            assert list(coset.labels) == labels
            assert (coset.nu == nu).all() and (coset.mu == tmu).all()
            # a carrier whose mu is genuinely ternary and that decides as
            # the split certificates did; its genuine product is certified
            # on the certified retract, and scanned without one
            assert isinstance(coset, TernaryCarrier) and coset.mu.ndim == 3
            certified = split_assoc_certificate(coset.nu) is not None
            assert (coset.retract is not None) == certified
            v_add, v_mul = check_ternary_group(coset), check_distributivity(coset)
            assert v_add and v_add.method == ("certificate" if certified else "scan")
            assert v_mul and v_mul.method == ("certificate" if certified else "scan")
            cosets += 1
    assert len(messages) == 16 and cosets == 8


@pytest.mark.parametrize("sub,t,witness", [
    (["[1;1,1]", "[1;q(1),1]"], "[1;q(1),x]", "[1;x,x],[1;x,x],[1;x,x]"),
    (["[1;q(1),1]", "[1;q(1),x]"], "[1;1,1]", "[1;1,1],[1;1,x],[1;1,1]"),
    (["[1;q(1),1]", "[1;q(x),x]"], "[x;1,x]", "[x;1,x],[x;x,1],[x;1,x]"),
    (["[1;q(1),1]", "[x;1,x]"], "[1;q(1),x]", "[1;q(1),x],[x;x,1],[1;q(1),x]"),
    (["[1;q(1),1]", "[x;q(x),1]"], "[1;x,1]", "[1;x,1],[x;x,1],[1;x,1]"),
])
def test_twisted_coset_closure_failures_name_the_least_cell(sub, t, witness):
    f = triangular_f0_2()
    with pytest.raises(StructureError) as got:
        twisted_coset(f, generated_subalgebra(f, [f.index(s) for s in sub])[0], f.index(t))
    assert str(got.value) == f"coset not closed under the ternary product at ({witness})"


# -- one product table: a coset's mu is genuinely ternary ------------------------

@functools.lru_cache(maxsize=None)
def proper_cosets():
    """The 8 proper (3,3)-fields t*F1 over the subfields of the triangular
    field, as in test_twisted_coset_matches_reference_over_every_subfield,
    and x*{1,x^2} in F0(3)."""
    f = triangular_f0_2()
    subfields = sorted({tuple(generated_subalgebra(f, [a, b])[0])
                        for a in range(f.n) for b in range(a, f.n)})
    cosets = []
    for sub in subfields:
        for t in range(f.n):
            if t in sub or f.mu(t, t) not in sub:
                continue
            try:
                cosets.append(twisted_coset(f, sub, t))
            except StructureError:
                pass
    assert len(cosets) == 8
    f3 = build_f0(3)
    cosets.append(twisted_coset(f3, [f3.index("1"), f3.index("x^2")], f3.index("x")))
    return tuple(cosets)


def unchecked_coset(labels, nu, mu):
    """A carrier shaped as a proper (3,3)-field, (n,n,n) mu, but unvalidated."""
    c = object.__new__(ProperThreeThreeField)
    TernaryCarrier.__init__(c, labels, nu, mu)
    return c


def checked(carrier):
    """Both checkers' reports and methods and the derived structure."""
    v_add, v_mul = check_ternary_group(carrier), check_distributivity(carrier)
    return (verdict_dict(v_add), v_add.method, verdict_dict(v_mul), v_mul.method,
            detect_derived_structure(carrier))


def test_a_coset_keeps_its_genuine_product_in_mu():
    for coset in proper_cosets():
        assert coset.product_axes == 3 and coset.mu.shape == (coset.n,) * 3
        assert not hasattr(coset, "ternary_mu")
        with pytest.raises(StructureError, match="^carrier has no binary multiplication$"):
            derived_ternary_mu(coset)
    assert TernaryCarrier.product_axes == 2
    assert list(inspect.signature(ProperThreeThreeField).parameters) == ["labels", "nu", "mu"]


def test_coset_checks_are_the_ones_of_a_genuine_product():
    # the coset's nu is certified, and so is its product on that retract;
    # it has neither a unit nor a zero
    for coset in proper_cosets():
        assert checked(coset) == (PASS, "certificate", PASS, "certificate",
                                  {"unit": None, "zero": None})


def test_broken_coset_products_get_the_scan_verdict():
    # one cell of the product moved: each law fails on some coset
    rng, laws = np.random.default_rng(15), set()
    for coset in proper_cosets():
        for _ in range(3):
            mu = coset.mu.copy()
            cell = tuple(rng.integers(coset.n, size=3))
            mu[cell] = (mu[cell] + 1) % coset.n
            broken = unchecked_coset(coset.labels, coset.nu, mu)
            v = check_distributivity(broken)
            w = tk._distrib_scan(broken.nu, broken.mu)
            assert detect_derived_structure(broken) == whole_cube_derived_structure(broken)
            if w is None:               # the coset's certified retract decides
                assert verdict_dict(v) == PASS and v.method == "certificate"
                continue
            law, *abcde = w
            assert verdict_dict(v) == {
                "ok": False, "axiom": f"distributivity-law-{law}", "witness": abcde,
                "detail": f"law {law} fails at ({','.join(broken.labels[i] for i in abcde)})"}
            assert v.method == "scan"
            laws.add(law)
        mu = coset.mu.copy()
        mu[0, 1, 1] = tk.FOREIGN
        open_coset = unchecked_coset(coset.labels, coset.nu, mu)
        v = check_distributivity(open_coset)
        assert v.axiom == "closure" and v.witness == (0, 1, 1) and v.method == "cheap"
        assert detect_derived_structure(open_coset) == {"unit": None, "zero": None}
    assert laws == {1, 2, 3}


def assert_ternary_certificate_is_the_scan(c):
    passed = tk._distrib_certificate(c)
    w = tk._distrib_scan(c.nu, c.mu)
    assert passed == (w is None)
    return passed, w


def test_the_ternary_certificate_is_the_scan_on_cosets_and_their_mutants():
    # on a certified retract, the 3n^2 translations of a ternary mu being
    # affine is exactly the three laws: the certificate passes iff the scan
    # finds no witness, on every coset with any one cell of mu moved
    outcomes = set()
    for coset in proper_cosets():
        assert coset.retract is not None
        for cell in itertools.product(range(coset.n), repeat=3):
            for shift in range(coset.n):
                mu = coset.mu.copy()
                mu[cell] = (mu[cell] + shift) % coset.n
                passed, _ = assert_ternary_certificate_is_the_scan(
                    unchecked_coset(coset.labels, coset.nu, mu))
                outcomes.add((passed, shift == 0))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_a_certified_ternary_product_is_one_the_scan_passes():
    # a proper (3,3)-field's mu of coset form is totally associative, so
    # the scan runs only where the certificate fails, and every coset and
    # one-cell mutant is refused as it is with the scan alone
    outcomes = set()
    for coset in proper_cosets():
        for cell in itertools.product(range(coset.n), repeat=3):
            for shift in range(coset.n):
                mu = coset.mu.copy()
                mu[cell] = (mu[cell] + shift) % coset.n
                certified = tk._coset_retract(mu) is not None
                w = tk._assoc_scan(mu)
                assert not (certified and w is not None)
                outcomes.add((certified, w is None))
                messages = []
                for patch in (contextlib.nullcontext(),
                              mock.patch.object(tk, "_coset_retract", lambda t: None)):
                    with patch:
                        try:
                            ProperThreeThreeField(coset.labels, coset.nu, mu)
                            messages.append(None)
                        except StructureError as exc:
                            messages.append(str(exc))
                assert messages[0] == messages[1]
                if w is not None:
                    assert messages[0].startswith("ternary multiplication not associative")
    # each coset is commutative, and no mutant the scan passes escapes the
    # certificate
    assert outcomes == {(True, True), (False, False)}


@pytest.mark.parametrize("t", [25, 29, 40])
def test_a_noncommutative_coset_is_decided_by_the_scan(t):
    # in the 64-element triangular field T4(F0(1)) the coset t*F1 over the
    # subfield generated by element 10 has a ternary mu that is not
    # symmetric, so it has no coset form: its associativity is the scan's,
    # which passes it once, and every one-cell mutant of mu, none of which
    # has a unit, fails with the scan's least witness
    f = triangular_field(4, build_f0(1)).field
    sub = generated_subalgebra(f, [10])[0]
    assert len(sub) == 4
    with mock.patch.object(tk, "_assoc_scan", wraps=tk._assoc_scan) as scan:
        coset = twisted_coset(f, sub, t)
    assert not (coset.mu == coset.mu.transpose(1, 0, 2)).all()
    assert tk._coset_retract(coset.mu) is None
    assert scan.call_count == 1 and scan.call_args.args[0] is coset.mu
    assert tk._assoc_scan(coset.mu) is None
    for cell in itertools.product(range(coset.n), repeat=3):
        for shift in range(1, coset.n):
            mu = coset.mu.copy()
            mu[cell] = (mu[cell] + shift) % coset.n
            w = tk._assoc_scan(mu)
            assert w is not None and not tk._ternary_units(mu)
            with pytest.raises(StructureError) as exc:
                ProperThreeThreeField(coset.labels, coset.nu, mu)
            assert str(exc.value) == f"ternary multiplication not associative at {w}"


def test_the_ternary_certificate_tests_each_place_and_the_affine_constant():
    # mu with one argument place read through a map s: only that place's
    # law can break.  Random maps s break additivity; on the ternary
    # product of odd(2^k), whose retract has 1 + 1 != 0, the shift
    # x -> x o 1 keeps additivity and breaks the affine constant alone
    rng = np.random.default_rng(20)
    laws = set()
    carriers = [*proper_cosets(), *(with_tables(roster_field(name).carrier)
                                    for name in ("odd(8)", "odd(16)"))]
    for carrier in carriers:
        o = carrier.retract[0]
        mu = carrier.mu if carrier.mu.ndim == 3 else derived_ternary_mu(carrier)
        maps = [("shift", o[:, 1]),
                *(("random", s) for s in rng.integers(0, carrier.n, size=(4, carrier.n)))]
        for place in range(3):
            for kind, s in maps:
                moved = unchecked_coset(carrier.labels, carrier.nu, np.take(mu, s, axis=place))
                _, w = assert_ternary_certificate_is_the_scan(moved)
                if w is not None:
                    assert w[0] == place + 1
                    laws.add((kind, w[0]))
    assert laws == {(kind, law) for kind in ("shift", "random") for law in (1, 2, 3)}


def test_the_retract_generators_are_found_once_per_carrier():
    # the certificate, the carrier's generator sets and every Morphism read
    # one generating set of o
    f = roster_field("F0(5)")
    c = with_tables(f.carrier)
    with mock.patch.object(tk, "_generators", wraps=tk._generators) as found:
        g = FiniteThreeField(c, f.one, check="auto")
        for _ in range(2):
            Morphism(g, g, range(g.n))
            assert check_distributivity(c).method == "certificate"
    assert found.call_count == 2                       # o, then mu
    (o_searched,), (mu_searched,) = (call.args for call in found.call_args_list)
    assert o_searched is c.retract[0] and mu_searched is c.mu
    gens = c.generators
    assert gens[0] is c.retract_generators and gens[1] is c.mu_generators


def test_cosets_round_trip_through_json():
    for coset in proper_cosets():
        doc = json.loads(json.dumps(coset.to_json()))
        assert doc["elements"] == list(coset.labels) and len(doc["mu"]) == coset.n ** 3
        back = ProperThreeThreeField.from_json(doc)
        assert back.labels == coset.labels
        assert (back.nu == coset.nu).all() and (back.mu == coset.mu).all()
        assert checked(back) == checked(coset)


def test_a_wrongly_sized_table_in_a_document_is_refused():
    doc = build_f0(2).to_json()                         # a binary mu of 4 entries
    with pytest.raises(StructureError, match=r"^mu table must have shape \(2, 2, 2\): "
                                             "got 4 entries$"):
        ProperThreeThreeField.from_json(doc)
    doc["nu"].pop()
    for cls in (TernaryCarrier, ProperThreeThreeField):
        with pytest.raises(StructureError, match=r"^nu table must have shape \(2, 2, 2\): "
                                                 "got 7 entries$"):
            cls.from_json(doc)


def test_a_coset_from_json_is_validated():
    coset = proper_cosets()[0]
    doc = coset.to_json()
    doc["mu"][coset.n + 1] = -1                          # mu(0,1,1) leaves the coset
    with pytest.raises(StructureError, match=r"^operations must be closed: mu\("):
        ProperThreeThreeField.from_json(doc)
    doc["mu"] = None
    with pytest.raises(StructureError, match="^a proper \\(3,3\\)-field needs a ternary "):
        ProperThreeThreeField.from_json(doc)


@pytest.mark.parametrize("check", ["light", "auto"])
def test_a_coset_is_no_carrier_of_a_3_field(check):
    for coset in proper_cosets():
        with pytest.raises(StructureError, match="^a 3-field needs a binary multiplication$"):
            FiniteThreeField(coset, 0, check=check)


# -- the check argument ---------------------------------------------------------

@pytest.mark.parametrize("check", ["lite", "none", True, None, "Auto", "full"])
def test_unknown_check_value_is_rejected(odd8, check):
    with pytest.raises(ValueError, match="^check must be False, 'light' or 'auto', not "):
        FiniteThreeField(odd8.carrier, odd8.one, check=check)


def test_light_product_certifies_its_retract_once():
    # its nu invariants pass by the certified retract, which the product
    # then carries; the unchecked free field it is compared with certifies
    # its own retract when the isomorphism's Morphism reads it; both are
    # born from their retracts, so each certificate checks o alone
    f1, f3 = build_f0(1), build_f0(3)
    with mock.patch.object(tk, "_retract_certificate",
                           wraps=tk._retract_certificate) as retract, \
            mock.patch.object(tk, "_coset_retract", wraps=tk._coset_retract) as cube:
        product = product_field(f1, f3, check="light").field
        assert product.carrier.retract is not None
    assert retract.call_count == 2 and cube.call_count == 0
    first, second = (call.args[0] for call in retract.call_args_list)
    assert first is product.carrier.retract[0] and second is not first
    assert "nu" not in vars(product.carrier)           # no cube was built
