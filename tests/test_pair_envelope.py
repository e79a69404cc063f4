"""Enveloping rings, pairs, morphisms, ideals and quotients."""

import functools
import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from ternfield import (
    EnvelopeRing,
    Morphism,
    RingMorphism,
    RingTable,
    StructureError,
    build_envelope,
    build_f0,
    embedding_criterion,
    evenly_maximal_check,
    field_isomorphism,
    lift_morphism,
    odd_residue_field,
    product_field,
    quotient_by_ideal,
    residue_ring,
    retract_addition,
    ring_isomorphism,
    toeplitz_field,
    triangular_field,
    units_as_3field,
    verify_local,
)
from ternfield.pair_envelope import (
    IdealHandle,
    QuotientNotFieldError,
    ThreeRingMap,
    _close_map,
    universal_extension,
)
from ternfield import pair_envelope, ternary_kernel
from ternfield.automorphisms import automorphism_group, composition_table, truncation_morphism
from ternfield.ternary_kernel import (
    FiniteThreeField,
    TernaryCarrier,
    check_distributivity,
    check_ternary_group,
)

from oracles import (
    FIELDS,
    Pair,
    mask_path,
    one_image_mutants,
    pair_add,
    pair_mul,
    pair_zero,
    relabel,
    ring_walk_error,
    standard_form,
    whole_cube_assoc_witness,
)


@pytest.fixture(scope="module")
def f8():
    return odd_residue_field(8)


@pytest.fixture(scope="module")
def env8(f8):
    return build_envelope(f8)


# -- envelope construction ----------------------------------------------------

@pytest.mark.parametrize("modulus", [2, 4, 8, 16, 32])
def test_envelope_has_twice_the_elements(modulus):
    f = odd_residue_field(modulus)
    env = build_envelope(f)
    assert env.n == 2 * f.n
    assert env.labels[:f.n] == f.labels
    assert all(lab.startswith("q(") for lab in env.labels[f.n:])


def test_envelope_is_a_validated_ring(env8):
    env8.validate_ring()  # raises on any failure
    assert env8.zero == env8.pair_index(env8.base.quer(env8.base.one))


def z8_mutant(add_cells=(), mul_cells=(), one=1, mul_relabel=None):
    """(labels, add, mul, zero, one) of Z/8 with the given (i, j, value)
    cells set, or mul relabelled by an involution fixing 0 and 1."""
    z8 = residue_ring(8)
    add, mul = z8.add.copy(), z8.mul.copy()
    for i, j, v in add_cells:
        add[i, j] = v
    for i, j, v in mul_cells:
        mul[i, j] = v
    if mul_relabel is not None:
        s = np.array(mul_relabel)
        mul = s[mul[np.ix_(s, s)]]
    return z8.labels, add, mul, 0, one


def maps_of_z2():
    """The four maps f of Z/2, as (f(0), f(1)), under pointwise addition and
    f*g = g o f: associative with the identity map as unit, and
    f*(g+h) = f*g + f*h, but (f+g)*h = h o (f+g) fails for a constant h."""
    maps = [(0, 0), (0, 1), (1, 0), (1, 1)]
    add = [[maps.index((f[0] ^ g[0], f[1] ^ g[1])) for g in maps] for f in maps]
    mul = [[maps.index((g[f[0]], g[f[1]])) for g in maps] for f in maps]
    return "0abc", add, mul, 0, 1


# Each law of validate_ring failing first.  One changed cell reaches the first
# four and multiplicative associativity; a Latin addition needs the four
# cells of an intercalate, the unit a wrong index, and left distributivity a
# relabelled multiplication.  Right distributivity cannot fail first on Z/8:
# on a cyclic additive group a unital, associative and left distributive
# multiplication is the ring's, so the maps of Z/2 stand in.
RING_MUTANTS = {
    "addition is not commutative": lambda: z8_mutant(add_cells=[(1, 2, 4)]),
    "zero is not an additive neutral": lambda: z8_mutant(add_cells=[(0, 0, 1)]),
    "addition rows are not permutations": lambda: z8_mutant(add_cells=[(1, 1, 3)]),
    "addition is not associative": lambda: z8_mutant(
        add_cells=[(1, 1, 6), (5, 5, 6), (1, 5, 2), (5, 1, 2)]),
    "multiplication is not associative": lambda: z8_mutant(mul_cells=[(2, 3, 7)]),
    "one is not a two-sided unit": lambda: z8_mutant(one=3),
    "left distributivity fails": lambda: z8_mutant(mul_relabel=[0, 1, 2, 3, 4, 7, 6, 5]),
    "right distributivity fails": maps_of_z2,
}


def walk_only(monkeypatch):
    """No carrier has generator sets, so every map out of a 3-field is
    walked.  The property outranks any generator sets a carrier read
    before."""
    monkeypatch.setattr(TernaryCarrier, "generators", property(lambda self: None))


def counting(module, name):
    return mock.patch.object(module, name, wraps=getattr(module, name))


def ring_error(tables):
    try:
        RingTable(*tables)
    except StructureError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("message", list(RING_MUTANTS))
def test_each_ring_law_reports_its_own_failure(message, block, monkeypatch):
    if block:                                   # at most 8 entries per chunk
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    with pytest.raises(StructureError, match=f"^{message}$"):
        RingTable(*RING_MUTANTS[message]())


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("message", list(RING_MUTANTS))
def test_each_ring_law_reports_its_own_failure_on_the_walk(message, block, monkeypatch):
    # the walk oracle names the same law, and an unchecked ring keeps it as
    # its proof's failure, decided on first read
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    ring = RingTable(*RING_MUTANTS[message](), check=False)
    assert ring_walk_error(ring) == ring._failure == message


@pytest.mark.parametrize("name", ["T2(F0(2))", "T2(odd(4))"])
def test_noncommutative_envelopes_validate_on_generators_as_on_the_walk(name):
    # the 32-element envelope of a noncommutative field, and mutants of its
    # multiplication: one cell moved, or conjugated by a permutation fixing
    # zero and one.  The generators must pass the envelope, and every
    # verdict must be the walk's
    env = build_envelope(FIELDS[name](check="auto"))
    assert env.n == 32 and not (env.mul == env.mul.T).all()
    rng = np.random.default_rng(env.n)
    muls = [env.mul]
    for _ in range(24):
        mul = env.mul.copy()
        i, j = rng.integers(0, env.n, size=2)
        mul[i, j] = (mul[i, j] + rng.integers(1, env.n)) % env.n
        muls.append(mul)
    rest = np.setdiff1d(np.arange(env.n), [env.zero, env.one])
    for _ in range(8):
        sigma = np.arange(env.n)
        sigma[rest] = rng.permutation(rest)
        inv = np.argsort(sigma)
        muls.append(sigma[env.mul[np.ix_(inv, inv)]])
    tables = [(env.labels, env.add, mul, env.zero, env.one) for mul in muls]
    fast = [ring_error(t) for t in tables]
    assert fast == [ring_walk_error(RingTable(*t, check=False)) for t in tables]
    assert fast[0] is None
    assert {"multiplication is not associative", "left distributivity fails"} <= set(fast)


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("route", ["generators", "walk"])
def test_a_valid_ring_keeps_its_proof_only_from_the_generators(route, block, monkeypatch):
    # a ring's proof walks no n^3 cells, checked at construction or
    # unchecked and read later: every chunk walk it starts is over rows of
    # n entries (addition's rows being permutations).  The walk oracle
    # passes the same rings with both associativities walked
    if block:                                   # the stacked rows and columns in chunks
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    f4 = build_f0(4)
    build = lambda: [residue_ring(1), residue_ring(8), build_envelope(f4)]
    rings = build()
    unchecked = [RingTable(r.labels, r.add, r.mul, r.zero, r.one, check=False) for r in rings]
    with counting(ternary_kernel, "_first_violation") as chunked, \
            counting(ternary_kernel, "_assoc_violation") as assoc:
        if route == "generators":
            build()
            assert all(r._failure is None for r in unchecked)
        else:
            assert [ring_walk_error(r) for r in unchecked] == [None] * len(rings)
    assert assoc.call_count == (0 if route == "generators" else 2 * len(rings))
    widths = {c.args[1] for c in chunked.call_args_list}
    assert widths <= ({r.n for r in rings} if route == "generators"
                      else {r.n for r in rings} | {r.n ** 2 for r in rings})


def test_an_unproven_ring_is_walked_into():
    # above the guard the guard is the proof's failure; and a map into a
    # ring whose proof fails (the maps of Z/2 under composition: right
    # distributivity) walks both laws
    with pytest.raises(StructureError, match="^ring size 514 exceeds the validation guard$"):
        residue_ring(514)
    vals = np.arange(514)
    big = RingTable(vals, np.add.outer(vals, vals) % 514, np.multiply.outer(vals, vals) % 514,
                    0, 1, check=False)
    assert ring_walk_error(big) == big._failure == "ring size 514 exceeds the validation guard"
    maps = RingTable(*maps_of_z2(), check=False)
    with counting(pair_envelope, "_map_violation") as walked:
        ThreeRingMap(build_f0(1), maps, [maps.one])
    assert walked.call_count == 2 and maps._failure == "right distributivity fails"


def test_a_checked_envelope_walks_no_associativity_and_no_embedding():
    f = build_f0(5)                              # built with its retract decided
    with counting(ternary_kernel, "_assoc_violation") as assoc, \
            counting(pair_envelope, "_map_violation") as walked:
        env = build_envelope(f)
    assert assoc.call_count == 0 and env._failure is None
    # the embedding of the base is checked on generators; the parity
    # grading onto Z/2 stays two walks
    assert walked.call_count == 2


def test_an_unchecked_ring_is_proved_when_a_map_first_reads_it():
    # valid tables built unchecked: the first ThreeRingMap proves the ring
    # and takes the generator route, walking nothing
    f = build_f0(5)
    env = build_envelope(f, check=False)
    assert "_failure" not in vars(env)
    with counting(pair_envelope, "_map_violation") as walked:
        ThreeRingMap(f, env, range(f.n))
        with pytest.raises(StructureError, match="^products are not preserved$"):
            ThreeRingMap(f, env, swapped_coordinates(f))
    assert walked.call_count == 0 and env._failure is None


def ring_mutants(ring, rng, count):
    """`count` seeded mutants of the ring's tables (labels, add, mul, zero,
    one): one cell of add or of mul moved, add relabelled by a permutation
    fixing zero, mul by one fixing zero and one, or an intercalate of add
    swapped with its transpose, which leaves a commutative loop."""
    n, zero = ring.n, ring.zero
    halves = np.flatnonzero((np.diag(ring.add) == zero) & (np.arange(n) != zero))
    out = []
    for kind in rng.integers(0, 5, size=count):
        add, mul = ring.add.copy(), ring.mul.copy()
        if kind == 4:
            # rows {x, x+d} and columns {y, y+d}, d of order 2, hold two
            # values crosswise: exchanging them keeps every row a permutation
            d = rng.choice(halves)
            while True:
                x, y = rng.integers(0, n, size=2)
                rows, cols = [x, add[x, d]], [y, add[y, d]]
                if zero not in rows + cols and not set(rows) & set(cols):
                    break
            for block in (np.ix_(rows, cols), np.ix_(cols, rows)):
                add[block] = add[block][::-1]
        elif kind < 2:
            table = add if kind == 0 else mul
            i, j = rng.integers(0, n, size=2)
            table[i, j] = (table[i, j] + rng.integers(1, n)) % n
        else:
            fixed = [zero] if kind == 2 else [zero, ring.one]
            rest = np.setdiff1d(np.arange(n), fixed)
            sigma = np.arange(n)
            sigma[rest] = rng.permutation(rest)
            inv = np.argsort(sigma)
            if kind == 2:
                add = sigma[add[np.ix_(inv, inv)]]
            else:
                mul = sigma[mul[np.ix_(inv, inv)]]
        out.append((ring.labels, add, mul, zero, ring.one))
    return out


def distributive_nonassociative():
    """(labels, add, mul, zero, one) of GF(2)^3 over the basis 1, u, v
    (bits 0, 1, 2), multiplied bilinearly with u*u = v, u*v = 1 and v*u =
    v*v = 0: both distributive laws hold, and (uu)u = 0 != 1 = u(uu)."""
    basis = [[1, 2, 4], [2, 4, 1], [4, 0, 0]]        # e_i * e_j as a bit mask
    x = np.arange(8)
    mul = np.zeros((8, 8), dtype=np.int64)
    for i in range(3):
        for j in range(3):                            # every x with bit i times y with bit j
            mul[np.ix_(x >> i & 1 == 1, x >> j & 1 == 1)] ^= basis[i][j]
    return "01234567", x ^ x[:, None], mul, 0, 1


def test_every_ring_verdict_on_generators_is_the_walks():
    # the proof on generators against the walk oracle: every RING_MUTANTS
    # law, a distributive ring that is not associative (so mul's
    # associativity is decided on A^3), and seeded one-cell and relabelled
    # mutants of residue rings and of envelopes, commutative and not
    rings = [residue_ring(8), residue_ring(12), residue_ring(16),
             *(build_envelope(FIELDS[name](check="auto"))
               for name in ("F0(3)", "odd(8)", "F0(2,2)", "T2(odd(4))"))]
    rng = np.random.default_rng(29)
    cases = [make() for make in RING_MUTANTS.values()]
    assert ring_error(distributive_nonassociative()) == "multiplication is not associative"
    cases.append(distributive_nonassociative())
    for ring in rings:
        cases += ring_mutants(ring, rng, 160)
    seen = []
    for tables in cases:
        want = ring_walk_error(RingTable(*tables, check=False))
        assert ring_error(tables) == want, tables
        seen.append(want)
    assert len(cases) >= 1000
    assert set(seen) == {None, *RING_MUTANTS}


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("kind,message", [
    ("ragged", "table is ragged: its rows differ in length"),
    ("strings", "table entries must be integers"),
    ("floats", "table entries must be integers")])
def test_ring_tables_of_other_than_integers_are_refused(kind, message, table, check):
    labels, add, mul, zero, one = z8_mutant()
    tables = {"add": add.tolist(), "mul": mul.tolist()}
    rows = tables[table]
    if kind == "ragged":
        rows[-1].pop()
    else:
        tables[table] = [[f"{v}a" if kind == "strings" else v + 0.25 for v in row]
                         for row in rows]
    with pytest.raises(StructureError, match=f"^{table} {message}$"):
        RingTable(labels, tables["add"], tables["mul"], zero, one, check=check)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("table,value", [("add", 8), ("add", -1), ("mul", 8),
                                         ("mul", -3)])
def test_ring_table_entries_outside_the_carrier_are_refused(table, value, check):
    # even unchecked: every law and lookup indexes by the entries
    labels, add, mul, zero, one = z8_mutant(**{f"{table}_cells": [(3, 3, value)]})
    with pytest.raises(StructureError, match=rf"^{table} table entries must lie in \[0, 8\)$"):
        RingTable(labels, add, mul, zero, one, check=check)


def test_parity_grading(env8):
    par = env8.parity
    assert (par[env8.add] == (par[:, None] + par[None, :]) % 2).all()
    assert (par[env8.mul] == par[:, None] * par[None, :]).all()


def test_odd_part_reproduces_field_operations(f8, env8):
    for a in f8.elements():
        for b in f8.elements():
            assert env8.mul_at(a, b) == f8.mu(a, b)
            for c in f8.elements():
                s = env8.add_at(env8.add_at(a, b), c)
                assert s == f8.nu(a, b, c)


def test_sum_of_two_odds_is_a_pair(f8, env8):
    for a in f8.elements():
        for b in f8.elements():
            assert env8.is_pair(env8.add_at(a, b))


# -- pairs in standard form ----------------------------------------------------

def test_standard_form_preserves_translation_action(f8):
    for a in f8.elements():
        for b in f8.elements():
            p = standard_form(f8, a, b)
            for x in f8.elements():
                assert p.act(x) == f8.nu(x, a, b)


def test_pair_addition_and_multiplication_laws(f8):
    one = f8.one
    for alpha in f8.elements():
        for beta in f8.elements():
            s = pair_add(Pair(f8, alpha), Pair(f8, beta))
            assert s.alpha == f8.nu(alpha, beta, one)
            p = pair_mul(Pair(f8, alpha), Pair(f8, beta))
            assert p.alpha == f8.nu(alpha, beta, f8.mu(alpha, beta))


def test_pair_zero_is_neutral(f8):
    z = pair_zero(f8)
    for alpha in f8.elements():
        assert pair_add(Pair(f8, alpha), z) == Pair(f8, alpha)


def test_pair_arithmetic_matches_envelope_tables(f8, env8):
    for alpha in f8.elements():
        i = env8.pair_index(alpha)
        for beta in f8.elements():
            j = env8.pair_index(beta)
            s = pair_add(Pair(f8, alpha), Pair(f8, beta))
            assert env8.add_at(i, j) == env8.pair_index(s.alpha)
            p = pair_mul(Pair(f8, alpha), Pair(f8, beta))
            assert env8.mul_at(i, j) == env8.pair_index(p.alpha)


# -- locality -------------------------------------------------------------------

@pytest.mark.parametrize("modulus", [2, 4, 8, 16])
def test_envelope_is_local_with_two_element_residue(modulus):
    env = build_envelope(odd_residue_field(modulus))
    report = verify_local(env)
    assert report["is_local_with_z2_residue"]
    assert report["residue_sizes"] == [2]
    assert report["maximal_is_pair_part"]


def test_units_recover_the_field(f8, env8):
    back = units_as_3field(env8)
    assert back.n == f8.n
    assert [back.label(i) for i in back.elements()] == list(f8.labels)
    for a in back.elements():
        for b in back.elements():
            assert back.mu(a, b) == f8.mu(a, b)
            for c in back.elements():
                assert back.nu(a, b, c) == f8.nu(a, b, c)


def test_zero_ring_has_no_maximal_ideal():
    ring = residue_ring(1)
    assert ring.maximal_ideals() == []
    assert verify_local(ring)["method"] == "enumeration"


def test_locality_never_enumerates_ideals_of_an_envelope():
    f = build_f0(7)
    env = build_envelope(f)
    with mock.patch.object(RingTable, "all_ideals", autospec=True,
                           side_effect=RingTable.all_ideals) as enumerate_:
        report = verify_local(env)
        back = units_as_3field(env)
        result = quotient_by_ideal(f, IdealHandle(env, [env.pair_index(f.one)]))
    assert enumerate_.call_count == 0
    assert report["method"] == "certificate"
    assert report["maximal_ideals"] == [list(env.pair_indices())]
    assert back.labels == f.labels
    assert result.report["evenly_maximal"]


def test_odd_envelope_is_the_full_residue_ring():
    # U((Z/2^m)^odd) is isomorphic to Z/2^m: odd part to odd residues,
    # q_alpha to alpha+1
    for m in (2, 4, 8, 16):
        f = odd_residue_field(m)
        env = build_envelope(f)
        target = residue_ring(m)
        mapping = [0] * env.n
        for i in f.elements():
            mapping[i] = int(f.label(i))
        for alpha in f.elements():
            mapping[env.pair_index(alpha)] = (int(f.label(alpha)) + 1) % m
        phi = RingMorphism(env, target, mapping)
        assert phi.is_bijective()


# -- morphisms -------------------------------------------------------------------

def test_field_morphism_reduction(f8):
    f4 = odd_residue_field(4)
    mapping = [f4.index(str(int(f8.label(i)) % 4)) for i in f8.elements()]
    phi = Morphism(f8, f4, mapping)  # validates on construction
    assert phi(f8.one) == f4.one


def test_bad_morphism_is_rejected(f8):
    f4 = odd_residue_field(4)
    good = [f4.index(str(int(f8.label(i)) % 4)) for i in f8.elements()]
    bad = list(good)
    bad[2] = (bad[2] + 1) % f4.n
    with pytest.raises(StructureError):
        Morphism(f8, f4, bad)


def test_lifted_morphism_acts_on_pairs(f8):
    f4 = odd_residue_field(4)
    phi = Morphism(f8, f4, [f4.index(str(int(f8.label(i)) % 4))
                            for i in f8.elements()])
    env8 = build_envelope(f8)
    env4 = build_envelope(f4)
    lifted = lift_morphism(phi)
    for alpha in f8.elements():
        assert lifted(env8.pair_index(alpha)) == env4.pair_index(phi(alpha))


def test_composition_keeps_the_morphism_kind(f8):
    f4 = odd_residue_field(4)
    f2 = odd_residue_field(2)
    phi = Morphism(f8, f4, [f4.index(str(int(f8.label(i)) % 4))
                            for i in f8.elements()])
    psi = Morphism(f4, f2, [f2.one] * f4.n)
    both = Morphism(f8, f2, [psi(phi(i)) for i in f8.elements()])  # validates
    assert repr(both) == f"Morphism({f8!r} -> {f2!r})"
    # lifting is functorial: the lift of psi after phi is lpsi after lphi
    env8, env4, env2 = (build_envelope(f) for f in (f8, f4, f2))
    lphi = lift_morphism(phi)
    lpsi = lift_morphism(psi)
    lifted = lift_morphism(both)
    assert type(lifted) is RingMorphism
    assert lifted.mapping == tuple(lpsi(v) for v in lphi.mapping)
    assert repr(lifted) == f"RingMorphism({env8!r} -> {env2!r})"


def test_universal_extension_through_residue_ring(f8, env8):
    # the inclusion odd -> Z/8 extends uniquely to U(F) -> Z/8
    target = residue_ring(8)
    phi = ThreeRingMap(f8, target, [int(f8.label(i)) for i in f8.elements()])
    bar = universal_extension(phi)
    for alpha in f8.elements():
        expected = (int(f8.label(alpha)) + 1) % 8
        assert bar(env8.pair_index(alpha)) == expected
    assert bar.is_bijective()


def reference_universal_extension(phi, env):
    """phi on the odd part, q_alpha -> phi(alpha) + phi(1), one sum at a time."""
    f, r = phi.source, phi.target
    return tuple(phi.mapping) + tuple(
        r.add_at(phi(alpha), phi(f.one)) for alpha in range(f.n))


def test_universal_extension_mappings_are_pinned():
    for m in (4, 8, 16, 32):
        f = odd_residue_field(m)
        phi = ThreeRingMap(f, residue_ring(m), [int(f.label(i)) for i in f.elements()])
        env = build_envelope(f)
        assert universal_extension(phi).mapping == reference_universal_extension(phi, env)
    f16 = odd_residue_field(16)
    phi = ThreeRingMap(f16, residue_ring(16), [int(f16.label(i)) for i in f16.elements()])
    assert universal_extension(phi).mapping == (
        1, 3, 5, 7, 9, 11, 13, 15, 2, 4, 6, 8, 10, 12, 14, 0)
    # the inclusion of the odd part extends to the identity of the envelope
    for f in (build_f0(3), odd_residue_field(8),
              product_field(build_f0(2), build_f0(3)).field):
        env = build_envelope(f)
        bar = universal_extension(ThreeRingMap(f, env, range(f.n)))
        assert bar.mapping == tuple(range(env.n))


# -- one validation path for index maps -----------------------------------------------------

def test_every_map_kind_rejects_images_outside_the_target(f8):
    f4, z3, z8 = odd_residue_field(4), residue_ring(3), residue_ring(8)
    reduction = [f4.index(str(int(f8.label(i)) % 4)) for i in f8.elements()]
    cases = [
        (Morphism, f8, f4, reduction[:-1] + [f4.n]),
        (Morphism, f8, f4, reduction[:-1] + [-1]),
        (RingMorphism, z3, z3, [0, 1, 5]),
        (RingMorphism, z3, z3, [0, 1, -1]),
        (ThreeRingMap, f8, z8, [1, 3, 5, 9]),
        (ThreeRingMap, f8, z8, [1, 3, 5, -1]),
    ]
    for kind, source, target, mapping in cases:
        with pytest.raises(StructureError, match="^mapping hits indices outside the target$"):
            kind(source, target, mapping)
    for kind, source, target, mapping in cases:
        with pytest.raises(StructureError, match="^mapping must cover the source$"):
            kind(source, target, mapping[:-1])


def test_three_ring_map_is_an_index_map(f8):
    z8 = residue_ring(8)
    phi = ThreeRingMap(f8, z8, [int(f8.label(i)) for i in f8.elements()])
    assert (phi.source, phi.target) == (f8, z8)
    assert phi(f8.one) == z8.one and phi.is_bijective()
    assert repr(phi) == f"ThreeRingMap({f8!r} -> {z8!r})"
    f4 = odd_residue_field(4)
    with pytest.raises(StructureError, match="unit must go to one"):
        ThreeRingMap(f4, residue_ring(4), [3, 1])


# -- embedding criterion -----------------------------------------------------------

def test_only_the_one_element_field_embeds():
    trivial = build_f0(1)
    report = embedding_criterion(trivial)
    assert report["embeds"] and report["witness"] is None

    for f in (odd_residue_field(4), odd_residue_field(8), build_f0(3)):
        report = embedding_criterion(f)
        assert not report["embeds"]
        assert report["witness"] is not None
        assert report["zero_divisor"] is not None


def test_embedding_witness_solves_the_equation(f8, env8):
    report = embedding_criterion(f8)
    x = f8.index(report["witness"][0])
    y = f8.index(report["witness"][1])
    # x + y - x*y = 1 inside the envelope, with x, y both different from 1
    assert x != f8.one and y != f8.one
    s = env8.add_at(env8.add_at(x, y), env8.neg_at(env8.mul_at(x, y)))
    assert s == env8.one


def scalar_embedding_routes(field, env):
    """Both routes by scalar loops, row-major: the least (x, y) with
    x + y - xy = 1 and x, y != 1, and the least pair of nonzero pairs whose
    product is zero, each None when there is none."""
    odd, pairs = range(field.n), env.pair_indices()
    solved = next(((x, y) for x in odd for y in odd if field.one not in (x, y)
                   and env.add_at(env.add_at(x, y), env.neg_at(env.mul_at(x, y)))
                   == env.one), None)
    divides = next(((p, q) for p in pairs for q in pairs if env.zero not in (p, q)
                    and env.mul_at(p, q) == env.zero), None)
    return solved, divides


@pytest.mark.parametrize("name", ["odd(2)", "odd(8)", "odd(32)", "F0(1)", "F0(3)", "F0(5)",
                                  "F0(2,2)", "F0(2)xF0(3)", "T2(F0(2))", "T2(odd(4))"])
def test_embedding_routes_find_the_scalar_least_witnesses(name):
    f = FIELDS[name](check="light")
    rng = np.random.default_rng(f.n)
    for perm in (np.arange(f.n), rng.permutation(f.n), rng.permutation(f.n)):
        g = relabel(f, perm)                    # the unit moves off index 0
        env = build_envelope(g, check=False)
        solved, divides = scalar_embedding_routes(g, env)
        report = embedding_criterion(g)
        assert report == {
            "embeds": solved is None,
            "witness": None if solved is None else tuple(g.label(v) for v in solved),
            "zero_divisor": None if divides is None else tuple(env.labels[v] for v in divides),
        }


# -- ideals and quotients -----------------------------------------------------------

def test_quotient_of_sixteen_by_four(f8):
    f16 = odd_residue_field(16)
    env = build_envelope(f16)
    # the ideal generated by q(3) = 4 in the residue picture: collapses mod 4
    ideal = IdealHandle(env, [env.pair_index(f16.index("3"))])
    result = quotient_by_ideal(f16, ideal)
    assert result.field.n == 2
    assert result.report["evenly_maximal"]
    assert sorted(result.class_reps) == ["1", "3"]


def test_every_principal_pair_ideal_quotients_to_a_field():
    # the envelope is local, so no proper over-ideal can meet the odd part:
    # the evenly-maximal condition holds for every ideal and every quotient
    # is again a 3-field
    f16 = odd_residue_field(16)
    env = build_envelope(f16)
    sizes = {}
    for alpha in f16.elements():
        ideal = IdealHandle(env, [env.pair_index(alpha)])
        result = quotient_by_ideal(f16, ideal)
        assert result.report["evenly_maximal"]
        assert result.field.n * len(ideal) == f16.n or len(ideal) == 1
        sizes[f16.label(alpha)] = result.field.n
    # q(15) = 0 generates the zero ideal, q(7) = 8 halves, q(3) = 4 quarters
    assert sizes["15"] == 8 and sizes["7"] == 4 and sizes["3"] == 2
    assert issubclass(QuotientNotFieldError, StructureError)


def test_ideal_generators_must_be_pairs(env8):
    with pytest.raises(StructureError, match="pair part"):
        IdealHandle(env8, [env8.base.one])


@pytest.mark.parametrize("k0,expected", [
    (1, True), (2, True), (3, False), (4, True), (6, False), (8, True),
    (12, False), (16, True), (20, False), (32, True), (96, False),
])
def test_evenly_maximal_iff_power_of_two(k0, expected):
    report = evenly_maximal_check(k0)
    assert report["evenly_maximal"] is expected
    if not expected:
        w = report["witness"]
        assert w["prime"] % 2 == 1 and k0 % w["prime"] == 0


# -- retracted binary addition --------------------------------------------------------

def test_retract_addition_gives_a_group(f8):
    for c in f8.elements():
        r = retract_addition(f8, c)
        assert r.neutral == f8.quer(c)
        table = r.table
        idx = np.arange(f8.n)
        assert (np.sort(table, axis=1) == idx).all()  # Latin rows
        assert (table == table.T).all()
        assert whole_cube_assoc_witness(table) is None


@pytest.mark.parametrize("build", [
    lambda: odd_residue_field(8), lambda: odd_residue_field(64), lambda: build_f0(1),
    lambda: build_f0(3), lambda: build_f0(5),
    lambda: product_field(build_f0(2), build_f0(3)).field,
], ids=["odd(8)", "odd(64)", "F0(1)", "F0(3)", "F0(5)", "F0(2)xF0(3)"])
def test_retract_neutral_is_the_querelement(build):
    # Doernte's identity nu(x, c, quer(c)) = x: quer(c) is the column of
    # the retracted table that fixes every element
    f = build()
    idx = np.arange(f.n)
    for c in f.elements():
        r = retract_addition(f, c)
        assert r.neutral == f.quer(c)
        assert [v for v in idx if (r.table[:, v] == idx).all()] == [r.neutral]


# -- ring isomorphism search ------------------------------------------------------------

def test_envelope_isomorphic_to_residue_ring(f8, env8):
    iso = ring_isomorphism(env8, residue_ring(8))
    assert iso is not None and iso.is_bijective()


def test_no_isomorphism_between_different_rings():
    assert ring_isomorphism(residue_ring(4), residue_ring(8)) is None
    env = build_envelope(build_f0(3))  # 8 elements, characteristic 2
    assert ring_isomorphism(env, residue_ring(8)) is None


def reference_close(r1, r2, mapping, frontier):
    """Extend mapping (dict r1-index -> r2-index) by ring closure, one sum
    and product at a time; None on a conflict or a repeated image."""
    used = set(mapping.values())
    if len(used) != len(mapping):
        return None
    queue = list(frontier)
    while queue:
        a = queue.pop()
        for b in sorted(mapping):
            for op1, op2 in ((r1.add_at, r2.add_at), (r1.mul_at, r2.mul_at)):
                for x, y in ((a, b), (b, a)):
                    s1 = op1(x, y)
                    s2 = op2(mapping[x], mapping[y])
                    if s1 in mapping:
                        if mapping[s1] != s2:
                            return None
                    else:
                        if s2 in used:
                            return None
                        mapping[s1] = s2
                        used.add(s2)
                        queue.append(s1)
    return mapping


def reference_ring_isomorphism(r1, r2, constraint=None):
    """The depth-first search with closure one operation at a time, where
    constraint(i, j) may veto an image: the mapping tuple or None."""
    if r1.n != r2.n:
        return None
    base = reference_close(r1, r2, {r1.zero: r2.zero, r1.one: r2.one},
                           [r1.zero, r1.one])

    def extend(mapping):
        if len(mapping) == r1.n:
            try:
                return RingMorphism(r1, r2, [mapping[i] for i in range(r1.n)]).mapping
            except StructureError:
                return None
        g = min(i for i in range(r1.n) if i not in mapping)
        used = set(mapping.values())
        for img in range(r2.n):
            if img in used or (constraint is not None and not constraint(g, img)):
                continue
            trial = reference_close(r1, r2, {**mapping, g: img}, [g])
            if trial is not None:
                out = extend(trial)
                if out is not None:
                    return out
        return None

    return None if base is None else extend(base)


def reference_field_isomorphism(f1, f2):
    """The parity-preserving envelope isomorphism restricted to the odd part."""
    if f1.n != f2.n:
        return None
    e1, e2 = build_envelope(f1, check=False), build_envelope(f2, check=False)
    mapping = reference_ring_isomorphism(
        e1, e2, constraint=lambda i, j: e1.parity[i] == e2.parity[j])
    return None if mapping is None else mapping[:f1.n]


# the roster fields of the isomorphism tests, each built with check="light"
ISO_FIELDS = [*(f"odd({m})" for m in (2, 4, 8, 16, 32, 64, 128)),
              *(f"F0({k})" for k in range(1, 7)),
              "F0(2,2)", "F0(3,2)", "F0(2)xF0(3)", "F0(3)xF0(3)", "F0(2,2,2)"]


def mapping_of(iso):
    return None if iso is None else iso.mapping


@pytest.mark.parametrize("name", ISO_FIELDS)
def test_field_isomorphism_matches_the_reference_search(name):
    f = FIELDS[name](check="light")
    g = relabel(f, np.random.default_rng(3).permutation(f.n))
    for x, y in ((f, f), (f, g), (g, f)):
        got = field_isomorphism(x, y)
        assert got is not None
        assert got.mapping == reference_field_isomorphism(x, y)


@pytest.mark.parametrize("a,b", [
    ("F0(4)", "F0(2,2)"), ("F0(5)", "F0(3)xF0(3)"), ("odd(16)", "F0(4)"),
    ("odd(8)", "F0(3)"), ("odd(32)", "F0(5)"), ("F0(2)xF0(3)", "F0(4)"),
])
def test_field_isomorphism_finds_none_where_the_reference_finds_none(a, b):
    fa, fb = FIELDS[a](check="light"), FIELDS[b](check="light")
    for x, y in ((fa, fb), (fb, fa)):
        assert field_isomorphism(x, y) is None
        assert reference_field_isomorphism(x, y) is None


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda m=m: residue_ring(m), id=f"Z/{m}") for m in (1, 2, 4, 8, 12, 16)),
    pytest.param(lambda: matrix_ring_z2(), id="M2(Z/2)"),
    pytest.param(lambda: build_envelope(build_f0(3)), id="U(F0(3))"),
    pytest.param(lambda: build_envelope(relabel(build_f0(4),      # 8 elements
                                                np.random.default_rng(1).permutation(8))),
                 id="U(F0(4) relabelled)"),
])
def test_ring_isomorphism_matches_the_reference_search(build):
    ring = build()
    assert mapping_of(ring_isomorphism(ring, ring)) == reference_ring_isomorphism(ring, ring)


def test_ring_isomorphism_between_envelopes_keeps_the_odd_part():
    f = build_f0(4)
    perm = np.random.default_rng(9).permutation(f.n)
    e1, e2 = build_envelope(f), build_envelope(relabel(f, perm))
    iso = ring_isomorphism(e1, e2)
    assert all(iso(i) < f.n for i in range(f.n))
    assert iso.mapping[:f.n] == field_isomorphism(f, e2.base).mapping


@pytest.mark.parametrize("name", ["T2(F0(2))", "T2(odd(4))"])
def test_ring_isomorphism_finds_a_relabelled_noncommutative_envelope(name):
    t = FIELDS[name](check="auto")
    copy = relabel(t, np.random.default_rng(4).permutation(t.n))
    e1, e2 = build_envelope(t), build_envelope(copy)
    assert not (e1.mul == e1.mul.T).all()
    iso = ring_isomorphism(e1, e2)
    assert iso is not None and iso.is_bijective()
    assert all(iso(i) < t.n for i in range(t.n))          # units go to units
    assert Morphism(t, copy, iso.mapping[:t.n]).is_bijective()
    assert iso.mapping == reference_ring_isomorphism(e1, e2)


def test_field_isomorphism_of_the_toeplitz_field_is_pinned():
    # the independent isomorphism of the derived-structures ledger
    tp = toeplitz_field(3, odd_residue_field(2, check="light"))
    iso = field_isomorphism(tp.field, build_f0(3, check="light"))
    assert iso.mapping == (1, 3, 2, 0)


@pytest.mark.parametrize("build", [
    lambda: residue_ring(8), lambda: residue_ring(12), lambda: matrix_ring_z2(),
    lambda: build_envelope(build_f0(3)), lambda: build_envelope(odd_residue_field(8)),
    lambda: build_envelope(product_field(build_f0(2), build_f0(2)).field),
], ids=["Z/8", "Z/12", "M2(Z/2)", "U(F0(3))", "U(odd(8))", "U(F0(2)xF0(2))"])
def test_whole_table_closure_matches_the_one_at_a_time_closure(build):
    # every seed {zero, one, g -> h}, including ones that clash
    ring = build()
    if isinstance(ring, EnvelopeRing):
        other = build_envelope(relabel(ring.base,
                                       np.random.default_rng(5).permutation(ring.base.n)))
    else:
        other = ring
    for g in range(ring.n):
        for h in range(other.n):
            seed = {ring.zero: other.zero, ring.one: other.one, g: h}
            want = reference_close(ring, other, dict(seed), list(seed))
            m = np.full(ring.n, -1, dtype=np.intp)
            m[list(seed)] = list(seed.values())
            got = _close_map(ring, other, m)
            assert (got is None) == (want is None), (g, h)
            if got is not None:
                assert {i: int(v) for i, v in enumerate(got) if v >= 0} == want


def test_ring_isomorphism_makes_no_scalar_table_calls():
    f = build_f0(4)
    perm = np.random.default_rng(2).permutation(f.n)
    e1, e2 = build_envelope(f), build_envelope(relabel(f, perm))
    with mock.patch.object(e1, "add_at", wraps=e1.add_at) as add1, \
            mock.patch.object(e1, "mul_at", wraps=e1.mul_at) as mul1, \
            mock.patch.object(e2, "add_at", wraps=e2.add_at) as add2, \
            mock.patch.object(e2, "mul_at", wraps=e2.mul_at) as mul2:
        assert ring_isomorphism(e1, e2) is not None
    assert add1.call_count == mul1.call_count == add2.call_count == mul2.call_count == 0


# -- the table-first paths against their scalar definitions -------------------------------

def reference_units_as_3field(ring):
    """The complement of the maximal ideal, built one cell at a time:
    (labels, nu, mu, unit position)."""
    m = ring.maximal_ideals()[0]
    units = [i for i in range(ring.n) if i not in m]
    back = {g: s for s, g in enumerate(units)}
    k = len(units)
    nu = np.empty((k, k, k), dtype=np.int32)
    mu = np.empty((k, k), dtype=np.int32)
    for a, ga in enumerate(units):
        for b, gb in enumerate(units):
            gab = ring.add_at(ga, gb)
            mu[a, b] = back[ring.mul_at(ga, gb)]
            for c, gc in enumerate(units):
                nu[a, b, c] = back[ring.add_at(gab, gc)]
    return [ring.labels[g] for g in units], nu, mu, back[ring.one]


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda m=m: odd_residue_field(m), id=f"odd({m})") for m in (4, 8, 16, 32)),
    *(pytest.param(lambda k=k: build_f0(k), id=f"F0({k})") for k in (3, 4, 5)),
])
def test_units_as_3field_matches_reference(build):
    env = build_envelope(build())
    labels, nu, mu, one = reference_units_as_3field(env)
    got = units_as_3field(env)
    assert list(got.labels) == labels and got.one == one
    assert (got.carrier.nu == nu).all() and (got.carrier.mu == mu).all()


def restricted_units_as_3field(ring):
    """The units' tables restricted from the ring's by index renumbering, as
    units_as_3field built them before it read them through _TupleTables:
    (labels, nu, mu, unit)."""
    u = np.setdiff1d(np.arange(ring.n), sorted(ring.maximal_ideals()[0]))
    ix = np.ix_(u, u)
    back = ternary_kernel._positions(u, ring.n)
    mu = back[ring.mul[ix]]
    nu = back[ring.add[ring.add[ix][..., None], u]]
    return ([ring.labels[g] for g in u], nu, mu, int(back[ring.one]))


@pytest.mark.parametrize("name", ["odd(4)", "odd(8)", "odd(16)", "F0(2)", "F0(3)",
                                  "F0(2,2)", "F0(2)xF0(2)", "T2(F0(2))", "T2(odd(4))"])
def test_units_as_3field_matches_the_restricted_tables(name):
    env = build_envelope(FIELDS[name](check="light"))
    labels, nu, mu, one = restricted_units_as_3field(env)
    got = units_as_3field(env)
    assert list(got.labels) == labels and got.one == one
    assert got.carrier.nu.tolist() == nu.tolist() and got.carrier.mu.tolist() == mu.tolist()
    assert got.origin == {"kind": "units_of_ring"}


def reference_quotient(field, ideal):
    """Classes r + ideal in first-seen order, named by their least odd
    member, and the class tables: (representative labels, nu, mu, unit)."""
    env, n = ideal.env, field.n
    class_of, reps = {}, []
    for r in range(n):
        if r in class_of:
            continue
        members = [m for m in sorted({env.add_at(r, q) for q in ideal.elements}) if m < n]
        reps.append(members[0])
        for m in members:
            class_of[m] = members[0]
    rep_index = {rep: i for i, rep in enumerate(reps)}
    k = len(reps)
    nu = np.empty((k, k, k), dtype=np.int32)
    mu = np.empty((k, k), dtype=np.int32)
    for a, ra in enumerate(reps):
        for b, rb in enumerate(reps):
            mu[a, b] = rep_index[class_of[field.mu(ra, rb)]]
            for c, rc in enumerate(reps):
                nu[a, b, c] = rep_index[class_of[field.nu(ra, rb, rc)]]
    return ([field.label(r) for r in reps], nu, mu, rep_index[class_of[field.one]])


@pytest.mark.parametrize("build", [
    lambda: odd_residue_field(16),
    lambda: build_f0(4),
    # unit at index 6: the least class member is rarely the unit's
    lambda: triangular_field(2, odd_residue_field(4)).field,
], ids=["odd(16)", "F0(4)", "triangular_field(2, odd(4))"])
def test_quotient_by_every_principal_pair_ideal_matches_reference(build):
    # the quotient is born from its classes' retract tables: its tables,
    # retract and retract generators are those of the dense reference
    f = build()
    env = build_envelope(f)
    for alpha in f.elements():
        ideal = IdealHandle(env, [env.pair_index(alpha)])
        labels, nu, mu, one = reference_quotient(f, ideal)
        got = quotient_by_ideal(f, ideal)
        assert got.class_reps == labels and got.field.one == one
        c, dense = got.field.carrier, TernaryCarrier(labels, nu, mu)
        assert (c.nu == nu).all() and (c.mu == mu).all()
        assert c.retract[1] == dense.retract[1] and (c.retract[0] == dense.retract[0]).all()
        assert (c.retract_generators == dense.retract_generators).all()


# -- two-sided ideals in a noncommutative ring -----------------------------------------------

def matrix_ring_z2():
    """M2(Z/2): matrix [[a,b],[c,d]] at index 8a+4b+2c+d."""
    codes = np.arange(16)
    weights = 1 << np.arange(3, -1, -1)
    mats = ((codes[:, None] & weights) > 0).astype(np.int64).reshape(16, 2, 2)
    prod = np.einsum("iab,jbc->ijac", mats, mats) % 2
    mul = prod.reshape(16, 16, 4) @ weights
    add = codes[:, None] ^ codes[None, :]
    labels = [str(m.tolist()) for m in mats]
    return RingTable(labels, add, mul, zero=0, one=0b1001)


def test_simple_matrix_ring_has_only_the_zero_maximal_ideal():
    # M2(Z/2) is simple; a one-sided closure of {u*g, g*u} would report
    # nine 8-element "maximal ideals"
    ring = matrix_ring_z2()
    assert not (ring.mul == ring.mul.T).all()
    assert ring.maximal_ideals() == [frozenset({ring.zero})]
    assert verify_local(ring)["maximal_ideals"] == [[ring.zero]]


@pytest.mark.parametrize("build", [
    matrix_ring_z2,
    lambda: build_envelope(triangular_field(2, build_f0(2)).field),
], ids=["M2(Z/2)", "U(T2(F0(2)))"])
def test_every_ideal_is_two_sided(build):
    ring = build()
    everything = np.arange(ring.n)
    for ideal in ring.all_ideals():
        members = sorted(ideal)
        assert set(ring.mul[np.ix_(everything, members)].ravel().tolist()) <= ideal
        assert set(ring.mul[np.ix_(members, everything)].ravel().tolist()) <= ideal


# -- the non-unit certificate against enumeration ------------------------------------------

def reference_additive_closure(ring, seed):
    """The additive closure one sum at a time."""
    out = set(seed)
    out.add(ring.zero)
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                s = ring.add_at(a, b)
                if s not in out:
                    out.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(out)


def reference_all_ideals(ring):
    """Principal ideals and their joins, each closed one sum at a time."""
    def principal(g):
        return reference_additive_closure(
            ring, {ring.mul_at(ring.mul_at(u, g), v)
                   for u in range(ring.n) for v in range(ring.n)})
    found = {frozenset({ring.zero})} | {principal(g) for g in range(ring.n)}
    changed = True
    while changed:
        changed = False
        for a in list(found):
            for b in list(found):
                s = reference_additive_closure(ring, a | b)
                if s not in found:
                    found.add(s)
                    changed = True
    return found


def enumerated_maximal_ideals(ring):
    full = frozenset(range(ring.n))
    proper = [i for i in ring.all_ideals() if i != full]
    return sorted((i for i in proper if not any(i < j for j in proper)),
                  key=sorted)


def envelope_of(build):
    return lambda: build_envelope(build())


def odd_part_of_residues(m):
    """The odd residues mod an even m with x+y+z and products: a 3-field
    exactly when m is a power of two (3 is not a unit mod 6)."""
    vals = np.arange(1, m, 2, dtype=np.int64)
    s3 = (vals[:, None, None] + vals[None, :, None] + vals[None, None, :]) % m
    mu = (vals[:, None] * vals[None, :]) % m
    carrier = TernaryCarrier([str(int(v)) for v in vals],
                             ((s3 - 1) // 2).astype(np.int32),
                             ((mu - 1) // 2).astype(np.int32))
    return FiniteThreeField(carrier, 0, check=False)


RINGS = [
    pytest.param(lambda: residue_ring(12), id="Z/12"),
    pytest.param(lambda: residue_ring(30), id="Z/30"),
    pytest.param(matrix_ring_z2, id="M2(Z/2)"),
    pytest.param(envelope_of(lambda: triangular_field(2, build_f0(2)).field),
                 id="U(T2(F0(2)))"),
]


@pytest.mark.parametrize("build", RINGS)
def test_mask_closure_matches_the_sum_at_a_time_closure(build):
    ring = build()
    rng = np.random.default_rng(7)
    seeds = [[g] for g in range(ring.n)]
    seeds += [rng.choice(ring.n, size=k, replace=False).tolist()
              for k in (2, 3, 5) for _ in range(8)]
    for seed in seeds:
        assert ring._additive_closure(seed) == reference_additive_closure(ring, seed)
    assert ring.all_ideals() == reference_all_ideals(ring)


@pytest.mark.parametrize("m", range(1, 41))
def test_certificate_agrees_with_enumeration_on_residue_rings(m):
    ring = residue_ring(m)
    primes = {p for p in range(2, m + 1) if m % p == 0
              and all(p % q for q in range(2, p))}
    report = verify_local(ring)
    # Z/m is local exactly when m is a prime power
    assert report["method"] == ("certificate" if len(primes) == 1 else "enumeration")
    assert ring.maximal_ideals() == enumerated_maximal_ideals(ring)
    assert report["maximal_ideals"] == [sorted(i) for i in ring.maximal_ideals()]


@pytest.mark.parametrize("build,method", [
    *(pytest.param(envelope_of(lambda k=k: odd_residue_field(2 ** k)), "certificate",
                   id=f"U(odd({2 ** k}))") for k in range(1, 7)),
    *(pytest.param(envelope_of(lambda k=k: build_f0(k)), "certificate",
                   id=f"U(F0({k}))") for k in range(2, 6)),
    pytest.param(envelope_of(lambda: product_field(build_f0(2), build_f0(3)).field),
                 "certificate", id="U(F0(2)xF0(3))"),
    # simple, so not local: its non-units are not closed under addition
    pytest.param(matrix_ring_z2, "enumeration", id="M2(Z/2)"),
    pytest.param(envelope_of(lambda: triangular_field(2, build_f0(2)).field),
                 "certificate", id="U(T2(F0(2)))"),
    # isomorphic to Z/6, with two maximal ideals
    pytest.param(envelope_of(lambda: odd_part_of_residues(6)), "enumeration",
                 id="U(odd part of Z/6)"),
])
def test_certificate_agrees_with_enumeration(build, method):
    ring = build()
    assert ring.maximal_ideals() == enumerated_maximal_ideals(ring)
    assert verify_local(ring)["method"] == method


def test_quotient_witness_when_an_odd_element_is_no_unit():
    # in Z/6 the odd residue 3 is no unit: the zero ideal (generated by
    # q(5) = 6) lies in the proper ideal (3) = {0, 3}, which meets the odd
    # part, so the quotient is not a 3-field
    f = odd_part_of_residues(6)
    env = build_envelope(f)
    zero = IdealHandle(env, [env.pair_index(f.index("5"))])
    assert len(zero) == 1
    with pytest.raises(QuotientNotFieldError) as err:
        quotient_by_ideal(f, zero)
    assert err.value.witness_ideal == {
        "ideal": sorted([f.index("3"), env.zero]), "odd_members": ["3"]}
    # an ideal holding 3's over-ideal is the whole ring: no witness
    result = quotient_by_ideal(f, IdealHandle(env, [env.pair_index(f.index("3"))]))
    assert result.report["evenly_maximal"] and result.class_reps == ["1"]


# -- ThreeRingMap rejections -------------------------------------------------------------------

def test_three_ring_map_rejects_a_map_that_breaks_products():
    # into Z/2 x Z/2 (bit pairs, one = 11): every map from F0(2) = {1, x}
    # with 1 -> 11 keeps ternary sums, but x*x = 1 needs x -> 11
    f2 = build_f0(2)
    codes = np.arange(4)
    pairs = RingTable(["00", "01", "10", "11"], codes[:, None] ^ codes,
                      codes[:, None] & codes, zero=0, one=3)
    mapping = [0, 0]
    mapping[f2.one] = 3
    mapping[f2.index("x")] = 1
    with pytest.raises(StructureError, match="products are not preserved"):
        ThreeRingMap(f2, pairs, mapping)


def test_three_ring_map_rejects_a_map_that_breaks_ternary_sums():
    # sending all of {1, 3} to 1 in Z/4 keeps products, but 1+1+1 = 3
    f4 = odd_residue_field(4)
    with pytest.raises(StructureError, match="ternary sums are not preserved"):
        ThreeRingMap(f4, residue_ring(4), [1, 1])


# -- the map laws against the whole-table comparisons --------------------------------
#
# Every map check walks chunks (ternary_kernel._map_violation).  The oracle
# is the whole-table comparison each class made before: m[src] against the
# target table gathered at np.ix_(m, m, ...).

def whole_table_witness(m, src, *image):
    """Least x with m(src(x)) != image(m(x)), from whole tables; image as in
    _map_violation (one table, or binary tables nested on the left)."""
    m = np.asarray(m, dtype=np.intp)
    want = image[0][np.ix_(*[m] * image[0].ndim)]
    for t in image[1:]:
        want = t[want[..., None], m]
    bad = m[src] != want
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


def whole_table_map_error(kind, source, target, mapping):
    """The message each map class raised from whole tables, or None."""
    m = np.asarray(mapping, dtype=np.intp)
    if kind is Morphism:
        laws = [("unit is not preserved", m[source.one] != target.one),
                ("ternary addition is not preserved",
                 (m[source.carrier.nu] != target.carrier.nu[np.ix_(m, m, m)]).any()),
                ("multiplication is not preserved",
                 (m[source.carrier.mu] != target.carrier.mu[np.ix_(m, m)]).any())]
    elif kind is RingMorphism:
        laws = [("one is not preserved", m[source.one] != target.one),
                ("addition is not preserved",
                 (m[source.add] != target.add[np.ix_(m, m)]).any()),
                ("multiplication is not preserved",
                 (m[source.mul] != target.mul[np.ix_(m, m)]).any())]
    else:
        ix = np.ix_(m, m)
        laws = [("unit must go to one", m[source.one] != target.one),
                ("products are not preserved",
                 (m[source.carrier.mu] != target.mul[ix]).any()),
                ("ternary sums are not preserved",
                 (m[source.carrier.nu] != target.add[target.add[ix][..., None], m]).any())]
    return next((message for message, broken in laws if broken), None)


def map_error(kind, source, target, mapping):
    try:
        kind(source, target, mapping)
    except StructureError as exc:
        return str(exc)
    return None


def swapped_coordinates(f):
    """F0(n) -> F0(n) exchanging the coordinates of u and u^(n-1): additive
    (nu(x,y,z) is the XOR of the masks) and unit-preserving, so it keeps
    nu, and the sums of the envelope when lifted, but not products."""
    alg, n = mask_path(f.algebra), f.origin["exponents"][0]
    low, high = 1 << 1, 1 << (n - 1)
    swap = lambda v: v & ~(low | high) | (high if v & low else 0) | (low if v & high else 0)
    return [alg.index_of[swap(v)] for v in alg.carrier]


def valid_maps():
    """(kind, source, target, mapping) for maps of every kind, all valid but
    the two that keep every sum and break products."""
    f16, f8, f4 = odd_residue_field(16), odd_residue_field(8), odd_residue_field(4)
    reduce = [f8.index(str(int(f16.label(i)) % 8)) for i in f16.elements()]
    f5 = build_f0(5)
    endo = composition_table(f5)[:, f5.index("x^3")]        # x -> x^3
    g, h = (product_field(build_f0(a), build_f0(b)).field for a, b in ((2, 3), (3, 2)))
    toeplitz = toeplitz_field(3, build_f0(1)).isomorphism
    maps = [(Morphism, f16, f8, reduce), (Morphism, f5, f5, endo),
            (Morphism, f5, build_f0(3), truncation_morphism(f5, build_f0(3)).mapping),
            (Morphism, f8, f8, range(f8.n)), (Morphism, g, h, field_isomorphism(g, h).mapping),
            (Morphism, toeplitz.source, toeplitz.target, toeplitz.mapping)]
    env16, env8 = build_envelope(f16), build_envelope(f8)
    maps.append((RingMorphism, env16, env8, lift_morphism(
        Morphism(f16, f8, reduce)).mapping))
    inclusion = ThreeRingMap(f16, residue_ring(16), [int(f16.label(i)) for i in f16.elements()])
    maps.append((RingMorphism, env16, residue_ring(16),
                 universal_extension(inclusion).mapping))
    maps.append((RingMorphism, residue_ring(8), residue_ring(4), [v % 4 for v in range(8)]))
    maps.append((ThreeRingMap, f16, residue_ring(16), inclusion.mapping))
    maps.append((ThreeRingMap, f5, build_envelope(f5), range(f5.n)))
    maps.append((ThreeRingMap, f4, residue_ring(8), [1, 3]))   # 1+1+1 = 3 in Z/4, not Z/8
    swap = swapped_coordinates(f5)
    maps.append((Morphism, f5, f5, swap))
    env5 = build_envelope(f5)
    maps.append((RingMorphism, env5, env5, swap + [f5.n + v for v in swap]))
    # the noncommutative roster fields (n = 16) and their 32-element
    # envelopes: conjugation by a noncentral unit, its lift, a relabelling
    # onto a checked copy, and the inclusion into the envelope
    for name in ("T2(F0(2))", "T2(odd(4))"):
        t = FIELDS[name](check="auto")
        mu, n = t.carrier.mu, t.n
        g = next(g for g in range(n) if (mu[g] != mu[:, g]).any())
        g_inv = int(np.argmax(mu[g] == t.one))
        conj = [int(mu[mu[g, x], g_inv]) for x in range(n)]
        perm = np.random.default_rng(n).permutation(n)
        copy = FiniteThreeField(relabel(t.carrier, perm), int(perm[t.one]))
        env = build_envelope(t)
        maps += [(Morphism, t, t, conj), (Morphism, t, copy, perm),
                 (RingMorphism, env, env, lift_morphism(Morphism(t, t, conj)).mapping),
                 (ThreeRingMap, t, env, range(n))]
    return maps


@pytest.mark.parametrize("block", [None, 64])
def test_map_checks_give_the_whole_table_messages(block, monkeypatch, walk=False):
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    seen = set()
    for kind, source, target, mapping in valid_maps():
        for m in [list(mapping), *one_image_mutants(source, target, mapping)]:
            want = whole_table_map_error(kind, source, target, m)
            with mock.patch.object(pair_envelope, "_map_violation",
                                   wraps=pair_envelope._map_violation) as walked:
                assert map_error(kind, source, target, m) == want, (kind, m)
            # every field and ring here proves itself when the map reads it,
            # so the generators decide each map of a field, failures
            # included; a ring map walks its two tables, up to the failure
            if kind is not RingMorphism and not walk:
                assert walked.call_count == 0
            elif want is None:
                assert walked.call_count == 2
            seen.add(want)
    assert len(seen) >= 7


@pytest.mark.parametrize("block", [None, 64])
def test_map_checks_give_the_whole_table_messages_on_the_walk(block, monkeypatch):
    walk_only(monkeypatch)
    test_map_checks_give_the_whole_table_messages(block, monkeypatch, walk=True)


@pytest.mark.parametrize("name", ["H(odd(4))", "F0(1)[D4]"])
def test_maps_of_the_128_element_fields_pass_on_generators(name):
    # conjugation by a noncentral unit and a relabelling onto a copy pass on
    # generators with no walk, and the lift to the 256-element envelope
    # walks its two tables; the walk names the failure of every eighth
    # one-image mutant as the whole tables do
    t = FIELDS[name](check="light")
    mu, n = t.carrier.mu, t.n
    g = next(g for g in range(n) if (mu[g] != mu[:, g]).any())
    conj = mu[mu[g], int(np.argmax(mu[g] == t.one))].tolist()      # x -> g x g^-1
    perm = np.random.default_rng(n).permutation(n)
    copy = FiniteThreeField(relabel(t.carrier, perm), int(perm[t.one]), check="light")
    env = build_envelope(t)
    lifted = lift_morphism(Morphism(t, t, conj)).mapping
    for kind, target, mapping in ((Morphism, t, conj), (Morphism, copy, perm.tolist()),
                                  (RingMorphism, env, lifted)):
        source = env if kind is RingMorphism else t
        with mock.patch.object(pair_envelope, "_map_violation",
                               wraps=pair_envelope._map_violation) as walked:
            assert map_error(kind, source, target, mapping) is None
        assert walked.call_count == (2 if kind is RingMorphism else 0)
        for m in list(one_image_mutants(source, target, mapping))[::8]:
            assert map_error(kind, source, target, m) == \
                whole_table_map_error(kind, source, target, m) is not None


@pytest.mark.parametrize("route", ["generators", "walk"])
def test_a_map_keeping_nu_but_breaking_mu_is_refused_on_either_route(route, monkeypatch):
    if route == "walk":
        walk_only(monkeypatch)
    f5 = build_f0(5, check="light")
    swap = swapped_coordinates(f5)
    with mock.patch.object(pair_envelope, "_affine_on",
                           wraps=pair_envelope._affine_on) as nu_tried, \
            mock.patch.object(pair_envelope, "_carries_on",
                              wraps=pair_envelope._carries_on) as mu_tried:
        with pytest.raises(StructureError, match="^multiplication is not preserved$"):
            Morphism(f5, f5, swap)
    # the generators pass nu and fail mu, naming the law with no walk
    assert nu_tried.call_count == mu_tried.call_count == (route == "generators")
    c, m = f5.carrier, np.asarray(swap)
    o_gens, mu_gens = (np.array(ternary_kernel._generators(t)) for t in (c.retract[0], c.mu))
    assert ternary_kernel._affine_on(m, c.retract, o_gens, *c.retract)
    assert not ternary_kernel._carries_on(m, c.mu, mu_gens, c.mu)
    assert whole_table_map_error(Morphism, f5, f5, swap) == "multiplication is not preserved"


def test_an_unchecked_field_without_coset_form_keeps_the_walk():
    f = build_f0(3, check="light")
    c = f.carrier
    pi = np.arange(f.n, dtype=np.int32)
    pi[[1, 2]] = 2, 1                    # nu followed by a transposition: no coset form
    twisted = FiniteThreeField(TernaryCarrier(c.labels, pi[c.nu], c.mu), f.one, check=False)
    assert twisted.carrier.retract is None
    for source, target in ((twisted, twisted), (twisted, f), (f, twisted)):
        for m in [list(range(f.n)), *one_image_mutants(source, target, range(f.n))]:
            with mock.patch.object(pair_envelope, "_map_violation",
                                   wraps=pair_envelope._map_violation) as walked:
                got = map_error(Morphism, source, target, m)
            assert got == whole_table_map_error(Morphism, source, target, m)
            assert walked.call_count >= (m[source.one] == target.one)


@functools.cache
def roster_mutant_errors(name):
    """A roster field built unchecked, the one-image mutants of its
    identity map (eight evenly spaced ones when there are more) and the
    whole tables' message for each: the tables do not depend on how the
    field was checked, so the n^3 comparisons run once per field."""
    f = FIELDS[name](check=False)
    mutants = list(one_image_mutants(f, f, range(f.n)))[::max(1, f.n // 8)]
    return f, mutants, [whole_table_map_error(Morphism, f, f, m) for m in mutants]


@pytest.mark.parametrize("checked_before", [False, True])
@pytest.mark.parametrize("check", [False, "light", "auto"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_a_maps_route_depends_only_on_the_tables(name, check, checked_before):
    # a field proves itself when a map first reads it, however it was built
    # and whichever checkers ran on it before: one-image mutants, read first,
    # give the whole tables' messages, the identity then walks nothing, and
    # the automorphisms of a quotient field are the light-built field's
    f = FIELDS[name](check=check)
    if checked_before:
        assert check_ternary_group(f.carrier, limit=f.n)
        assert check_distributivity(f.carrier, limit=f.n)
    oracle, mutants, want = roster_mutant_errors(name)
    assert (f.carrier.nu == oracle.carrier.nu).all() and (f.carrier.mu == oracle.carrier.mu).all()
    assert [map_error(Morphism, f, f, m) for m in mutants] == want
    assert f.n <= 2 or None not in want
    with mock.patch.object(pair_envelope, "_map_violation",
                           wraps=pair_envelope._map_violation) as walked:
        Morphism(f, f, range(f.n))
    assert walked.call_count == 0 and f.carrier.generators is not None
    if f.algebra is not None and len(f.origin["exponents"]) == 1:
        aut, light = automorphism_group(f), automorphism_group(FIELDS[name](check="light"))
        assert aut.elements == light.elements and aut.identity == light.identity
        assert (aut.table == light.table).all()


def test_every_map_verdict_between_proven_sides_is_the_walks():
    # maps of fields built unchecked: onto a relabelled copy, and into
    # their unchecked envelopes as the inclusion and, for a commutative
    # field, as x -> x^3, which keeps products; F0(5)'s swap of two
    # coordinates, which keeps sums and breaks products; and maps of one
    # factor of a product, which break a law off the first generator.
    # Every side proves itself when first read, so each map and each of its
    # seeded one-image mutants is decided on generators, with no walk, and
    # named as the whole tables name it
    rng = np.random.default_rng(29)
    cases = []
    fields = {name: FIELDS[name](check=False) for name in (
        "F0(3)", "F0(5)", "odd(16)", "F0(2,2)", "F0(2)xF0(3)", "T2(F0(2))", "T2(odd(4))")}
    g = build_f0(5)
    fields["F0(2)xF0(5)"] = product_field(build_f0(2), g, check=False).field
    for name, f in fields.items():
        mu, perm = f.carrier.mu, rng.permutation(f.n)
        copy = FiniteThreeField(relabel(f.carrier, perm), int(perm[f.one]), check=False)
        env = build_envelope(f, check=False)
        maps = [(Morphism, copy, perm), (ThreeRingMap, env, np.arange(f.n))]
        if (mu == mu.T).all():
            maps.append((ThreeRingMap, env, mu[np.diag(mu), np.arange(f.n)]))
        if name == "F0(5)":                     # keeps nu and breaks mu
            maps.append((Morphism, f, np.array(swapped_coordinates(f))))
        if name == "F0(2)xF0(5)":
            # maps of the second factor alone, c1 + 2 c2 -> c1 + 2 s(c2), s
            # fixing the unit, index 0: both laws hold along the first
            # generator, (x, 1), and only a later one sees the failure
            lift = lambda s: np.arange(f.n) % 2 + 2 * s[np.arange(f.n) // 2]
            swap = lift(np.array(swapped_coordinates(g)))
            cube = lift(g.carrier.mu[np.diag(g.carrier.mu), np.arange(g.n)])
            maps += [(Morphism, f, swap), (Morphism, f, cube),
                     (ThreeRingMap, env, swap), (ThreeRingMap, env, cube)]
        for kind, target, mapping in maps:
            cases.append((kind, f, target, mapping.tolist()))
            for i, shift in zip(rng.integers(0, f.n, size=60),
                                rng.integers(1, target.n, size=60)):
                m = mapping.copy()
                m[i] = (m[i] + shift) % target.n
                cases.append((kind, f, target, m.tolist()))
    seen = set()
    for kind, source, target, m in cases:
        want = whole_table_map_error(kind, source, target, m)
        with counting(pair_envelope, "_map_violation") as walked:
            assert map_error(kind, source, target, m) == want, (kind, m)
        assert walked.call_count == 0
        seen.add(want)
    assert len(cases) >= 1000
    assert seen == {None, "unit is not preserved", "ternary addition is not preserved",
                    "multiplication is not preserved", "unit must go to one",
                    "products are not preserved", "ternary sums are not preserved"}


def map_law_cases():
    """(m, src, image) for every map site's laws, valid and one-image mutants:
    field and ring tables, the ternary sum into a ring, parity onto Z/2 and
    quaternion conjugation onto the reversed product."""
    cases = []
    for kind, source, target, mapping in valid_maps():
        if kind is RingMorphism:
            laws = [(source.add, (target.add,)), (source.mul, (target.mul,))]
        elif kind is Morphism:
            laws = [(source.carrier.nu, (target.carrier.nu,)),
                    (source.carrier.mu, (target.carrier.mu,))]
        else:
            laws = [(source.carrier.mu, (target.mul,)),
                    (source.carrier.nu, (target.add, target.add))]
        for m in [list(mapping), *one_image_mutants(source, target, mapping)]:
            cases += [(m, src, image) for src, image in laws]
    # one changed cell of a source table: witnesses in every chunk
    f = build_f0(4)
    rng = np.random.default_rng(8)
    for src in [f.carrier.nu] * 12 + [f.carrier.mu] * 6:
        bad = src.copy()
        cell = tuple(rng.integers(0, f.n, size=src.ndim))
        bad[cell] = (bad[cell] + 1) % f.n
        cases.append((range(f.n), bad, (src,)))
    env, z2 = build_envelope(build_f0(3)), residue_ring(2)
    for flip in [None, *range(env.n)]:
        par = env.parity.copy()
        if flip is not None:
            par[flip] ^= 1
        cases += [(par, env.add, (z2.add,)), (par, env.mul, (z2.mul,))]
    return cases


@pytest.mark.parametrize("block", [None, 64])
def test_map_violation_is_the_least_whole_table_witness(block, monkeypatch):
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    witnesses = []
    for m, src, image in map_law_cases():
        want = whole_table_witness(m, src, *image)
        assert ternary_kernel._map_violation(m, src, *image) == want
        witnesses.append(want)
    assert None in witnesses and len(set(witnesses)) > 20


def whole_table_class_error(field, env, elements):
    """quotient_by_ideal's two representative-independence checks from whole
    tables, for the classes r + elements of the odd part; when both pass,
    the error of the quotient's tables as a 3-field, or None."""
    n, c = field.n, field.carrier
    members = env.add[:n, sorted(elements)]
    class_of = np.where(members < n, members, n).min(axis=1)
    reps = np.unique(class_of)
    cls = np.searchsorted(reps, class_of)
    mu = cls[c.mu[np.ix_(reps, reps)]]
    nu = cls[c.nu[np.ix_(reps, reps, reps)]]
    if (cls[c.mu] != mu[np.ix_(cls, cls)]).any():
        return "multiplication is not constant on classes"
    if (cls[c.nu] != nu[np.ix_(cls, cls, cls)]).any():
        return "addition is not constant on classes"
    try:
        FiniteThreeField(TernaryCarrier([field.label(r) for r in reps], nu, mu), cls[field.one])
    except StructureError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("block", [None, 64])
def test_quotient_class_checks_give_the_whole_table_messages(block, monkeypatch):
    # the classes r + {0, p} of a translation set that is no ideal: the class
    # map then fails to carry mu onto the quotient's mu, and with mu made
    # constant (one) it passes that check and fails on nu, or passes both
    # and leaves a quotient whose unit is no unit
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    f = odd_residue_field(16)
    flat = FiniteThreeField(TernaryCarrier(f.labels, f.carrier.nu,
                                           np.full((f.n, f.n), f.one)), f.one, check=False)
    seen = set()
    for field in (f, flat):
        env = build_envelope(field, check=False)
        for p in env.pair_indices():
            ideal = IdealHandle(env, [])
            ideal.elements = frozenset({env.zero, p})
            want = whole_table_class_error(field, env, ideal.elements)
            try:
                quotient_by_ideal(field, ideal)
                got = None
            except StructureError as exc:
                got = str(exc)
            assert got == want
            seen.add(want)
    assert seen == {None, "multiplication is not constant on classes",
                    "addition is not constant on classes", "1 is not a two-sided unit"}


def whole_table_parity_broken(env):
    par = env.parity
    return not ((par[env.add] == (par[:, None] + par[None, :]) % 2).all()
                and (par[env.mul] == par[:, None] * par[None, :]).all())


class MutantEnvelope(EnvelopeRing):
    """The envelope of a field with other parity, add and mul tables: the
    subclass's own read-only properties, as an envelope's tables cannot be
    rebound."""

    def __init__(self, base, parity, add, mul):
        super().__init__(base)
        self._tables = parity, add, mul

    parity = property(lambda self: self._tables[0])
    add = property(lambda self: self._tables[1])
    mul = property(lambda self: self._tables[2])


def test_parity_check_matches_the_whole_table_grading():
    # each of the 2n parity flips, and a sum or product of two pairs made
    # odd: the base still embeds, so the grading fails, on add or on mul
    # alone.  A flip keeps the ring, so its proof names the grading; a
    # changed cell breaks a ring law first, which the proof names instead
    f = build_f0(3)
    env = EnvelopeRing(f)
    n = f.n
    assert env._envelope_failure is None and not whole_table_parity_broken(env)
    mutants = []
    for flip in range(env.n):
        par = env.parity.copy()
        par[flip] ^= 1
        mutants.append((par, env.add, env.mul))
    for i, j in [(n, n), (n + 1, 2 * n - 1), (2 * n - 1, n + 2)]:
        for which in ("add", "mul"):
            table = getattr(env, which).copy()
            table[i, j] = 0                            # an odd element
            mutants.append((env.parity, *((table, env.mul) if which == "add"
                                          else (env.add, table))))
    assert len(mutants) == env.n + 6
    for k, tables in enumerate(mutants):
        mutant = MutantEnvelope(f, *tables)
        assert whole_table_parity_broken(mutant) and not mutant._graded()
        want = ring_walk_error(mutant) or "parity grading broken"
        assert (want == "parity grading broken") == (k < env.n)
        with pytest.raises(StructureError, match=f"^{want}$"):
            mutant.validate_ring()


@pytest.mark.parametrize("name", ["add", "mul", "parity"])
def test_an_envelope_table_cannot_be_rebound_or_written(name):
    env = build_envelope(build_f0(3))
    with pytest.raises(AttributeError):
        setattr(env, name, getattr(env, name).copy())
    with pytest.raises(ValueError, match="read-only"):
        getattr(env, name)[0] = 0
    ring = residue_ring(4)
    if name != "parity":
        with pytest.raises(AttributeError):
            setattr(ring, name, getattr(ring, name).copy())


def roster_envelope_bases(per_field=6):
    """(name, base) of every roster field built unchecked, and of `per_field`
    seeded mutants of each with one cell of mu or of nu moved."""
    rng = np.random.default_rng(30)
    for name, build in FIELDS.items():
        f = build(check=False)
        yield name, f
        for k in range(per_field):
            nu, mu = f.carrier.nu.copy(), f.carrier.mu.copy()
            table = nu if k % 2 else mu
            cell = tuple(rng.integers(0, f.n, size=table.ndim))
            table[cell] = (table[cell] + rng.integers(1, max(2, f.n))) % f.n
            yield f"{name}#{k}", FiniteThreeField(TernaryCarrier(f.labels, nu, mu), f.one,
                                                  check=False)


def envelope_error(build):
    try:
        build()
    except StructureError as exc:
        return str(exc)
    return None


def test_an_envelope_proves_itself_on_first_read_as_the_whole_tables_name_it():
    # build_envelope raises what walking the whole tables names: every ring
    # law, then the base's embedding, then the grading.  EnvelopeRing raises
    # none of them, only quer_add's refusal when the base's one has no
    # unique querelement to give the envelope its zero, and a second
    # validate_ring decides no law again
    seen = set()
    for name, f in roster_envelope_bases():
        built = envelope_error(lambda: EnvelopeRing(f))
        if built is not None:
            assert built.endswith("; not a ternary group") and "#" in name
            assert envelope_error(lambda: build_envelope(f)) == built
            seen.add("no envelope")
            continue
        env = EnvelopeRing(f)
        assert "_envelope_failure" not in vars(env) and "_failure" not in vars(env)
        want = (ring_walk_error(env) or whole_table_map_error(ThreeRingMap, f, env, range(f.n))
                or ("parity grading broken" if whole_table_parity_broken(env) else None))
        assert envelope_error(lambda: build_envelope(f)) == want, name
        assert envelope_error(env.validate_ring) == want, name
        with counting(pair_envelope, "_map_violation") as walked, \
                counting(pair_envelope, "_carries_on") as carried:
            assert envelope_error(env.validate_ring) == want
        assert walked.call_count == carried.call_count == 0
        seen.add(want)
    assert {None, "no envelope", "addition is not commutative",
            "addition rows are not permutations", "multiplication is not associative",
            "ternary sums are not preserved"} <= seen


@pytest.mark.parametrize("a,b", [("F0(3,2)", "F0(3,2)"), ("odd(8)", "F0(3)")])
def test_field_isomorphism_leaves_no_cycle_holding_its_fields(a, b):
    # with the cyclic collector off, reference counting alone frees both
    # fields once the result is dropped: the search holds them in no cycle
    f1 = FIELDS[a](check=False)
    f2 = relabel(FIELDS[b](check=False), np.arange(f1.n)[::-1])
    refs = weakref.ref(f1), weakref.ref(f2)
    gc.disable()
    try:
        iso = field_isomorphism(f1, f2)
        assert (iso is None) == (a != b)
        del iso, f1, f2
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_identity_morphism_holds_no_whole_cube():
    # n = 256: one int32 n^3 cube is 64 MiB; the field is built untraced
    f = build_f0(3, 3, check=False)
    tracemalloc.start()
    try:
        phi = Morphism(f, f, range(f.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.mapping == tuple(range(f.n))
    assert peak < 8 * 2 ** 20, peak
