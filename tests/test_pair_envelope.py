"""Enveloping rings, pairs, morphisms, ideals and quotients."""

import tracemalloc
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
    Pair,
    QuotientNotFieldError,
    ThreeRingMap,
    _close_map,
    pair_add,
    pair_mul,
    pair_zero,
    standard_form,
    universal_extension,
)
from ternfield import ternary_kernel
from ternfield.automorphisms import composition_table, truncation_morphism
from ternfield.ternary_kernel import FiniteThreeField, TernaryCarrier


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


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("message", list(RING_MUTANTS))
def test_each_ring_law_reports_its_own_failure(message, block, monkeypatch):
    if block:                                   # at most 8 entries per chunk
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    with pytest.raises(StructureError, match=f"^{message}$"):
        RingTable(*RING_MUTANTS[message]())


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
    lifted = lift_morphism(phi, env8, env4)
    for alpha in f8.elements():
        assert lifted(env8.pair_index(alpha)) == env4.pair_index(phi(alpha))


def test_composition_keeps_the_morphism_kind(f8):
    f4 = odd_residue_field(4)
    f2 = odd_residue_field(2)
    phi = Morphism(f8, f4, [f4.index(str(int(f8.label(i)) % 4))
                            for i in f8.elements()])
    psi = Morphism(f4, f2, [f2.one] * f4.n)
    both = psi.compose(phi)
    assert type(both) is Morphism
    assert (both.source, both.target) == (f8, f2)
    assert both.mapping == tuple(psi(phi(i)) for i in f8.elements())
    assert repr(both) == f"Morphism({f8!r} -> {f2!r})"
    with pytest.raises(StructureError, match="not composable"):
        phi.compose(psi)
    env8, env4, env2 = (build_envelope(f) for f in (f8, f4, f2))
    lphi = lift_morphism(phi, env8, env4)
    lpsi = lift_morphism(psi, env4, env2)
    lifted = lpsi.compose(lphi)
    assert type(lifted) is RingMorphism
    assert lifted.mapping == tuple(lpsi(v) for v in lphi.mapping)
    assert repr(lifted) == f"RingMorphism({env8!r} -> {env2!r})"


def test_universal_extension_through_residue_ring(f8, env8):
    # the inclusion odd -> Z/8 extends uniquely to U(F) -> Z/8
    target = residue_ring(8)
    phi = ThreeRingMap(f8, target, [int(f8.label(i)) for i in f8.elements()])
    bar = universal_extension(phi, env8)
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
        assert universal_extension(phi, env).mapping == reference_universal_extension(phi, env)
    f16 = odd_residue_field(16)
    phi = ThreeRingMap(f16, residue_ring(16), [int(f16.label(i)) for i in f16.elements()])
    assert universal_extension(phi).mapping == (
        1, 3, 5, 7, 9, 11, 13, 15, 2, 4, 6, 8, 10, 12, 14, 0)
    # the inclusion of the odd part extends to the identity of the envelope
    for f in (build_f0(3), odd_residue_field(8),
              product_field(build_f0(2), build_f0(3)).field):
        env = build_envelope(f)
        bar = universal_extension(ThreeRingMap(f, env, range(f.n)), env)
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
        # unchecked maps are taken as given
        assert kind(source, target, mapping, check=False).mapping == tuple(mapping)


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
    report = embedding_criterion(f8, env8)
    x = f8.index(report["witness"][0])
    y = f8.index(report["witness"][1])
    # x + y - x*y = 1 inside the envelope, with x, y both different from 1
    assert x != f8.one and y != f8.one
    s = env8.add_at(env8.add_at(x, y), env8.neg_at(env8.mul_at(x, y)))
    assert s == env8.one


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
        assert (table[table] == table[:, table]).all()


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


def relabelled(f, seed):
    """The same 3-field with element i renamed perm[i], perm random."""
    perm = np.random.default_rng(seed).permutation(f.n).astype(np.int32)
    inv = np.argsort(perm)
    c = f.carrier
    carrier = TernaryCarrier([c.labels[i] for i in inv],
                             perm[c.nu[np.ix_(inv, inv, inv)]],
                             perm[c.mu[np.ix_(inv, inv)]])
    return FiniteThreeField(carrier, int(perm[f.one]), check=False)


ISO_FIELDS = {
    **{f"odd({m})": lambda m=m: odd_residue_field(m, check="light")
       for m in (2, 4, 8, 16, 32, 64, 128)},
    **{f"F0({k})": lambda k=k: build_f0(k, check="light") for k in range(1, 7)},
    "F0(2,2)": lambda: build_f0(2, 2, check="light"),
    "F0(3,2)": lambda: build_f0(3, 2, check="light"),
    "F0(2)xF0(3)": lambda: product_field(build_f0(2), build_f0(3), check="light").field,
    "F0(3)xF0(3)": lambda: product_field(build_f0(3), build_f0(3), check="light").field,
    "F0(2,2,2)": lambda: build_f0(2, 2, 2, check="light"),
}


def mapping_of(iso):
    return None if iso is None else iso.mapping


@pytest.mark.parametrize("name", ISO_FIELDS)
def test_field_isomorphism_matches_the_reference_search(name):
    f = ISO_FIELDS[name]()
    g = relabelled(f, 3)
    for x, y in ((f, f), (f, g), (g, f)):
        got = field_isomorphism(x, y)
        assert got is not None
        assert got.mapping == reference_field_isomorphism(x, y)


@pytest.mark.parametrize("a,b", [
    ("F0(4)", "F0(2,2)"), ("F0(5)", "F0(3)xF0(3)"), ("odd(16)", "F0(4)"),
    ("odd(8)", "F0(3)"), ("odd(32)", "F0(5)"), ("F0(2)xF0(3)", "F0(4)"),
])
def test_field_isomorphism_finds_none_where_the_reference_finds_none(a, b):
    fa, fb = ISO_FIELDS[a](), ISO_FIELDS[b]()
    for x, y in ((fa, fb), (fb, fa)):
        assert field_isomorphism(x, y) is None
        assert reference_field_isomorphism(x, y) is None


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda m=m: residue_ring(m), id=f"Z/{m}") for m in (1, 2, 4, 8, 12, 16)),
    pytest.param(lambda: matrix_ring_z2(), id="M2(Z/2)"),
    pytest.param(lambda: build_envelope(build_f0(3)), id="U(F0(3))"),
    pytest.param(lambda: build_envelope(relabelled(build_f0(4), 1)), id="U(F0(4) relabelled)"),
])
def test_ring_isomorphism_matches_the_reference_search(build):
    ring = build()
    assert mapping_of(ring_isomorphism(ring, ring)) == reference_ring_isomorphism(ring, ring)


def test_ring_isomorphism_between_envelopes_keeps_the_odd_part():
    f = build_f0(4)
    e1, e2 = build_envelope(f), build_envelope(relabelled(f, 9))
    iso = ring_isomorphism(e1, e2)
    assert all(iso(i) < f.n for i in range(f.n))
    assert iso.mapping[:f.n] == field_isomorphism(f, e2.base).mapping


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
    other = build_envelope(relabelled(ring.base, 5)) if isinstance(ring, EnvelopeRing) else ring
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
    e1, e2 = build_envelope(f), build_envelope(relabelled(f, 2))
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


@pytest.mark.parametrize("build", [lambda: odd_residue_field(16), lambda: build_f0(4)],
                         ids=["odd(16)", "F0(4)"])
def test_quotient_by_every_principal_pair_ideal_matches_reference(build):
    f = build()
    env = build_envelope(f)
    for alpha in f.elements():
        ideal = IdealHandle(env, [env.pair_index(alpha)])
        labels, nu, mu, one = reference_quotient(f, ideal)
        got = quotient_by_ideal(f, ideal)
        assert got.class_reps == labels and got.field.one == one
        assert (got.field.carrier.nu == nu).all() and (got.field.carrier.mu == mu).all()


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
    assert not ring.is_commutative()
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
    alg, n = f.algebra, f.origin["exponents"][0]
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
        Morphism(f16, f8, reduce), env16, env8).mapping))
    inclusion = ThreeRingMap(f16, residue_ring(16), [int(f16.label(i)) for i in f16.elements()])
    maps.append((RingMorphism, env16, residue_ring(16),
                 universal_extension(inclusion, env16).mapping))
    maps.append((RingMorphism, residue_ring(8), residue_ring(4), [v % 4 for v in range(8)]))
    maps.append((ThreeRingMap, f16, residue_ring(16), inclusion.mapping))
    maps.append((ThreeRingMap, f5, build_envelope(f5), range(f5.n)))
    maps.append((ThreeRingMap, f4, residue_ring(8), [1, 3]))   # 1+1+1 = 3 in Z/4, not Z/8
    swap = swapped_coordinates(f5)
    maps.append((Morphism, f5, f5, swap))
    env5 = build_envelope(f5)
    maps.append((RingMorphism, env5, env5, swap + [f5.n + v for v in swap]))
    return maps


def one_image_mutants(source, target, mapping):
    """The mapping with one image moved, for every source element."""
    for i in range(source.n):
        bad = list(mapping)
        bad[i] = (bad[i] + 1 + i % max(1, target.n - 1)) % target.n
        yield bad


@pytest.mark.parametrize("block", [None, 64])
def test_map_checks_give_the_whole_table_messages(block, monkeypatch):
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    seen = set()
    for kind, source, target, mapping in valid_maps():
        for m in [list(mapping), *one_image_mutants(source, target, mapping)]:
            want = whole_table_map_error(kind, source, target, m)
            assert map_error(kind, source, target, m) == want, (kind, m)
            seen.add(want)
    assert len(seen) >= 7


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
    tables, for the classes r + elements of the odd part."""
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
    return None


@pytest.mark.parametrize("block", [None, 64])
def test_quotient_class_checks_give_the_whole_table_messages(block, monkeypatch):
    # the classes r + {0, p} of a translation set that is no ideal: the class
    # map then fails to carry mu onto the quotient's mu, and with mu made
    # constant (one) it passes that check and fails on nu
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
                quotient_by_ideal(field, ideal, check=False)
                got = None
            except StructureError as exc:
                got = str(exc)
            assert got == want
            seen.add(want)
    assert seen == {None, "multiplication is not constant on classes",
                    "addition is not constant on classes"}


def whole_table_parity_broken(env):
    par = env.parity
    return not ((par[env.add] == (par[:, None] + par[None, :]) % 2).all()
                and (par[env.mul] == par[:, None] * par[None, :]).all())


def test_parity_check_matches_the_whole_table_grading():
    # a flipped parity, or a sum or product of two pairs made odd: the base
    # still embeds, so only the grading fails, on add or on mul alone
    env = EnvelopeRing(build_f0(3), check=False)
    n = env.base.n
    good = env.parity.copy()
    env._validate_envelope()
    assert not whole_table_parity_broken(env)
    mutants = []
    for flip in range(env.n):
        par = good.copy()
        par[flip] ^= 1
        mutants.append((par, env.add, env.mul))
    for i, j in [(n, n), (n + 1, 2 * n - 1), (2 * n - 1, n + 2)]:
        for which in ("add", "mul"):
            table = getattr(env, which).copy()
            table[i, j] = 0                            # an odd element
            mutants.append((good, *((table, env.mul) if which == "add" else (env.add, table))))
    for env.parity, env.add, env.mul in mutants:
        assert whole_table_parity_broken(env)
        with pytest.raises(StructureError, match="^parity grading broken$"):
            env._validate_envelope()


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
