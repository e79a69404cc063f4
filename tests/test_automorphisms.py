"""Tests for substitution endomorphisms, automorphism groups, and their
Cayley/composition tables on the singly generated quotient fields."""

import itertools
from unittest import mock

import numpy as np
import pytest

from ternfield import (
    CompositionTable,
    Morphism,
    StructureError,
    TernaryPolynomial,
    automorphism_group,
    build_f0,
    cayley_table,
    enumerate_endomorphisms,
    fingerprint_group,
    letter_label_map,
    odd_residue_field,
    truncation_morphism,
)
from ternfield import automorphisms, pair_envelope, poly_fields, ternary_kernel
from ternfield.automorphisms import composition_table
from ternfield.poly_fields import generated_subalgebra

from oracles import compose_elements, mask_path, whole_cube_assoc_witness


# ---------------------------------------------------------------------------
# letter labels
# ---------------------------------------------------------------------------

def test_letter_labels_for_four_element_field():
    f = build_f0(3)
    m = letter_label_map(f)
    assert m[f.one] == "1"
    assert m[f.index("x")] == "a"
    assert m[f.index("x^2")] == "b"
    assert m[f.index("x^2+x+1")] == "c"


def test_letter_labels_cover_every_element():
    for n in (2, 3, 4, 5):
        f = build_f0(n)
        m = letter_label_map(f)
        assert sorted(m) == list(range(f.n))
        assert len(set(m.values())) == f.n


def test_letter_labels_refuse_other_fields():
    with pytest.raises(StructureError, match="letter naming"):
        letter_label_map(odd_residue_field(8))
    with pytest.raises(StructureError, match="letter naming"):
        letter_label_map(build_f0(6))  # no letter table this large


# ---------------------------------------------------------------------------
# composition of elements (polynomial substitution)
# ---------------------------------------------------------------------------

def test_substituting_into_x_is_identity():
    f = build_f0(4)
    x = f.index("x")
    for e in range(f.n):
        assert compose_elements(f, x, e) == e
        assert compose_elements(f, e, x) == e


def test_substitution_example_x_squared_into_itself():
    # (x^2)(x^2) = x^4 = 1 in the four-element field
    f = build_f0(3)
    b = f.index("x^2")
    assert compose_elements(f, b, b) == f.one


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_composition_table_matches_compose_elements(n):
    f = build_f0(n)
    table = composition_table(f)
    assert table.shape == (f.n, f.n)
    for i in range(f.n):
        for j in range(f.n):
            assert table[i, j] == compose_elements(f, i, j)


def _mask_composition(f):
    """The composition table the way it was built on coefficient masks: the
    powers of every element as masks, XORed over the x-bits of each P and
    searched back to indices in the sorted carrier."""
    alg = mask_path(f.algebra)
    masks = np.array(alg.carrier, dtype=np.int64)
    powers = np.empty((len(alg.monomials), f.n), dtype=np.int64)
    powers[0] = f.one
    for k in range(1, len(alg.monomials)):
        powers[k] = f.carrier.mu[powers[k - 1], np.arange(f.n)]
    xmasks = np.array([alg.to_x(m) for m in alg.carrier], dtype=np.int64)
    out = np.zeros((f.n, f.n), dtype=np.int64)
    for k in range(len(alg.monomials)):
        out ^= (xmasks[:, None] >> k & 1) * masks[powers[k]]
    return np.searchsorted(masks, out)


@pytest.mark.parametrize("n", range(1, 9))
def test_composition_table_matches_the_mask_path(n):
    f = build_f0(n, check=False)
    assert (composition_table(f) == _mask_composition(f)).all()


def test_substitution_is_associative():
    f = build_f0(3)
    for p in range(f.n):
        for q in range(f.n):
            for r in range(f.n):
                left = compose_elements(f, compose_elements(f, p, q), r)
                right = compose_elements(f, p, compose_elements(f, q, r))
                assert left == right


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_element_is_an_endomorphism_image(n):
    f = build_f0(n)
    endos = enumerate_endomorphisms(f)
    assert len(endos) == f.n
    table = composition_table(f)
    assert [e.mapping for e in endos] == [tuple(table[:, i]) for i in range(f.n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_endomorphisms_preserve_both_operations_brute_force(n):
    # Independent of the Morphism validator: replay the homomorphism
    # conditions elementwise for every enumerated endomorphism.
    f = build_f0(n)
    for endo in enumerate_endomorphisms(f):
        h = endo.mapping
        assert h[f.one] == f.one
        for a in range(f.n):
            for b in range(f.n):
                assert h[f.mu(a, b)] == f.mu(h[a], h[b])
                for c in range(f.n):
                    assert h[f.nu(a, b, c)] == f.nu(h[a], h[b], h[c])


def test_substituting_x_is_the_identity_map():
    f = build_f0(3)
    table = composition_table(f)
    ident = Morphism(f, f, table[:, f.index("x")])
    assert ident.mapping == tuple(range(f.n))
    squarer = Morphism(f, f, table[:, f.index("x^2")])
    assert squarer.mapping != tuple(range(f.n))


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,order", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 8),
                                     (6, 16), (7, 32), (8, 64), (9, 128)])
def test_automorphism_group_orders(n, order):
    aut = automorphism_group(build_f0(n))
    assert aut.order == order
    assert aut.is_latin_square()


def test_automorphism_group_builds_no_polynomials_and_composes_no_pairs():
    calls = []

    def counting(name):
        original = getattr(TernaryPolynomial, name)

        def counted(self, *args):
            calls.append(name)
            return original(self, *args)
        return mock.patch.object(TernaryPolynomial, name, counted)

    f = build_f0(5)
    with counting("__mul__"), counting("__add__"), counting("__radd__"), \
            counting("add3"):
        assert automorphism_group(f).order == 8
        assert calls == []
        generated_subalgebra(f, [f.index("x")])     # the counters do count
        assert "__mul__" in calls and "add3" in calls


def counting(module, name, source=None):
    return mock.patch.object(module, name, wraps=getattr(source or module, name))


@pytest.mark.parametrize("k", [5, 6, 7])
def test_automorphism_group_decides_one_retract_and_walks_no_map(k):
    # the light build certifies the retract it was born from on o alone,
    # its nu invariants passing by it, and the group's maps read that one
    # retract; no cube of nu is built or compared.  Every substitution map
    # is checked in one stacked call and every generator closure in one
    # batched call: no Morphism is built and no set is closed alone
    with counting(ternary_kernel, "_retract_certificate") as retract, \
            counting(ternary_kernel, "_coset_retract") as cube, \
            counting(pair_envelope, "_map_violation") as walked, \
            counting(automorphisms, "Morphism") as built, \
            counting(poly_fields, "_subalgebra_closure") as closed, \
            counting(automorphisms, "_subalgebra_closures", poly_fields) as batched:
        f = build_f0(k, check="light")
        assert retract.call_count == 1
        assert automorphism_group(f).order == 1 << (k - 2)
    assert retract.call_count == 1 and walked.call_count == 0
    assert built.call_count == closed.call_count == 0 and batched.call_count == 1
    assert cube.call_count == 0 and "nu" not in vars(f.carrier)


def _mutated_tables(f, rng):
    """Composition tables of f with one column's map broken: its unit image
    moved, one other image moved, or the map replaced by the exchange of
    the two lowest index bits, which keeps nu (the XOR of indices) and not
    mu."""
    table = composition_table(f)
    swap = np.arange(f.n) & ~3 | (np.arange(f.n) & 1) << 1 | (np.arange(f.n) & 2) >> 1
    for j in rng.choice(f.n, size=4, replace=False):
        for i in (f.one, rng.integers(1, f.n)):
            mutant = table.copy()
            mutant[i, j] = (table[i, j] + rng.integers(1, f.n)) % f.n
            yield mutant
        mutant = table.copy()
        mutant[:, j] = swap
        yield mutant


def _message(run):
    with pytest.raises(StructureError) as exc:
        run()
    return str(exc.value)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_a_failing_stack_raises_the_per_map_message(k):
    # a table whose stack fails raises the law that enumerate_endomorphisms
    # raises for the map it refuses
    f = build_f0(k, check="light")
    messages = set()
    for mutant in _mutated_tables(f, np.random.default_rng(k)):
        with mock.patch.object(automorphisms, "composition_table", return_value=mutant):
            want = _message(lambda: enumerate_endomorphisms(f))
            assert _message(lambda: automorphism_group(f)) == want
        messages.add(want)
    assert messages == {"unit is not preserved", "ternary addition is not preserved",
                        "multiplication is not preserved"}


def test_a_stack_of_maps_between_unproven_fields_is_refused(monkeypatch):
    # an unproven side walks each law, which reads one map: a stack is
    # refused, whatever ran before it, and its columns are decided alone
    f = build_f0(3, check=False)
    table = composition_table(f)
    monkeypatch.setattr(ternary_kernel.TernaryCarrier, "generators",
                        property(lambda self: None))
    with pytest.raises(StructureError, match="a stack of maps needs"):
        pair_envelope._morphism_failure(table, f, f)
    assert [pair_envelope._morphism_failure(table[:, j], f, f) for j in range(f.n)] \
        == [None] * f.n


def test_the_two_routes_are_asserted_to_agree():
    # the generator route is decided apart from the composition table: a
    # closure that misses one automorphism's image is a disagreement
    f = build_f0(5, check="light")
    closures = poly_fields._subalgebra_closures

    def short(field, seeds):
        masks = closures(field, seeds)
        masks[f.index("x"), 0] = False
        return masks
    with mock.patch.object(automorphisms, "_subalgebra_closures", short):
        with pytest.raises(StructureError, match=r"^the two automorphism criteria disagree: "
                           r"inverse-route \[1, .*\] vs generator-route \[\d+, "):
            automorphism_group(f)


def test_an_unproven_field_is_refused_by_the_generator_route(monkeypatch):
    # the batched closure reads nu over the certified retract
    f = build_f0(4, check=False)
    monkeypatch.setattr(ternary_kernel.TernaryCarrier, "generators",
                        property(lambda self: None))
    with pytest.raises(StructureError, match="certified retract"):
        automorphism_group(f)


def test_an_unchecked_field_decides_its_retract_once():
    # the first map reads the field's generator sets, which decide its
    # retract and mu's laws from the tables: the coset pass is paid once
    # and no map is walked, as for the light-built field, which certifies
    # its retract when it is built, and the two groups are the same
    unchecked = build_f0(7, check=False)
    with mock.patch.object(ternary_kernel, "_retract_certificate",
                           wraps=ternary_kernel._retract_certificate) as retract, \
            mock.patch.object(ternary_kernel, "_coset_retract",
                              wraps=ternary_kernel._coset_retract) as cube, \
            mock.patch.object(pair_envelope, "_map_violation",
                              wraps=pair_envelope._map_violation) as walked:
        got = automorphism_group(unchecked)
        assert retract.call_count == 1 and walked.call_count == 0
        want = automorphism_group(build_f0(7, check="light"))
    assert retract.call_count == 2 and walked.call_count == 0 and cube.call_count == 0
    assert got.elements == want.elements and got.identity == want.identity
    assert (got.table == want.table).all()


def test_an_unchecked_field_walks_none_of_its_endomorphisms():
    f = build_f0(4, check=False)                 # no cheap law decided when built
    with counting(pair_envelope, "_map_violation") as walked, \
            counting(automorphisms, "Morphism") as built, \
            counting(poly_fields, "_subalgebra_closure") as closed:
        assert automorphism_group(f).order == 4
    # proved by the stack's read of the generators
    assert walked.call_count == built.call_count == closed.call_count == 0


def test_four_element_field_has_one_nontrivial_automorphism():
    f = build_f0(3)
    aut = automorphism_group(f)
    assert sorted(aut.labels(letters=True)) == ["a", "c"]
    c = aut.position("c", letters=True)
    # c is an involution: c o c = x
    assert aut.table[c, c] == aut.identity
    assert aut.labels(letters=True)[aut.identity] == "a"


def test_eight_element_field_automorphisms_are_klein_four():
    aut = automorphism_group(build_f0(4))
    assert sorted(aut.labels(letters=True)) == ["a", "c", "d", "f"]
    fp = fingerprint_group(aut)
    assert fp["order"] == 4
    assert fp["abelian"] is True
    assert fp["element_orders"] == [1, 2, 2, 2]
    assert fp["iso_class"] == ("C2 x C2 (the Klein four group, a.k.a. the "
                               "dihedral group of order 4)")


GOLDEN_AUT16 = {
    "a": ["a", "c", "e", "g", "p", "r", "t", "v"],
    "c": ["c", "a", "p", "r", "e", "g", "v", "t"],
    "e": ["e", "v", "g", "t", "c", "p", "a", "r"],
    "g": ["g", "r", "t", "a", "v", "c", "e", "p"],
    "p": ["p", "t", "r", "v", "a", "e", "c", "g"],
    "r": ["r", "g", "v", "c", "t", "a", "p", "e"],
    "t": ["t", "p", "a", "e", "r", "v", "g", "c"],
    "v": ["v", "e", "c", "p", "g", "t", "r", "a"],
}


def test_sixteen_element_field_automorphism_table_is_golden():
    aut = automorphism_group(build_f0(5))
    order = ["a", "c", "e", "g", "p", "r", "t", "v"]
    g = aut.reorder(order, letters=True)
    assert g.labels(letters=True) == order
    for i, lab in enumerate(order):
        row = [g.entry_label(i, j, letters=True) for j in range(8)]
        assert row == GOLDEN_AUT16[lab], f"row {lab} differs"


def test_sixteen_element_field_automorphisms_are_dihedral():
    fp = fingerprint_group(automorphism_group(build_f0(5)))
    assert fp["order"] == 8
    assert fp["abelian"] is False
    assert fp["iso_class"] == "D4 (the dihedral group of order 8)"
    assert fp["element_orders"] == [1, 2, 2, 2, 2, 2, 4, 4]


# ---------------------------------------------------------------------------
# multiplication Cayley tables and fingerprints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,iso", [
    (2, "C2"),
    (3, "C4"),
    (4, "C4 x C2"),
    (5, "C8 x C2"),
])
def test_multiplicative_group_fingerprints(n, iso):
    t = cayley_table(build_f0(n))
    assert t.mode == "multiplication"
    assert t.is_latin_square()
    fp = fingerprint_group(t)
    assert fp["iso_class"] == iso
    assert fp["abelian"] is True


def test_multiplication_table_matches_field_mu():
    f = build_f0(3)
    t = cayley_table(f)
    for a in range(f.n):
        for b in range(f.n):
            assert int(t.table[a, b]) == f.mu(a, b)


# ---------------------------------------------------------------------------
# CompositionTable surface
# ---------------------------------------------------------------------------

def test_reorder_is_a_relabeled_isomorphic_table():
    t = cayley_table(build_f0(3))
    labs = t.labels()
    g = t.reorder(list(reversed(labs)))
    assert g.labels() == list(reversed(labs))
    for a in range(4):
        for b in range(4):
            assert g.entry_label(a, b) == t.entry_label(3 - a, 3 - b)


def test_reorder_rejects_duplicates_and_unknowns():
    t = cayley_table(build_f0(3))
    with pytest.raises(StructureError, match="every element exactly once"):
        t.reorder(["1", "1", "x", "x"])
    with pytest.raises(StructureError, match="every element exactly once"):
        t.reorder(t.labels() + ["1"])
    with pytest.raises(StructureError, match="every element exactly once"):
        t.reorder(t.labels()[:-1])
    with pytest.raises(StructureError, match="no element labeled"):
        t.position("nope")


def _reorder_by_loop(t, order):
    """The reference: each cell of the reordered table looked up one by one."""
    pos = [t.position(lab) for lab in order]
    inv = {p: i for i, p in enumerate(pos)}
    k = t.order
    table = np.empty((k, k), dtype=np.int32)
    for a in range(k):
        for b in range(k):
            table[a, b] = inv[int(t.table[pos[a], pos[b]])]
    return table, inv[t.identity]


@pytest.mark.parametrize("make", [
    lambda: automorphism_group(build_f0(5)),
    lambda: cayley_table(build_f0(4)),
    lambda: cayley_table(build_f0(5)),
], ids=["aut F0(5)", "mult F0(4)", "mult F0(5)"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reorder_gather_matches_the_cell_loop(make, seed):
    t = make()
    order = t.labels()
    np.random.default_rng(seed).shuffle(order)
    table, identity = _reorder_by_loop(t, order)
    g = t.reorder(order)
    assert g.labels() == order
    assert (g.table == table).all()
    assert g.identity == identity


def test_markdown_and_csv_exports():
    t = automorphism_group(build_f0(3))
    md = t.to_markdown(letters=True)
    assert md.splitlines()[0] == "| o | a | c |"
    assert "| **c** | c | a |" in md
    csv = t.to_csv(letters=True)
    assert csv.splitlines() == ["o,a,c", "a,a,c", "c,c,a"]
    mult_csv = cayley_table(build_f0(2)).to_csv()
    assert mult_csv.splitlines()[0].startswith("*,")


def test_table_json_round_trip():
    t = automorphism_group(build_f0(4))
    doc = t.to_json()
    assert doc["mode"] == "composition"
    assert len(doc["elements"]) == 4
    assert doc["table"][doc["identity"]] == list(range(4))
    rebuilt = CompositionTable(t.field, t.elements, np.array(doc["table"]),
                               doc["identity"], doc["mode"])
    assert (rebuilt.table == t.table).all()


def test_constructor_validates_shape_and_range():
    f = build_f0(2)
    with pytest.raises(StructureError, match="shape"):
        CompositionTable(f, [0, 1], np.zeros((2, 3), dtype=np.int32), 0, "multiplication")
    # the right number of entries in another shape is not reshaped
    with pytest.raises(StructureError, match=r"must have shape \(2, 2\): got shape \(4,\)"):
        CompositionTable(f, [0, 1], [0, 1, 1, 0], 0, "multiplication")
    with pytest.raises(StructureError, match=r"must lie in \[0, 2\)"):
        CompositionTable(f, [0, 1], np.array([[0, 1], [1, 5]]), 0, "multiplication")


def test_constructor_reads_the_table_without_truncating():
    # 1.5 was truncated to 1, and the table fingerprinted as C2
    f = build_f0(3)
    with pytest.raises(StructureError, match="must be integers"):
        CompositionTable(f, [0, 1], [[0, 1.5], [1, 0]], 0, "multiplication")
    with pytest.raises(StructureError, match="ragged"):
        CompositionTable(f, [0, 1], [[0, 1], [1]], 0, "multiplication")
    # integral floats are read as the integers they are
    t = CompositionTable(f, [0, 1], [[0.0, 1.0], [1.0, 0.0]], 0, "multiplication")
    assert t.table.tolist() == [[0, 1], [1, 0]]


# ---------------------------------------------------------------------------
# fingerprint validation paths
# ---------------------------------------------------------------------------

def test_fingerprint_rejects_broken_identity():
    f = build_f0(2)
    t = CompositionTable(f, [0, 1], np.array([[1, 1], [1, 0]]), 0, "multiplication")
    with pytest.raises(StructureError, match="identity"):
        fingerprint_group(t)


def test_fingerprint_rejects_missing_inverse():
    f = build_f0(2)
    # 0 is an identity and composition is associative, but 1 has no inverse
    t = CompositionTable(f, [0, 1], np.array([[0, 1], [1, 1]]), 0, "multiplication")
    with pytest.raises(StructureError, match="no inverse"):
        fingerprint_group(t)


@pytest.mark.parametrize("block", [None, 64])
def test_fingerprint_reports_the_least_associativity_witness(block, monkeypatch):
    if block:                                   # one table row per chunk
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(5)
    witnesses = set()
    for t in (cayley_table(build_f0(5)), automorphism_group(build_f0(5))):
        others = [i for i in range(t.order) if i != t.identity]
        for _ in range(15):
            # two cells outside the identity row and column swapped
            (a, b), (c, d) = rng.choice(others, size=(2, 2))
            table = t.table.copy()
            table[a, b], table[c, d] = t.table[c, d], t.table[a, b]
            want = whole_cube_assoc_witness(table)
            mutant = CompositionTable(t.field, t.elements, table, t.identity, t.mode)
            if want is None:
                continue
            with pytest.raises(StructureError, match=r"composition is not associative "
                               r"at \({},{},{}\)$".format(*want)):
                fingerprint_group(mutant)
            witnesses.add(want)
    assert len(witnesses) >= 20


def test_fingerprint_trivial_group():
    fp = fingerprint_group(automorphism_group(build_f0(1)))
    assert fp == {"order": 1, "abelian": True, "element_orders": [1],
                  "iso_class": "C1"}


# ---------------------------------------------------------------------------
# truncation morphisms between the quotient fields
# ---------------------------------------------------------------------------

def test_truncation_is_a_surjective_morphism():
    f5, f3 = build_f0(5), build_f0(3)
    t = truncation_morphism(f5, f3)
    assert t.mapping[f5.index("x")] == f3.index("x")
    assert t.mapping[f5.one] == f3.one
    assert set(t.mapping) == set(range(f3.n))


@pytest.mark.parametrize("m", range(1, 9))
def test_truncation_keeps_the_low_coefficients(m):
    source = build_f0(m, check=False)
    for n in range(1, m + 1):
        target = build_f0(n, check=False)
        keep = (1 << n) - 1
        masks = [mask_path(target.algebra).index_of[v & keep]
                 for v in mask_path(source.algebra).carrier]
        assert list(truncation_morphism(source, target).mapping) == masks


def test_truncations_compose():
    f5, f4, f3 = build_f0(5), build_f0(4), build_f0(3)
    ab = truncation_morphism(f5, f4)
    bc = truncation_morphism(f4, f3)
    ac = truncation_morphism(f5, f3)
    for i in range(f5.n):
        assert bc.mapping[ab.mapping[i]] == ac.mapping[i]


def test_truncation_to_self_is_identity():
    f = build_f0(4)
    t = truncation_morphism(f, f)
    assert list(t.mapping) == list(range(f.n))


def test_no_truncation_upward():
    with pytest.raises(StructureError, match="truncation"):
        truncation_morphism(build_f0(3), build_f0(5))


def _abelian_table(*orders):
    """The Cayley table of C_n1 x ... x C_nr, elements in lexicographic order."""
    elements = list(itertools.product(*map(range, orders)))
    index = {e: i for i, e in enumerate(elements)}
    return np.array([[index[tuple((a + b) % n for a, b, n in zip(x, y, orders))]
                      for y in elements] for x in elements])


@pytest.mark.parametrize("orders,iso", [
    ((9,), "C9"), ((3, 3), "C3 x C3"), ((10,), "C10"), ((12,), "C12"),
    ((6, 2), "C6 x C2"), ((14,), "C14"), ((15,), "C15"), ((16,), "C16"),
    ((8, 2), "C8 x C2"), ((4, 4), "C4 x C4"), ((4, 2, 2), "C4 x C2 x C2"),
    ((2, 2, 2, 2), "C2 x C2 x C2 x C2"),
])
def test_fingerprint_names_the_abelian_groups_up_to_order_16(orders, iso):
    table = _abelian_table(*orders)
    t = CompositionTable(build_f0(1), range(len(table)), table, 0, "composition")
    assert fingerprint_group(t)["iso_class"] == iso
