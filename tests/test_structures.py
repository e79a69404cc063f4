"""Tests for 3-vector spaces, free resolutions, and the matrix, quaternion,
and group-algebra constructions of new 3-fields from old."""

import itertools
from unittest import mock

import numpy as np
import pytest

from ternfield import (
    CarrierSizeError,
    StructureError,
    ThreeVectorSpace,
    automorphism_group,
    build_envelope,
    build_f0,
    cayley_table,
    cyclic_group,
    free_resolution,
    free_space,
    group_algebra,
    odd_residue_field,
    quaternion_conjugation_check,
    quaternion_field,
    quaternion_inverse_check,
    quotient_field_space,
    toeplitz_field,
    triangular_field,
    vector_power_space,
)
from ternfield import structures, ternary_kernel
from ternfield.poly_fields import QuotientFieldSpec, build_quotient_field
from ternfield._suite import AUT5_LETTER_ORDER

from oracles import (
    add3,
    combination,
    group_table_mutants,
    mask_path,
    matrix,
    scalar_element_orders,
    scalar_free_resolution,
    scalar_inverse_error,
    tuple_index,
    whole_cube_assoc_witness,
)


def _base(spec):
    """The base fields the reference tests run over, by spec name."""
    if spec.startswith("F0("):
        return build_f0(int(spec[3:-1]))
    return odd_residue_field(int(spec[4:-1]))


@pytest.fixture(scope="module")
def f1():
    return odd_residue_field(2)  # the one-element field {1}


@pytest.fixture(scope="module")
def f4():
    return odd_residue_field(4)  # {1, 3} in the 4-residue ring


# ---------------------------------------------------------------------------
# 3-vector spaces
# ---------------------------------------------------------------------------

def test_free_space_size_and_basis(f4):
    space = free_space(f4, 2)
    # (2|F|)^n / 2 tuples with odd coordinate sum
    assert space.n == 8
    assert [space.label(b) for b in space.basis] == ["(1,q(3))", "(q(3),1)"]
    for b in space.basis:
        assert b in space


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 32)])
def test_free_space_cardinality_formula(f4, n, expected):
    assert free_space(f4, n).n == expected
    assert free_space(f4, n).n == (2 * f4.n) ** n // 2


def _vectors(space):
    """The carrier tuples of a space, in carrier order."""
    return [tuple(v) for v in space.tables.tuples.tolist()]


def test_free_space_closed_under_ternary_addition(f4):
    space = free_space(f4, 2)
    for u in _vectors(space)[:4]:
        for v in _vectors(space)[:4]:
            for w in _vectors(space)[:4]:
                assert add3(space, u, v, w) in space


def test_membership_is_the_position_in_the_tables(f4):
    space = vector_power_space(f4, 2)
    env = space.env
    assert [v in space for v in _vectors(space)] == [True] * 4
    assert list(space.tables.position(space.tables.tuples)) == [0, 1, 2, 3]
    # (n, 0) has the code of (0, 1) in base n; it is out of range, not (0, 1)
    assert (env.n, 0) not in space and (0, 1) in space
    assert (-1, 1) not in space
    assert (0,) not in space and (0, 0, 0) not in space       # wrong widths


@pytest.mark.parametrize("width", [63, 64, 65, 70])
def test_membership_in_a_wide_space_over_one_element(width):
    # over odd(2) the envelope has two elements, so the code of a width-64
    # tuple no longer fits in int64; q(1) at the last coordinate must still
    # be told apart from the one vector (1, ..., 1)
    space = vector_power_space(_base("odd(2)"), width)
    env = space.env
    assert space.n == 1
    assert space.tables.tuples.tolist() == [[env.index("1")] * width]
    assert space.from_labels(["1"] * width) in space
    with pytest.raises(StructureError, match="is not in the space"):
        space.from_labels(["1"] * (width - 1) + ["q(1)"])
    gen = space.from_labels(["1"] * width)
    with pytest.raises(StructureError, match="is not in the space"):
        free_resolution(space, [gen[:-1] + (env.index("q(1)"),)])
    assert free_resolution(space, [gen])["formula_holds"]


def test_odd_scalar_combinations_stay_inside(f4):
    space = free_space(f4, 2)
    env = space.env
    u, v = space.basis
    # scalar sums 1 + q(1) = even + odd = odd stays in; the combination of
    # two odd scalars leaves the carrier
    inside = combination(space, (env.index("1"), env.index("q(1)")), (u, v))
    assert inside in space
    outside = combination(space, (env.index("1"), env.index("3")), (u, v))
    assert outside not in space


def test_vector_power_space_lists_plain_tuples(f4):
    space = vector_power_space(f4, 2)
    assert space.n == 4
    assert sorted(space.label(v) for v in _vectors(space)) == [
        "(1,1)", "(1,3)", "(3,1)", "(3,3)"]


def test_from_labels_round_trip(f4):
    space = vector_power_space(f4, 2)
    v = space.from_labels(("3", "1"))
    assert space.label(v) == "(3,1)"
    with pytest.raises(StructureError, match="not in the space"):
        space.from_labels(("q(1)", "1"))  # even first coordinate


def test_quotient_field_coefficient_space():
    big = build_f0(3)
    one = build_f0(1)
    space = quotient_field_space(big, one)
    assert space.n == big.n
    assert space.width == 3
    # the unit has shifted-coordinate mask 1: only bit 0 is present
    labels = {space.label(v) for v in _vectors(space)}
    assert "(1,q(1),q(1))" in labels


def test_quotient_field_space_requires_one_element_scalars(f4):
    with pytest.raises(StructureError, match="one-element"):
        quotient_field_space(build_f0(3), f4)
    with pytest.raises(StructureError, match="algebra"):
        quotient_field_space(f4, build_f0(1))


def test_duplicate_vectors_rejected(f4):
    env = build_envelope(f4)
    with pytest.raises(StructureError, match="duplicate"):
        ThreeVectorSpace(f4, 1, [(0,), (0,)], "dup", env)


# ---------------------------------------------------------------------------
# free resolutions
# ---------------------------------------------------------------------------

def test_resolution_of_rank_two_power(f4):
    space = vector_power_space(f4, 2)
    g1 = space.from_labels(("1", "1"))
    g2 = space.from_labels(("3", "1"))
    report = free_resolution(space, [g1, g2])
    assert report["space_size"] == 4
    assert report["free_size"] == 8
    assert report["kernel_size"] == 2
    assert sorted(report["kernel"]) == [("q(1)", "q(1)"), ("q(3)", "q(3)")]
    assert report["formula_size"] == 4
    assert report["formula_holds"] is True


def test_resolution_kernel_scales_with_redundancy(f4):
    # three generators of F^1: kernel grows, formula still collapses to |F|
    space = vector_power_space(f4, 1)
    gens = [space.from_labels(("1",)), space.from_labels(("3",)),
            space.from_labels(("1",))]
    report = free_resolution(space, gens)
    assert report["free_size"] == 32
    assert report["formula_size"] == report["free_size"] // report["kernel_size"]
    assert report["formula_holds"] is True


def test_resolution_rejects_foreign_generators(f4):
    space = vector_power_space(f4, 2)
    # a tuple with even coordinates lives in U(F)^2 but not in F^2
    outside = (space.env.index("q(1)"), space.env.index("q(1)"))
    with pytest.raises(StructureError, match="not in the space"):
        free_resolution(space, [outside])


def _resolution_or_error(resolve, space, gens):
    try:
        return resolve(space, gens)
    except StructureError as exc:
        return str(exc)


def _resolution_cases():
    """(space, generator sets) pairs: vector powers, free spaces, a
    coefficient space, and the one-vector space {(1)} of odd(4), whose odd
    combination 3 * (1) leaves the carrier."""
    for spec in ("F0(1)", "odd(4)", "odd(8)", "F0(2)"):
        field = _base(spec)
        for width in (1, 2):
            space = vector_power_space(field, width)
            vs = _vectors(space)
            yield space, [vs[:1], vs[:2], vs[-2:], vs[:3], [vs[0]] * 3, []]
        space = free_space(field, 2)
        yield space, [space.basis, _vectors(space)[:2], space.basis[::-1]]
    space = quotient_field_space(build_f0(3), build_f0(1))
    yield space, [_vectors(space)[:k] for k in (1, 2, 3)]
    f4 = odd_residue_field(4)
    yield (ThreeVectorSpace(f4, 1, [(f4.one,)], "one vector", build_envelope(f4)),
           [[(f4.one,)], []])


def test_resolution_matches_the_per_tuple_loop():
    seen = set()
    for space, generator_sets in _resolution_cases():
        for gens in generator_sets:
            want = _resolution_or_error(scalar_free_resolution, space, gens)
            assert _resolution_or_error(free_resolution, space, gens) == want
            seen.add(want.split(" ")[0] if isinstance(want, str) else "report")
    # reports, and each error: not generating, and a combination that left
    assert seen == {"report", "generators", "combination"}


def test_resolution_rejects_non_generating_set(f4):
    # a single generator of F^2 cannot reach all four vectors
    space = vector_power_space(f4, 2)
    with pytest.raises(StructureError, match="do not generate"):
        free_resolution(space, [space.from_labels(("1", "1"))])


# ---------------------------------------------------------------------------
# Toeplitz matrix 3-fields
# ---------------------------------------------------------------------------

def test_toeplitz_over_one_element_field_is_the_quotient_field(f1):
    result = toeplitz_field(3, f1)
    assert result.field.n == 4
    assert result.layout.shape == (3, 3)
    iso = result.isomorphism
    assert iso is not None
    assert iso.source.n == 4 and iso.target.n == 4
    assert iso.is_bijective()
    # the unit is the identity matrix (off-diagonal cells hold the zero q(1))
    assert matrix(result, result.field.one) == [
        ["1", "q(1)", "q(1)"],
        ["q(1)", "1", "q(1)"],
        ["q(1)", "q(1)", "1"],
    ]


def test_toeplitz_iso_carries_multiplication(f1):
    result = toeplitz_field(3, f1)
    iso = result.isomorphism
    src, dst = iso.source, iso.target
    for a in range(src.n):
        for b in range(src.n):
            assert iso.mapping[src.mu(a, b)] == dst.mu(iso.mapping[a],
                                                       iso.mapping[b])


def test_toeplitz_over_four_residues(f4):
    result = toeplitz_field(3, f4)
    assert result.field.n == f4.n * (2 * f4.n) ** 2 == 32
    assert result.isomorphism is not None
    assert result.isomorphism.is_bijective()
    mu = result.field.carrier.mu
    assert (mu == mu.T).all()


def test_toeplitz_matrices_multiply_like_the_field(f4):
    result = toeplitz_field(2, f4)
    env = result.env
    field = result.field
    for a in range(field.n):
        for b in range(field.n):
            ma = [[env.index(l) for l in row] for row in matrix(result, a)]
            mb = [[env.index(l) for l in row] for row in matrix(result, b)]
            prod = [[env.zero] * 2 for _ in range(2)]
            for r in range(2):
                for c in range(2):
                    acc = env.zero
                    for k in range(2):
                        acc = env.add_at(acc, env.mul_at(ma[r][k], mb[k][c]))
                    prod[r][c] = acc
            expect = [[env.index(l) for l in row]
                      for row in matrix(result, field.mu(a, b))]
            assert prod == expect


@pytest.mark.parametrize("mod,size", [(4, 2), (4, 3), (8, 2), (8, 3), (16, 1), (16, 2)])
def test_toeplitz_isomorphism_follows_the_quotient_order(mod, size):
    # the quotient field's order enumerated independently: every tuple with
    # an odd constant, sorted by the reversed tuple
    field = odd_residue_field(mod)
    result = toeplitz_field(size, field)
    env = result.env
    vectors = sorted((v for v in itertools.product(range(mod), repeat=size) if v[0] % 2),
                     key=lambda v: v[::-1])
    res_to_env = {}
    for i in range(field.n):
        val = int(field.labels[i])
        res_to_env[val] = i
        res_to_env[(val + 1) % mod] = env.pair_index(i)
    index = tuple_index(result.tables)
    iso = result.isomorphism
    assert iso.source.n == len(vectors) == result.field.n
    assert list(iso.mapping) == [index[tuple(res_to_env[c] for c in v)] for v in vectors]


@pytest.mark.parametrize("spec,size", [("F0(1)", 1), ("F0(1)", 4), ("odd(2)", 2), ("odd(2)", 3)])
def test_toeplitz_isomorphism_over_one_element_follows_the_masks(spec, size):
    # over a one-element base the quotient field's element with bit mask m
    # has coefficient 1 of x^t exactly where bit t of m is set
    field = _base(spec)
    result = toeplitz_field(size, field)
    env, index = result.env, tuple_index(result.tables)
    target = build_quotient_field(QuotientFieldSpec((size,)), check="light")
    assert list(result.isomorphism.mapping) == [
        index[tuple(env.one if mask >> t & 1 else env.zero for t in range(size))]
        for mask in mask_path(target.algebra).carrier]


def test_toeplitz_has_no_correspondence_over_other_bases():
    assert toeplitz_field(2, build_f0(2)).isomorphism is None


def test_toeplitz_size_one_is_the_base_field(f4):
    result = toeplitz_field(1, f4)
    assert result.field.n == f4.n


def test_toeplitz_rejects_bad_sizes(f4):
    with pytest.raises(StructureError, match="positive"):
        toeplitz_field(0, f4)
    with pytest.raises(CarrierSizeError):
        toeplitz_field(8, odd_residue_field(16))


# ---------------------------------------------------------------------------
# triangular matrix 3-fields
# ---------------------------------------------------------------------------

def test_triangular_is_noncommutative_over_four_residues(f4):
    result = triangular_field(2, f4)
    assert result.field.n == f4.n ** 2 * (2 * f4.n) == 16
    a_lab, b_lab = result.noncommutative_witness
    a = result.field.index(a_lab)
    b = result.field.index(b_lab)
    assert result.field.mu(a, b) != result.field.mu(b, a)


def test_triangular_over_one_element_field_is_commutative(f1):
    result = triangular_field(2, f1)
    assert result.field.n == 2
    assert result.noncommutative_witness is None


def _forward_substitution_inverse(env, field, m):
    """Inverse of a lower-triangular matrix over the envelope with diagonal
    in the field, by forward substitution."""
    n = len(m)
    out = [[env.zero] * n for _ in range(n)]
    for r in range(n):
        out[r][r] = field.inv(m[r][r])
    for r in range(n):
        for c in range(r):
            acc = env.zero
            for k in range(c, r):
                acc = env.add_at(acc, env.mul_at(m[r][k], out[k][c]))
            out[r][c] = env.neg_at(env.mul_at(out[r][r], acc))
    return out


def test_triangular_inverses_close_over_the_table():
    # the table's inverse must be the one forward substitution computes
    for size, spec in ((2, "odd(4)"), (2, "odd(8)"), (3, "F0(1)")):
        base = _base(spec)
        result = triangular_field(size, base)
        field, env = result.field, result.env
        for a in range(field.n):
            m = [[env.index(l) for l in row] for row in matrix(result, a)]
            expect = [[env.labels[e] for e in row]
                      for row in _forward_substitution_inverse(env, base, m)]
            j = field.inv(a)
            assert matrix(result, j) == expect
            assert field.mu(a, j) == field.one
            assert field.mu(j, a) == field.one


def test_triangular_unit_is_identity_matrix(f4):
    result = triangular_field(2, f4)
    assert matrix(result, result.field.one) == [["1", "q(3)"], ["q(3)", "1"]]


# ---------------------------------------------------------------------------
# quaternion 3-fields
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quat4(f4):
    return quaternion_field(f4)


def test_quaternion_carrier_size(quat4, f4):
    assert quat4.field.n == (2 * f4.n) ** 4 // 2 == 128


def test_quaternion_units_multiply_like_quaternions(quat4):
    field = quat4.field
    one = quat4.unit_index(0)
    i1, i2, i3 = (quat4.unit_index(k) for k in (1, 2, 3))
    assert one == field.one
    # i1 i2 = i3 but i2 i1 = -i3: the standard sign flip
    assert field.mu(i1, i2) == i3
    assert field.mu(i2, i1) != i3
    index = tuple_index(quat4.tables)
    minus_i3 = index[tuple(
        quat4.env.neg_at(c) if t > 0 else c
        for t, c in enumerate(quat4.tables.tuples[i3].tolist()))]
    assert field.mu(i2, i1) == minus_i3
    # each imaginary unit squares to -1
    minus_one = index[(quat4.env.index("3"),) + (quat4.env.zero,) * 3]
    for u in (i1, i2, i3):
        assert field.mu(u, u) == minus_one


def test_quaternion_noncommutative_witness_is_i1_i2(quat4):
    assert not quat4.commutative
    a_lab, b_lab = quat4.noncommutative_witness
    assert quat4.field.index(a_lab) == quat4.unit_index(1)
    assert quat4.field.index(b_lab) == quat4.unit_index(2)


def test_quaternion_conjugation_reverses_all_products(quat4):
    assert quaternion_conjugation_check(quat4) == 128 * 128


def whole_table_conjugation_error(result):
    """quaternion_conjugation_check's message from whole tables and a
    tuple -> index dict, or None."""
    env, mu = result.env, result.field.carrier.mu
    index = tuple_index(result.tables)
    conj = np.array([index[(v[0],) + tuple(env.neg_at(x) for x in v[1:])]
                     for v in result.tables.tuples.tolist()])
    bad = conj[mu] != mu[np.ix_(conj, conj)].T
    if not bad.any():
        return None
    a, b = np.argwhere(bad)[0]
    return (f"conjugation fails to reverse {result.quaternion(int(a))} * "
            f"{result.quaternion(int(b))}")


def _error(check, result):
    try:
        check(result)
    except StructureError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("block", [None, 64])
def test_quaternion_checks_on_one_cell_mutants_match_the_references(quat4, block,
                                                                   monkeypatch):
    # mu[a, a^-1] moved to a quaternion that is not its own conjugate (were
    # a * a^-1 = x with conj(x) = x, a unit a = conj(a^-1) would keep the
    # reversal law): both checks fail, each with its reference's message
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    field, env = quat4.field, quat4.env
    index = tuple_index(quat4.tables)
    moved = [x for x, v in enumerate(quat4.tables.tuples.tolist())
             if index[(v[0],) + tuple(env.neg_at(c) for c in v[1:])] != x]
    rng = np.random.default_rng(4)
    assert _error(quaternion_inverse_check, quat4) is None
    assert _error(quaternion_conjugation_check, quat4) is None
    for a in rng.choice(field.n, size=12, replace=False):
        mu = field.carrier.mu.copy()
        cell = (a, field.inv(a)) if a % 2 else (field.inv(a), a)
        mu[cell] = rng.choice(moved)
        mutant = ternary_kernel.FiniteThreeField(
            ternary_kernel.TernaryCarrier(field.labels, field.carrier.nu, mu),
            field.one, check=False)
        result = structures.QuaternionFieldResult(mutant, quat4.tables, False, None)
        want = scalar_inverse_error(result)
        assert want is not None and _error(quaternion_inverse_check, result) == want
        want = whole_table_conjugation_error(result)
        assert want is not None and _error(quaternion_conjugation_check, result) == want


def test_quaternion_inverse_formula_matches_table(quat4):
    assert quaternion_inverse_check(quat4) == 128


def test_quaternion_over_one_element_field_is_commutative(f1):
    # -1 = 1 in the two-element envelope, so the sign flips vanish
    result = quaternion_field(f1)
    assert result.field.n == 8
    assert result.commutative
    assert result.noncommutative_witness is None
    assert quaternion_inverse_check(result) == 8


# ---------------------------------------------------------------------------
# group 3-algebras
# ---------------------------------------------------------------------------

def test_cyclic_group_tables():
    assert cyclic_group(1).tolist() == [[0]]
    assert cyclic_group(3).tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    with pytest.raises(StructureError, match="positive"):
        cyclic_group(0)


@pytest.mark.parametrize("k,size,is_3field", [
    (1, 1, True),
    (2, 2, True),
    (3, 4, False),
    (4, 8, True),
    (6, 32, False),
])
def test_group_algebra_verdicts(f1, k, size, is_3field):
    result = group_algebra(cyclic_group(k), f1)
    assert result.group_order == k
    assert result.size == size
    assert result.is_3field is is_3field
    assert result.verdict_mode == "exhaustive"


def test_odd_order_group_fails_with_the_constant_witness(f1):
    result = group_algebra(cyclic_group(3), f1)
    assert result.witness == "(1,1,1)"
    assert result.field is None and result.isomorphism is None


def test_two_power_cyclic_algebra_is_the_quotient_field(f1):
    result = group_algebra(cyclic_group(4), f1)
    assert result.is_3field
    iso = result.isomorphism
    assert iso is not None
    assert iso.target.n == 8  # the 8-element single-variable quotient field
    assert iso.is_bijective()
    for a in range(result.field.n):
        for b in range(result.field.n):
            assert iso.mapping[result.field.mu(a, b)] == iso.target.mu(
                iso.mapping[a], iso.mapping[b])


def test_klein_group_algebra_is_a_field_without_the_correspondence(f1):
    klein = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    result = group_algebra(klein, f1)
    assert result.size == 8
    assert result.is_3field
    assert result.isomorphism is None  # not cyclic: no generator to map


def test_mixed_order_group_over_four_residues(f4):
    result = group_algebra(cyclic_group(2), f4)
    assert result.size == (2 * f4.n) ** 2 // 2 == 8
    assert result.is_3field


def test_group_algebra_validates_the_table(f1):
    with pytest.raises(StructureError, match=r"shape \(2, 2\)"):
        group_algebra(np.zeros((2, 3), dtype=int), f1)
    with pytest.raises(StructureError, match=r"shape \(2, 2\): got shape \(2, 2, 1\)"):
        group_algebra(np.array([[[0], [1]], [[1], [0]]]), f1)
    with pytest.raises(StructureError, match="identity"):
        group_algebra(np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]]), f1)
    with pytest.raises(StructureError, match="Latin"):
        group_algebra(np.array([[0, 1], [1, 1]]), f1)
    # identity and Latin but not associative
    bad = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ])
    with pytest.raises(StructureError, match="associative|Latin"):
        group_algebra(bad, f1)


def test_group_algebra_reads_a_fractional_entry_as_an_error(f1):
    # 0.5 was truncated to 0, which made C2 of [[0,1],[1,0.5]] a 3-field
    with pytest.raises(StructureError, match="group table entries must be integers"):
        group_algebra([[0, 1], [1, 0.5]], f1)
    assert group_algebra([[0.0, 1.0], [1.0, 0.0]], f1).is_3field


def test_group_algebra_refuses_a_ragged_table(f1):
    # NumPy's ValueError leaked from the int64 cast
    with pytest.raises(StructureError, match="group table is ragged"):
        group_algebra([[0, 1], [1]], f1)


def test_group_algebra_refuses_entries_out_of_range(f1):
    with pytest.raises(StructureError, match=r"group table entries must lie in \[0, 2\)"):
        group_algebra([[0, 1], [1, 2]], f1)


def whole_cube_group_check(g):
    """The group-table check on whole tables, its n^3 associativity cube
    included: the identity, or the message of the first failing law."""
    idx = np.arange(len(g))
    ids = [e for e in idx if (g[e] == idx).all() and (g[:, e] == idx).all()]
    if not ids:
        return "group table has no identity"
    if (np.sort(g, axis=1) != idx).any() or (np.sort(g.T, axis=1) != idx).any():
        return "group table is not a Latin square"
    if whole_cube_assoc_witness(g) is not None:
        return "group table is not associative"
    return ids[0]


@pytest.mark.parametrize("block", [None, 64])
def test_group_table_check_matches_the_whole_cube(block, monkeypatch):
    if block:                                   # one table row per chunk
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)

    def check(g):
        try:
            return structures._check_group_table(g)
        except StructureError as exc:
            return str(exc)

    z2 = cyclic_group(2)
    tables = [cyclic_group(8), (z2[:, None, :, None] * 4 + cyclic_group(4)[None, :, None, :]
                                ).reshape(8, 8)]
    seen = set()
    for seed, g in enumerate(tables):
        for m in [g] + group_table_mutants(g, np.random.default_rng(seed)):
            want = whole_cube_group_check(m)
            assert check(m) == want
            seen.add(want if isinstance(want, str) else "group")
    assert len(seen) == 4


def test_group_algebra_gates_the_size_before_checking_the_table(f1):
    # 2^40 / 2 functions: refused before the O(k^3) group-table check
    with mock.patch.object(structures, "_check_group_table",
                           wraps=structures._check_group_table) as check, \
            pytest.raises(CarrierSizeError, match="too large"):
        group_algebra(cyclic_group(40), f1)
    assert check.call_count == 0


# ---------------------------------------------------------------------------
# reference constructions: each product written out per cell, as the
# constructions computed it before the structure-constant builder
# ---------------------------------------------------------------------------

def _reference_odd_sum_tuples(env, field, width):
    vectors = []
    for v in itertools.product(range(env.n), repeat=width):
        s = env.zero
        for c in v:
            s = env.add_at(s, c)
        if s < field.n:
            vectors.append(v)
    return vectors


def _reference_nu(env, values):
    """nu by slabs of coordinatewise sums, located among the sorted codes."""
    n, w = len(values), len(values[0])
    V = np.array(values, dtype=np.int64)
    powers = env.n ** np.arange(w, dtype=np.int64)
    codes = V @ powers
    order = np.argsort(codes)
    sorted_codes = codes[order]
    EA = env.add.astype(np.int64)
    nu = np.empty((n, n, n), dtype=np.int32)
    for a in range(n):
        t_a = EA[EA[V[a][None, :], V][:, None, :], V[None, :, :]]
        ncodes = t_a.reshape(-1, w) @ powers
        pos = np.searchsorted(sorted_codes, ncodes)
        assert (sorted_codes[np.minimum(pos, n - 1)] == ncodes).all()
        nu[a] = order[pos].reshape(n, n)
    return nu


def _reference_mu(values, mu_op):
    index = {v: i for i, v in enumerate(values)}
    return np.array([[index[mu_op(va, vb)] for vb in values] for va in values],
                    dtype=np.int32)


def _reference_toeplitz(field, n):
    env = build_envelope(field)
    values = sorted(
        (d,) + rest
        for d in range(field.n)
        for rest in itertools.product(range(env.n), repeat=n - 1)
    )

    def mu_op(s, t):
        out = []
        for k in range(n):
            acc = env.zero
            for i in range(k + 1):
                acc = env.add_at(acc, env.mul_at(s[i], t[k - i]))
            out.append(acc)
        return tuple(out)

    one = (field.one,) + (env.zero,) * (n - 1)
    labels = ["t(" + ",".join(env.labels[c] for c in v) + ")" for v in values]
    entries = [[[v[r - c] if r >= c else env.zero for c in range(n)]
                for r in range(n)] for v in values]
    return env, values, mu_op, one, labels, entries


def _reference_triangular(field, n):
    env = build_envelope(field)
    cells = [(r, c) for r in range(n) for c in range(r + 1)]
    cell_at = {rc: t for t, rc in enumerate(cells)}
    values = sorted(itertools.product(*(
        range(field.n) if r == c else range(env.n) for (r, c) in cells)))

    def entry(v, r, c):
        return v[cell_at[(r, c)]] if r >= c else env.zero

    def mu_op(s, t):
        out = []
        for (r, c) in cells:
            acc = env.zero
            for k in range(c, r + 1):
                acc = env.add_at(acc, env.mul_at(entry(s, r, k), entry(t, k, c)))
            out.append(acc)
        return tuple(out)

    one = tuple(field.one if r == c else env.zero for (r, c) in cells)
    labels = ["[" + ";".join(",".join(env.labels[entry(v, r, c)]
                                      for c in range(r + 1))
                             for r in range(n)) + "]" for v in values]
    entries = [[[entry(v, r, c) for c in range(n)] for r in range(n)]
               for v in values]
    return env, values, mu_op, one, labels, entries


def _reference_quaternion(field):
    env = build_envelope(field)
    values = sorted(_reference_odd_sum_tuples(env, field, 4))
    add, mul, neg = env.add_at, env.mul_at, env.neg_at

    def mu_op(a, b):
        c0 = add(add(mul(a[0], b[0]), neg(mul(a[1], b[1]))),
                 add(neg(mul(a[2], b[2])), neg(mul(a[3], b[3]))))
        c1 = add(add(mul(a[0], b[1]), mul(a[1], b[0])),
                 add(mul(a[2], b[3]), neg(mul(a[3], b[2]))))
        c2 = add(add(mul(a[0], b[2]), neg(mul(a[1], b[3]))),
                 add(mul(a[2], b[0]), mul(a[3], b[1])))
        c3 = add(add(mul(a[0], b[3]), mul(a[1], b[2])),
                 add(neg(mul(a[2], b[1])), mul(a[3], b[0])))
        return (c0, c1, c2, c3)

    one = (env.one, env.zero, env.zero, env.zero)
    labels = ["(" + ",".join(env.labels[c] for c in v) + ")" for v in values]
    return env, values, mu_op, one, labels


def _reference_group_algebra(g, field):
    env = build_envelope(field)
    k = g.shape[0]
    values = sorted(_reference_odd_sum_tuples(env, field, k))
    conv_pairs = [[] for _ in range(k)]
    for g1 in range(k):
        for g2 in range(k):
            conv_pairs[int(g[g1, g2])].append((g1, g2))

    def mu_op(a, b):
        out = []
        for target in range(k):
            acc = env.zero
            for g1, g2 in conv_pairs[target]:
                acc = env.add_at(acc, env.mul_at(a[g1], b[g2]))
            out.append(acc)
        return tuple(out)

    identity = int(np.flatnonzero((g == np.arange(k)).all(axis=1))[0])
    one = tuple(env.one if t == identity else env.zero for t in range(k))
    labels = ["(" + ",".join(env.labels[c] for c in v) + ")" for v in values]
    return env, values, mu_op, one, labels


def _assert_same_tables(field, env, values, mu_op, one, labels):
    assert field.carrier.mu.tolist() == _reference_mu(values, mu_op).tolist()
    assert (field.carrier.nu == _reference_nu(env, values)).all()
    assert list(field.labels) == labels
    assert field.one == values.index(one)


@pytest.mark.parametrize("size,spec", [
    (size, spec) for spec in ("F0(1)", "odd(2)", "odd(4)") for size in (1, 2, 3)
] + [(2, "odd(8)")])
def test_toeplitz_tables_match_the_reference(size, spec):
    field = _base(spec)
    result = toeplitz_field(size, field)
    env, values, mu_op, one, labels, entries = _reference_toeplitz(field, size)
    _assert_same_tables(result.field, env, values, mu_op, one, labels)
    assert [matrix(result, i) for i in range(len(values))] == [
        [[env.labels[e] for e in row] for row in m] for m in entries]


@pytest.mark.parametrize("size,spec", [
    (size, spec) for spec in ("odd(2)", "odd(4)", "F0(2)") for size in (1, 2)
] + [(3, "F0(1)")])
def test_triangular_tables_match_the_reference(size, spec):
    field = _base(spec)
    result = triangular_field(size, field)
    env, values, mu_op, one, labels, entries = _reference_triangular(field, size)
    _assert_same_tables(result.field, env, values, mu_op, one, labels)
    assert [matrix(result, i) for i in range(len(values))] == [
        [[env.labels[e] for e in row] for row in m] for m in entries]


@pytest.mark.parametrize("spec", ["F0(1)", "odd(2)", "odd(4)"])
def test_quaternion_tables_match_the_reference(spec):
    field = _base(spec)
    result = quaternion_field(field)
    env, values, mu_op, one, labels = _reference_quaternion(field)
    _assert_same_tables(result.field, env, values, mu_op, one, labels)
    assert result.tables.tuples.tolist() == [list(v) for v in values]
    assert result.tables.position(values).tolist() == list(range(len(values)))


_KLEIN = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


@pytest.mark.parametrize("name,spec", [
    (f"Z{k}", "F0(1)") for k in range(1, 7)
] + [("klein", "F0(1)"), ("Z2", "odd(4)")])
def test_group_algebra_matches_the_reference(name, spec):
    group = _KLEIN if name == "klein" else cyclic_group(int(name[1:]))
    field = _base(spec)
    result = group_algebra(group, field)
    env, values, mu_op, one, labels = _reference_group_algebra(group, field)
    # the exhaustive verdict, read from the reference table row by row
    mu = _reference_mu(values, mu_op)
    one_idx = values.index(one)
    witness = None
    for a in range(len(values)):
        hits = np.flatnonzero(mu[a] == one_idx)
        if hits.size == 0 or mu[int(hits[0]), a] != one_idx:
            witness = labels[a]
            break
    assert result.verdict_mode == "exhaustive"
    assert result.is_3field is (witness is None)
    assert result.witness == witness
    if result.field is not None:
        _assert_same_tables(result.field, env, values, mu_op, one, labels)


@pytest.mark.parametrize("k,spec", [(k, spec) for spec in ("F0(1)", "odd(2)")
                                    for k in (2, 4, 8)])
def test_group_algebra_correspondence_matches_the_mask_path(k, spec):
    # Z/k's generator is 1, so coordinate e of a vector is the coefficient
    # of x^e; the quotient element is looked up by its reduced u-mask
    result = group_algebra(cyclic_group(k), _base(spec))
    env, values, *_ = _reference_group_algebra(cyclic_group(k), _base(spec))
    ref = mask_path(result.isomorphism.target.algebra)
    xmasks = [sum(1 << e for e, c in enumerate(v) if c == env.one) for v in values]
    assert list(result.isomorphism.mapping) == [
        ref.index_of[ref.normal_form(ref.from_x(x))] for x in xmasks]


def test_group_algebra_above_the_limit_is_pinned(f1):
    # 2048 elements: beyond the table limit the group order decides
    result = group_algebra(cyclic_group(12), f1)
    assert result.size == 2048
    assert result.verdict_mode == "theorem"
    assert result.is_3field is False
    assert result.witness == "(1,q(1),q(1),q(1),1,q(1),q(1),q(1),1,q(1),q(1),q(1))"
    assert result.field is None


@pytest.mark.parametrize("k,spec", [(11, "F0(1)"), (13, "F0(1)"), (7, "F0(2)")])
def test_odd_order_group_above_the_limit_fails_with_the_norm_witness(k, spec):
    # the all-ones N is in the carrier for odd k and N * b = aug(b) * N is
    # never the unit
    result = group_algebra(cyclic_group(k), _base(spec))
    assert result.verdict_mode == "theorem"
    assert result.is_3field is False
    assert result.witness == "(" + ",".join(["1"] * k) + ")"


def test_norm_witness_has_no_inverse_in_the_reference(f1):
    env, values, mu_op, one, _ = _reference_group_algebra(cyclic_group(11), f1)
    norm = (env.one,) * 11
    assert norm in values
    assert all(mu_op(norm, b) != one for b in values)


# S3 as permutations of (0, 1, 2), composed right to left: the rotations
# first, so that the rotation subgroup is {0, 1, 2}
_S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
_S3 = np.array([[_S3_PERMS.index(tuple(p[i] for i in q)) for q in _S3_PERMS]
                for p in _S3_PERMS])


def _group(name):
    """A group table by name: Zk, S3, klein or C2^3."""
    if name == "S3":
        return _S3
    if name == "klein":
        return _KLEIN
    if name == "C2^3":
        return np.bitwise_xor.outer(np.arange(8), np.arange(8))
    return cyclic_group(int(name[1:]))


@pytest.mark.parametrize("name,spec", [
    *[(f"Z{k}", "F0(1)") for k in range(1, 11)],
    *[(f"Z{k}", spec) for spec in ("F0(2)", "odd(4)") for k in range(1, 6)],
    *[(f"Z{k}", "F0(3)") for k in range(1, 4)],
    ("S3", "F0(1)"),
    ("klein", "F0(1)"),
])
def test_exhaustive_verdict_is_the_two_group_criterion(name, spec):
    # every carrier that fits the tables: the exhaustive search agrees with
    # Connell's criterion, a group of 2-power order
    group = _group(name)
    result = group_algebra(group, _base(spec))
    assert result.size <= ternary_kernel._TABLE_LIMIT
    assert result.verdict_mode == "exhaustive"
    assert result.is_3field is (len(group) & (len(group) - 1) == 0)


@pytest.mark.parametrize("name,spec", [("Z16", "F0(1)"), ("C2^3", "F0(2)")])
def test_two_group_above_the_limit_is_a_3field_by_the_theorem(name, spec):
    result = group_algebra(_group(name), _base(spec))
    assert result.size == 2 ** 15
    assert result.verdict_mode == "theorem"
    assert result.is_3field is True
    assert result.witness is None
    assert result.field is None and result.isomorphism is None


@pytest.mark.parametrize("name,spec,witness", [
    ("Z12", "F0(1)", "(1,q(1),q(1),q(1),1,q(1),q(1),q(1),1,q(1),q(1),q(1))"),
    ("Z6", "F0(2)", "(1,q(1),1,q(1),1,q(1))"),
    ("S3", "F0(2)", "(1,1,1,q(1),q(1),q(1))"),
])
def test_even_order_above_the_limit_fails_with_the_least_odd_prime_norm(
        name, spec, witness):
    # N_g = 1 + g + g^2 for the least g of order 3
    result = group_algebra(_group(name), _base(spec))
    assert result.size == 2048
    assert result.verdict_mode == "theorem"
    assert result.is_3field is False
    assert result.witness == witness
    assert result.field is None


def _fingerprinted_tables():
    """The tables the package fingerprints: the automorphism groups of F0(n)
    (paper-suite's reordered one among them) and the multiplicative groups."""
    for n in range(1, 8):
        yield automorphism_group(build_f0(n, check="light"))
    yield automorphism_group(build_f0(5)).reorder(AUT5_LETTER_ORDER, letters=True)
    for n in range(2, 6):
        yield cayley_table(build_f0(n))


def test_element_orders_match_the_power_loop():
    tables = [(cyclic_group(k), 0) for k in range(1, 17)] + [(_S3, 0), (_KLEIN, 0)]
    tables += [(t.table, t.identity) for t in _fingerprinted_tables()]
    for table, e in tables:
        orders = ternary_kernel._element_orders(table, e)
        assert orders.tolist() == scalar_element_orders(table, e)
    assert ternary_kernel._element_orders(_S3, 0).tolist() == [1, 3, 3, 2, 2, 2]


def test_cyclic_generator_is_the_least_element_of_full_order():
    assert [structures._cyclic_generator(cyclic_group(k), 0) for k in (1, 2, 12)] == [0, 1, 1]
    # Z/2 x Z/3 with (a, b) at 3a + b: (1, 1) = 4 is the least of order 6
    a, b = np.divmod(np.arange(6), 3)
    z2z3 = (a[:, None] + a[None]) % 2 * 3 + (b[:, None] + b[None]) % 3
    assert structures._cyclic_generator(z2z3, 0) == 4
    assert structures._cyclic_generator(_S3, 0) is None
    assert structures._cyclic_generator(_KLEIN, 0) is None


def test_least_odd_prime_norm_has_no_inverse_in_the_reference(f1):
    env, values, mu_op, one, _ = _reference_group_algebra(cyclic_group(12), f1)
    norm = tuple(env.one if t % 4 == 0 else env.zero for t in range(12))
    assert group_algebra(cyclic_group(12), f1).witness == (
        "(" + ",".join(env.labels[c] for c in norm) + ")")
    assert len(values) == 2048 and norm in values
    assert all(mu_op(norm, b) != one for b in values)


def test_theorem_path_builds_no_carrier(f1):
    with mock.patch.object(structures._TupleTables, "products", autospec=True,
                           side_effect=structures._TupleTables.products) as products, \
            mock.patch.object(structures, "_odd_sum_tuples",
                              wraps=structures._odd_sum_tuples) as tuples:
        for k in (16, 12, 11):
            assert group_algebra(cyclic_group(k), f1).verdict_mode == "theorem"
        assert products.call_count == tuples.call_count == 0
        # the counters count: the exhaustive path at 4 elements uses both
        assert group_algebra(cyclic_group(3), f1).verdict_mode == "exhaustive"
        assert products.call_count > 0 and tuples.call_count == 1


@pytest.mark.parametrize("spec", ["F0(1)", "odd(4)"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_free_space_lists_the_reference_tuples(spec, width):
    field = _base(spec)
    space = free_space(field, width)
    assert _vectors(space) == _reference_odd_sum_tuples(space.env, field, width)
