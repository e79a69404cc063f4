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
    build_envelope,
    build_f0,
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


def test_free_space_closed_under_ternary_addition(f4):
    space = free_space(f4, 2)
    for u in space.vectors[:4]:
        for v in space.vectors[:4]:
            for w in space.vectors[:4]:
                assert space.add3(u, v, w) in space


def test_odd_scalar_combinations_stay_inside(f4):
    space = free_space(f4, 2)
    env = space.env
    u, v = space.basis
    # scalar sums 1 + q(1) = even + odd = odd stays in; the combination of
    # two odd scalars leaves the carrier
    inside = space.combination((env.index("1"), env.index("q(1)")), (u, v))
    assert inside in space
    outside = space.combination((env.index("1"), env.index("3")), (u, v))
    assert outside not in space


def test_vector_power_space_lists_plain_tuples(f4):
    space = vector_power_space(f4, 2)
    assert space.n == 4
    assert sorted(space.label(v) for v in space.vectors) == [
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
    labels = {space.label(v) for v in space.vectors}
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
    assert result.shape == (3, 3)
    iso = result.isomorphism
    assert iso is not None
    assert iso.source.n == 4 and iso.target.n == 4
    assert iso.is_bijective()
    # the unit is the identity matrix (off-diagonal cells hold the zero q(1))
    assert result.matrix(result.field.one) == [
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
            ma = [[env.index(l) for l in row] for row in result.matrix(a)]
            mb = [[env.index(l) for l in row] for row in result.matrix(b)]
            prod = [[env.zero] * 2 for _ in range(2)]
            for r in range(2):
                for c in range(2):
                    acc = env.zero
                    for k in range(2):
                        acc = env.add_at(acc, env.mul_at(ma[r][k], mb[k][c]))
                    prod[r][c] = acc
            expect = [[env.index(l) for l in row]
                      for row in result.matrix(field.mu(a, b))]
            assert prod == expect


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
            m = [[env.index(l) for l in row] for row in result.matrix(a)]
            expect = [[env.labels[e] for e in row]
                      for row in _forward_substitution_inverse(env, base, m)]
            j = field.inv(a)
            assert result.matrix(j) == expect
            assert field.mu(a, j) == field.one
            assert field.mu(j, a) == field.one


def test_triangular_unit_is_identity_matrix(f4):
    result = triangular_field(2, f4)
    assert result.matrix(result.field.one) == [["1", "q(3)"], ["q(3)", "1"]]


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
    minus_i3 = quat4.index[tuple(
        quat4.env.neg_at(c) if t > 0 else c
        for t, c in enumerate(quat4.tuples[i3]))]
    assert field.mu(i2, i1) == minus_i3
    # each imaginary unit squares to -1
    minus_one = quat4.index[(quat4.env.index("3"),) + (quat4.env.zero,) * 3]
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
    """quaternion_conjugation_check's message from whole tables, or None."""
    env, mu = result.env, result.field.carrier.mu
    conj = np.array([result.index[(v[0],) + tuple(env.neg_at(x) for x in v[1:])]
                     for v in result.tuples])
    bad = conj[mu] != mu[np.ix_(conj, conj)].T
    if not bad.any():
        return None
    a, b = np.argwhere(bad)[0]
    return (f"conjugation fails to reverse {result.quaternion(int(a))} * "
            f"{result.quaternion(int(b))}")


@pytest.mark.parametrize("block", [None, 64])
def test_conjugation_check_matches_the_whole_table_one(quat4, block, monkeypatch):
    # swapping two entries of the index swaps two images of conj
    if block:
        monkeypatch.setattr(ternary_kernel, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(4)
    values = list(quat4.index)
    for _ in range(12):
        u, v = (values[i] for i in rng.choice(len(values), size=2, replace=False))
        index = dict(quat4.index)
        index[u], index[v] = quat4.index[v], quat4.index[u]
        result = structures.QuaternionFieldResult(
            quat4.field, quat4.env, quat4.tuples, index, quat4.commutative, None)
        want = whole_table_conjugation_error(result)
        assert want is not None
        with pytest.raises(StructureError) as err:
            quaternion_conjugation_check(result)
        assert str(err.value) == want


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
    with pytest.raises(StructureError, match="square"):
        group_algebra(np.zeros((2, 3), dtype=int), f1)
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


def whole_cube_group_check(g):
    """The group-table check on whole tables, its n^3 associativity cube
    included: the identity, or the message of the first failing law."""
    idx = np.arange(len(g))
    ids = [e for e in idx if (g[e] == idx).all() and (g[:, e] == idx).all()]
    if not ids:
        return "group table has no identity"
    if (np.sort(g, axis=1) != idx).any() or (np.sort(g.T, axis=1) != idx).any():
        return "group table is not a Latin square"
    if (g[g] != g[:, g]).any():
        return "group table is not associative"
    return ids[0]


def group_table_mutants(g, rng):
    """Every intercalate swap of g (a Latin square stays one) and as many
    random two-cell swaps."""
    k = len(g)
    out = []
    for a, b, c, d in itertools.product(range(k), repeat=4):
        if a < c and b < d and g[a, b] == g[c, d] and g[a, d] == g[c, b]:
            m = g.copy()
            m[a, b], m[a, d], m[c, b], m[c, d] = g[a, d], g[a, b], g[c, d], g[c, b]
            out.append(m)
    for _ in range(len(out)):
        (a, b), (c, d) = rng.integers(0, k, size=(2, 2))
        m = g.copy()
        m[a, b], m[c, d] = g[c, d], g[a, b]
        out.append(m)
    return out


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
    assert [result.matrix(i) for i in range(len(values))] == [
        [[env.labels[e] for e in row] for row in m] for m in entries]


@pytest.mark.parametrize("size,spec", [
    (size, spec) for spec in ("odd(2)", "odd(4)", "F0(2)") for size in (1, 2)
] + [(3, "F0(1)")])
def test_triangular_tables_match_the_reference(size, spec):
    field = _base(spec)
    result = triangular_field(size, field)
    env, values, mu_op, one, labels, entries = _reference_triangular(field, size)
    _assert_same_tables(result.field, env, values, mu_op, one, labels)
    assert [result.matrix(i) for i in range(len(values))] == [
        [[env.labels[e] for e in row] for row in m] for m in entries]


@pytest.mark.parametrize("spec", ["F0(1)", "odd(2)", "odd(4)"])
def test_quaternion_tables_match_the_reference(spec):
    field = _base(spec)
    result = quaternion_field(field)
    env, values, mu_op, one, labels = _reference_quaternion(field)
    _assert_same_tables(result.field, env, values, mu_op, one, labels)
    assert result.tuples == values
    assert list(result.index.items()) == [(v, i) for i, v in enumerate(values)]


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


def test_sampled_group_algebra_verdict_is_pinned(f1):
    # 2048 elements: beyond the table limit, 64 seeded samples decide
    result = group_algebra(cyclic_group(12), f1)
    assert result.size == 2048
    assert result.verdict_mode == "sampled"
    assert result.is_3field is False
    assert result.witness == "(q(1),q(1),1,1,1,q(1),1,q(1),1,1,q(1),1)"
    assert result.field is None


@pytest.mark.parametrize("k,spec", [(11, "F0(1)"), (13, "F0(1)"), (7, "F0(2)")])
def test_sampled_odd_order_group_fails_with_the_norm_witness(k, spec):
    # the all-ones N is in the carrier for odd k and N * b = aug(b) * N is
    # never the unit, so a sampled verdict cannot report a 3-field
    result = group_algebra(cyclic_group(k), _base(spec))
    assert result.verdict_mode == "sampled"
    assert result.is_3field is False
    assert result.witness == "(" + ",".join(["1"] * k) + ")"


def test_norm_witness_has_no_inverse_in_the_reference(f1):
    env, values, mu_op, one, _ = _reference_group_algebra(cyclic_group(11), f1)
    norm = (env.one,) * 11
    assert norm in values
    assert all(mu_op(norm, b) != one for b in values)


@pytest.mark.parametrize("spec", ["F0(1)", "odd(4)"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_free_space_lists_the_reference_tuples(spec, width):
    field = _base(spec)
    space = free_space(field, width)
    assert space.vectors == _reference_odd_sum_tuples(space.env, field, width)
