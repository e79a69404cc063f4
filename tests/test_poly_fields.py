"""Polynomials, quotient fields, parity, norms and the completely-even law."""

import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternfield import (
    CarrierSizeError,
    FiniteThreeField,
    QuotientFieldSpec,
    StructureError,
    TernaryCarrier,
    TernaryPolynomial,
    build_f0,
    build_quotient_field,
    cardinality,
    completely_even,
    eval_hom,
    eval_hom_surjectivity,
    norm2,
    odd_residue_field,
    parity,
    prime_subfield,
    product_field,
    taylor_epimorphism,
)
from ternfield import poly_fields
from ternfield.poly_fields import (
    QuotientAlgebra,
    _subalgebra_closure,
    _subalgebra_closures,
    generated_subalgebra,
    gf2_divmod,
)
from ternfield.pair_envelope import field_isomorphism
from ternfield.structures import quaternion_field, toeplitz_field, triangular_field

from oracles import MaskAlgebra, gf2_mul, power

P = TernaryPolynomial.parse


def small_polys(max_degree=6, max_coeff=9):
    coeffs = st.integers(-max_coeff, max_coeff)
    return st.lists(coeffs, min_size=1, max_size=max_degree + 1).map(
        lambda cs: TernaryPolynomial(("x",), {(i,): c for i, c in enumerate(cs)}))


def public_sum(*polys):
    """The sum, accumulated term by term and built by the public constructor."""
    terms = {}
    for p in polys:
        for a, c in p.terms.items():
            terms[a] = terms.get(a, 0) + c
    return TernaryPolynomial(polys[0].vars, terms)


def public_product(p, q):
    """The product, accumulated term by term and built by the public constructor."""
    terms = {}
    for a1, c1 in p.terms.items():
        for a2, c2 in q.terms.items():
            a = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
            terms[a] = terms.get(a, 0) + c1 * c2
    return TernaryPolynomial(p.vars, terms)


def public_neg(p):
    return TernaryPolynomial(p.vars, {a: -c for a, c in p.terms.items()})


# -- parsing and arithmetic ----------------------------------------------------

def test_parse_round_trip():
    for text in ("x^3 + x + 1", "x1^2*x2 - 3*x1 + 1", "2", "x - 1",
                 "1/3*x^2 + 5", "7*x^4 - 2*x^2 + x"):
        p = P(text)
        assert P(str(p)) == p


def test_parse_rejects_garbage():
    for text in ("", "x +", "x^", "y@z", "x//2"):
        with pytest.raises(StructureError):
            P(text)


def test_polynomial_arithmetic():
    f = P("x + 1")
    g = P("x - 1")
    assert f * g == P("x^2 - 1")
    assert f + g == P("2*x")
    assert -g == P("1 - x")
    assert (f * f) * f == f * (f * f)


def assert_public_form(r, expected):
    """r keeps the constructor's invariant, equals its own rebuild through
    the public constructor, and equals the independently built expected."""
    assert type(r.vars) is tuple
    assert all(len(a) == len(r.vars) and all(type(e) is int and e >= 0 for e in a)
               for a in r.terms)
    assert all(type(c) is Fraction and c for c in r.terms.values())
    for other in (TernaryPolynomial(r.vars, r.terms), expected):
        assert r.terms == other.terms
        assert str(r) == str(other)
        assert hash(r) == hash(other)
        assert r == other


def _bivariate(p):
    """The same coefficients spread over two variables: x^i -> x1^(i%3)*x2^(i//3)."""
    return TernaryPolynomial(("x1", "x2"), {(i % 3, i // 3): c for (i,), c in p.terms.items()})


@settings(max_examples=200)
@given(small_polys(), small_polys(), small_polys())
def test_arithmetic_equals_the_public_constructor(p, q, r):
    for p, q, r in ((p, q, r), tuple(map(_bivariate, (p, q, r)))):
        one = TernaryPolynomial.constant(1, p.vars)
        zero = TernaryPolynomial(p.vars, {})
        for result, expected in ((p + q, public_sum(p, q)),
                                 (-p, public_neg(p)),
                                 (p - q, public_sum(p, public_neg(q))),
                                 (p - p, zero),
                                 (p * q, public_product(p, q)),
                                 (p.add3(q, r), public_sum(p, q, r)),
                                 (p.add3(-p, r), r),
                                 (p + 1, public_sum(p, one)),
                                 (1 - p, public_sum(one, public_neg(p))),
                                 (3 * p, public_product(p, public_sum(one, one, one)))):
            assert_public_form(result, expected)


@pytest.mark.parametrize("alpha", [(1, 2), (-1,), (), (0, -3)])
def test_public_constructor_rejects_bad_exponent_vectors(alpha):
    with pytest.raises(StructureError, match=re.escape(f"bad exponent vector {alpha}")):
        TernaryPolynomial(("x",), {alpha: 1})


def test_public_constructor_normalizes_its_input():
    p = TernaryPolynomial(["x"], [((2.0,), 3), ((1,), Fraction(0)), ((0,), "1/3")])
    assert p.vars == ("x",)
    assert p.terms == {(2,): 3, (0,): Fraction(1, 3)}
    assert_public_form(p, P("3*x^2 + 1/3"))


def test_variable_must_be_one_of_the_variables():
    with pytest.raises(StructureError, match="unknown variable 'y'"):
        TernaryPolynomial.variable("y", ("x",))
    assert TernaryPolynomial.variable("x2", ("x1", "x2")) == P("x2", ("x1", "x2"))
    assert TernaryPolynomial.variable("y") == P("y")


def test_rational_operands_on_either_side():
    p = P("x^2 + 1")
    assert 1 - p == P("-x^2") == p * -1 + 1
    assert Fraction(1, 3) - p == P("-x^2 - 2/3")
    assert 2 * p == p * 2 == p + p
    for bad in ("x", "3", 0.5, None, [1]):
        for op in (lambda: p - bad, lambda: bad - p, lambda: p + bad, lambda: p * bad,
                   lambda: p.add3(p, bad)):
            with pytest.raises(StructureError, match="not a rational number"):
                op()


# -- parity grading --------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("x", "odd"), ("x^2 + x + 1", "odd"), ("x + 1", "even"),
    ("x^2 - 1", "even"), ("3*x + 2", "odd"), ("x^5 - x", "even"),
    ("1/3*x + 2", "odd"),    # sum 7/3 has odd numerator and denominator
])
def test_parity_values(text, expected):
    assert parity(P(text)) == expected


def test_parity_rejects_even_denominator_sums():
    with pytest.raises(StructureError, match="even denominator"):
        parity(P("1/2*x + 1"))


@given(small_polys(), small_polys())
def test_parity_is_a_grading(f, g):
    # products multiply parities; the product of two odd polynomials is odd
    pf = parity(f)
    pg = parity(g)
    fg = f * g
    if fg.is_zero():
        assert parity(fg) == "even"
    elif pf == "odd" and pg == "odd":
        assert parity(fg) == "odd"
    elif "even" in (pf, pg):
        assert parity(fg) == "even"


# -- the Gauss norm ----------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("x + 1", 1), ("2*x + 4", Fraction(1, 2)), ("4*x^2 + 8", Fraction(1, 4)),
    ("1/2*x + 3", 2), ("x + 1/3", 1),
])
def test_norm2_values(text, expected):
    assert norm2(P(text)) == expected


def test_norm2_rejects_zero():
    with pytest.raises(StructureError, match="zero polynomial"):
        norm2(TernaryPolynomial(("x",), {}))


@settings(max_examples=200)
@given(small_polys(), small_polys())
def test_gauss_norm_is_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        return
    assert norm2(f * g) == norm2(f) * norm2(g)


@given(small_polys(), small_polys())
def test_gauss_norm_ultrametric(f, g):
    s = f + g
    if f.is_zero() or g.is_zero() or s.is_zero():
        return
    assert norm2(s) <= max(norm2(f), norm2(g))


# -- GF(2) helpers vs an independent integer oracle -----------------------------------

def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_gf2_mul_matches_integer_multiplication_mod_2():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = int(rng.integers(1, 1 << 12))
        b = int(rng.integers(1, 1 << 12))
        ca = [(a >> i) & 1 for i in range(a.bit_length())]
        cb = [(b >> i) & 1 for i in range(b.bit_length())]
        cm = _int_poly_mul(ca, cb)
        expected = sum((c % 2) << i for i, c in enumerate(cm))
        assert gf2_mul(a, b) == expected


def test_gf2_divmod_inverts_mul():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = int(rng.integers(2, 1 << 10))
        b = int(rng.integers(2, 1 << 6))
        q, r = gf2_divmod(a, b)
        assert gf2_mul(q, b) ^ r == a
        assert r.bit_length() < b.bit_length()


# -- completely-even law ----------------------------------------------------------------

def _gf2_factor(mask):
    """Trial division into irreducible factors, smallest mask first."""
    factors = []
    d = 2
    while mask.bit_length() > 1:
        while d.bit_length() < mask.bit_length():
            q, r = gf2_divmod(mask, d)
            if r == 0:
                factors.append(d)
                mask = q
                break
            d += 1
        else:
            factors.append(mask)
            mask = 1
        if mask.bit_length() <= 1:
            break
        d = 2
    return factors


@pytest.mark.parametrize("n", range(1, 21))
def test_completely_even_iff_power_of_two(n):
    p = TernaryPolynomial(("x",), {(n,): 1, (0,): -1})  # x^n - 1
    report = completely_even(p, domain="gf2")
    expected = n in (1, 2, 4, 8, 16)
    assert report["completely_even"] is expected
    # independent oracle: completely even over GF(2) means every irreducible
    # factor has even weight, i.e. equals x+1 (the only even irreducible)
    mask = (1 << n) | 1
    factors = _gf2_factor(mask)
    assert all(bin(f).count("1") % 2 == 0 for f in factors) is expected
    if not expected:
        w = report["witness"]
        assert parity(w) == "odd"
        # the witness really divides x^n - 1 mod 2
        wm = sum(1 << e for (e,), c in w.terms.items() if c.numerator % 2)
        assert gf2_divmod(mask, wm)[1] == 0


def test_completely_even_requires_even_input():
    with pytest.raises(StructureError, match="odd"):
        completely_even(P("x^2 + x + 1"))


def test_completely_even_integer_domain():
    good = completely_even(P("x^2 - 1"), domain="integer")
    assert good["completely_even"]
    assert sorted(str(f) for f in good["factors"]) == ["x + 1", "x - 1"]

    bad = completely_even(P("x^3 - 1"), domain="integer")
    assert not bad["completely_even"]
    assert str(bad["witness"]) == "x^2 + x + 1"
    assert parity(bad["witness"]) == "odd"


def test_completely_even_domains_can_disagree():
    # 2x^2 + 3x + 1 = (2x+1)(x+1): the factor 2x+1 is an odd non-unit over
    # the integers, but mod 2 it collapses to the unit, so the gf2 route
    # sees only x+1
    p = P("2*x^2 + 3*x + 1")
    assert completely_even(p, domain="gf2")["completely_even"]
    report = completely_even(p, domain="integer")
    assert not report["completely_even"]
    assert str(report["witness"]) == "2*x + 1"


# -- quotient fields ------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_f0_sizes(n):
    spec = QuotientFieldSpec((n,))
    assert cardinality(spec) == 1 << (n - 1)
    if n <= 7:
        f = build_quotient_field(spec)
        assert f.n == 1 << (n - 1)


def test_f0_small_structure():
    f1 = build_f0(1)
    assert f1.n == 1 and f1.label(f1.one) == "1"
    f2 = build_f0(2)
    assert f2.n == 2 and sorted(f2.labels) == ["1", "x"]
    assert f2.mu(f2.index("x"), f2.index("x")) == f2.one


def test_f0_3_multiplication():
    f = build_f0(3)
    x = f.index("x")
    x2 = f.index("x^2")
    c = f.index("x^2+x+1")
    assert f.mu(x, x) == x2
    assert f.mu(x, x2) == c
    assert f.mu(x, c) == f.one          # x^4 = 1: multiplicatively cyclic
    assert f.mu(c, c) == x2             # the corrected diagonal cell
    assert power(f, x, 4) == f.one


def test_multiplication_tables_are_latin_squares():
    for n in (2, 3, 4, 5):
        f = build_f0(n)
        mu = f.carrier.mu
        idx = np.arange(f.n)
        assert (np.sort(mu, axis=0) == idx[:, None]).all()
        assert (np.sort(mu, axis=1) == idx[None, :]).all()


def test_multivariate_quotient():
    f = build_quotient_field(QuotientFieldSpec((2, 2)))
    assert f.n == 8
    assert cardinality(QuotientFieldSpec((2, 2))) == 8
    f32 = cardinality(QuotientFieldSpec((3, 2)))
    assert f32 == 32


def test_build_limit_guard():
    with pytest.raises(CarrierSizeError):
        build_quotient_field(QuotientFieldSpec((30,)))


def test_free_rank_is_refused_before_the_product_table():
    # F0(600) has 600 monomials: its 600 x 600 product table is never filled
    tracemalloc.start()
    try:
        with pytest.raises(CarrierSizeError, match="^free rank 599 gives a carrier of "
                           "2\\^599 elements; refusing to materialize$"):
            QuotientAlgebra((600,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    with pytest.raises(CarrierSizeError, match="^carrier of size 1048576 exceeds "
                       "the build limit 512$"):
        build_quotient_field(QuotientFieldSpec((21,)))


def test_extra_relations_cut_the_field():
    # adjoining the even relation (x-1)^2 to F0(3) collapses it to F0(2)
    spec = QuotientFieldSpec((3,), relations=(P("x^2 - 2*x + 1"),))
    f = build_quotient_field(spec)
    assert f.n == 2


@pytest.mark.parametrize("exponents,relations", [
    ((3,), ()), ((5,), ()), ((2, 2), ()), ((3, 2), ()), ((2, 2, 2), ()),
    ((3,), ("x^2 - 2*x + 1",)),      # the relation of the test above
    ((2, 2), ("x1 - x2",)),          # two echelon rows to reduce by
])
def test_mul_table_matches_scalar_mul(exponents, relations):
    spec = QuotientFieldSpec(exponents, relations=[P(r) for r in relations])
    alg = QuotientAlgebra(spec.exponents, spec.relations)
    assert len(alg._rows) == {(): 0, ("x^2 - 2*x + 1",): 1, ("x1 - x2",): 2}[relations]
    table = alg.mul_table()
    ref = MaskAlgebra(alg)
    assert table.shape == (len(ref.carrier),) * 2
    for a, ma in enumerate(ref.carrier):
        for b, mb in enumerate(ref.carrier):
            assert ref.carrier[table[a, b]] == ref.mul(ma, mb)


def _mask_path_tables(spec):
    """Labels, unit, mu and a nu slab function, computed on monomial masks
    the way the builder did before its tables moved to carrier indices: the
    sorted odd normal forms, XOR for nu, a carry-less bit-plane product
    reduced by the echelon rows, and each result searched back to its
    index."""
    alg = QuotientAlgebra(spec.exponents, spec.relations)
    ref = MaskAlgebra(alg)
    masks = np.array(sorted(ref._spread(b) | 1 for b in range(1 << len(alg.free))),
                     dtype=np.int64)

    def locate(values):
        pos = np.minimum(np.searchsorted(masks, values), len(masks) - 1)
        assert (masks[pos] == values).all()
        return pos

    bits = masks[:, None] >> np.arange(alg.m_count) & 1
    prod = np.zeros((len(masks),) * 2, dtype=np.int64)
    for i, j in zip(*np.nonzero(alg.ptab >= 0)):
        prod ^= (bits[:, i, None] & bits[None, :, j]) << alg.ptab[i, j]
    for p, row in alg._rows.items():
        prod ^= (prod >> p & 1) * row
    labels = [ref.label(int(m)) for m in masks]
    nu_slab = lambda a: locate(masks[a] ^ masks[:, None] ^ masks)
    return labels, int(locate(1)), locate(prod), nu_slab


MASK_PATH_SPECS = [
    ((1,), ()), ((2,), ()), ((3,), ()), ((4,), ()), ((5,), ()), ((6,), ()),
    ((7,), ()), ((8,), ()), ((2, 2), ()), ((2, 3), ()), ((3, 2), ()),
    ((3, 3), ()), ((2, 2, 2), ()), ((6,), ("x^4+1",)), ((24,), ("x^4+1",)),
    ((2, 2), ("x1*x2+x1+x2+1",)),
]


@pytest.mark.parametrize("exponents,relations", MASK_PATH_SPECS)
def test_index_tables_match_the_mask_path(exponents, relations):
    spec = QuotientFieldSpec(exponents, relations=[P(r) for r in relations])
    f = build_quotient_field(spec, check=False)
    labels, one, mu, nu_slab = _mask_path_tables(spec)
    assert list(f.labels) == labels
    assert f.one == one == 0
    assert (f.carrier.mu == mu).all()
    for a in range(f.n):
        assert (f.carrier.nu[a] == nu_slab(a)).all()


def test_a_large_exponent_cut_to_few_elements_stays_small():
    # F0(44) modulo x^4+1 = (x-1)^4 is F0(4): 44 monomials, 8 elements
    small = build_f0(4)
    tracemalloc.start()
    try:
        f = build_quotient_field(QuotientFieldSpec((44,), ["x^4+1"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert f.labels == small.labels and f.one == small.one
    assert (f.carrier.nu == small.carrier.nu).all()
    assert (f.carrier.mu == small.carrier.mu).all()


@pytest.mark.parametrize("exponents", [(3,), (2, 2)])
def test_quotient_fields_round_trip_through_json(exponents):
    f = build_f0(*exponents)
    doc = json.loads(f.dumps())
    assert doc["origin"] == {"kind": "quotient_field", "base": "F0",
                             "exponents": list(exponents), "relations": []}
    g = FiniteThreeField(TernaryCarrier.from_json(doc), doc["one"])
    assert g.labels == f.labels and g.one == f.one
    assert (g.carrier.nu == f.carrier.nu).all()
    assert (g.carrier.mu == f.carrier.mu).all()


def test_odd_relation_is_rejected():
    with pytest.raises(StructureError, match="not even"):
        build_quotient_field(QuotientFieldSpec((3,), relations=(P("x"),)))


def test_not_completely_even_relation_is_rejected():
    with pytest.raises(StructureError, match="odd factor"):
        build_quotient_field(QuotientFieldSpec((4,), relations=(P("x^3 - 1"),)))


def test_z2odd_base_quotients():
    # the same construction over (Z/8Z)^odd coefficients: base=3 means 2^3
    spec = QuotientFieldSpec((2,), base=3)
    f = build_quotient_field(spec)
    assert f.n == cardinality(spec) == 4 * 8
    assert f.label(f.one) == "1"


def _reference_z2odd(exponents, m, with_nu=True):
    """The (Z/2^mZ)^odd quotient's vectors, labels, unit and tables, one cell
    at a time, as the construction computed them before its tables became
    structure-constant gathers."""
    mod = 1 << m
    alg = QuotientAlgebra(exponents)
    M = alg.m_count
    vectors = [v for v in itertools.product(range(mod), repeat=M) if v[0] % 2]
    vectors = [tuple(reversed(v)) for v in
               sorted(tuple(reversed(v)) for v in vectors)]
    index = {v: i for i, v in enumerate(vectors)}

    def vec_mul(a, b):
        out = [0] * M
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                t = alg.ptab[i, j]
                if t >= 0 and cb:
                    out[t] = (out[t] + ca * cb) % mod
        return tuple(out)

    n = len(vectors)
    nu = np.empty((n, n, n), dtype=np.int32) if with_nu else None
    mu = np.empty((n, n), dtype=np.int32)
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            mu[a, b] = index[vec_mul(va, vb)]
            if not with_nu:
                continue
            ab = tuple((x + y) % mod for x, y in zip(va, vb))
            for c, vc in enumerate(vectors):
                nu[a, b, c] = index[tuple((x + y) % mod for x, y in zip(ab, vc))]

    def vec_label(v):
        parts = []
        for i in range(M - 1, -1, -1):
            c = v[i]
            if not c:
                continue
            alpha = alg.monomials[i]
            names = [f"x{t+1}" for t in range(len(alg.exponents))] if len(alg.exponents) > 1 else ["x"]
            factors = []
            for t, e in enumerate(alpha):
                if e == 1:
                    factors.append(f"({names[t]}-1)")
                elif e > 1:
                    factors.append(f"({names[t]}-1)^{e}")
            body = "*".join(factors) if factors else "1"
            parts.append(body if c == 1 and factors else
                         (str(c) if not factors else f"{c}*{body}"))
        return "+".join(parts) if parts else "0"

    labels = [vec_label(v) for v in vectors]
    one = index[tuple([1] + [0] * (M - 1))]
    return labels, one, nu, mu


@pytest.mark.parametrize("exponents,m", [((2,), 2), ((2,), 3), ((3,), 2)])
def test_z2odd_tables_match_the_reference(exponents, m):
    f = build_quotient_field(QuotientFieldSpec(exponents, base=m))
    labels, one, nu, mu = _reference_z2odd(exponents, m)
    assert list(f.labels) == labels
    assert f.one == one
    assert (f.carrier.nu == nu).all()
    assert (f.carrier.mu == mu).all()


def test_z2odd_two_variable_products_match_the_reference():
    # n = 128: the per-cell nu reference would be 2M Python steps, so only
    # the product table and the labels are compared here
    f = build_quotient_field(QuotientFieldSpec((2, 2), base=2))
    labels, one, _, mu = _reference_z2odd((2, 2), 2, with_nu=False)
    assert f.n == 128
    assert list(f.labels) == labels
    assert f.one == one
    assert (f.carrier.mu == mu).all()


# -- the involutive change of coordinates ------------------------------------------------

def test_u_x_substitution_is_involutive():
    alg = MaskAlgebra(QuotientAlgebra((4,)))
    for mask in range(1, 1 << len(alg.monomials)):
        assert alg.from_x(alg.to_x(mask)) == mask
        assert alg.to_x(alg.from_x(mask)) == mask


def _small_algebras(limit=21):
    """The algebra of every tuple of one to four exponents with at most
    `limit` monomials (the free algebras the rank limit lets through), and
    F0(44) modulo x^4+1."""
    tuples = [ex for k in range(1, 5) for ex in itertools.product(range(1, limit + 1), repeat=k)
              if math.prod(ex) <= limit]
    return [QuotientAlgebra(ex) for ex in tuples] + [QuotientAlgebra((44,), [P("x^4+1")])]


def test_the_coordinate_matrix_is_the_binomial_rows():
    for alg in _small_algebras():
        assert alg.B.dtype == np.uint8
        masks = [sum(int(b) << j for j, b in enumerate(row)) for row in alg.B]
        assert masks == MaskAlgebra(alg)._xrows, alg.exponents


def test_the_coordinate_matrix_is_its_own_inverse():
    for alg in _small_algebras():
        B = alg.B.astype(np.int64)
        assert (B @ B % 2 == np.eye(alg.m_count, dtype=np.int64)).all(), alg.exponents


@pytest.mark.parametrize("exponents,relations", MASK_PATH_SPECS)
def test_carrier_coordinates_match_the_mask_path(exponents, relations):
    spec = QuotientFieldSpec(exponents, relations=[P(r) for r in relations])
    alg = QuotientAlgebra(spec.exponents, spec.relations)
    ref = MaskAlgebra(alg)
    width = np.arange(alg.m_count)
    masks = np.array(ref.carrier, dtype=object)
    assert (alg.coefficients == (masks[:, None] >> width & 1)).all()
    xmasks = np.array([ref.to_x(m) for m in ref.carrier], dtype=object)
    assert (alg.x_coefficients == (xmasks[:, None] >> width & 1)).all()
    assert (alg.index_of_x(alg.x_coefficients) == np.arange(len(masks))).all()


def _outcome(exponents, relation):
    """The labels and mu of the field, or the text of its error."""
    try:
        f = build_quotient_field(QuotientFieldSpec(exponents, [relation]), check=False)
    except StructureError as exc:
        return str(exc)
    return list(f.labels), f.carrier.mu.tolist()


@pytest.mark.parametrize("exponents,terms,text", [
    ((3, 2), {(1, 0): 1, (0, 0): 1}, "x2+1"),          # over ("x2", "x1")
    ((3, 2), {(2, 0): 1, (0, 0): 1}, "x2^2+1"),        # not reduced in x2
    ((3, 2), {(0, 2): 1, (0, 0): 1}, "x1^2+1"),
])
def test_a_relation_polynomial_is_read_by_name(exponents, terms, text):
    poly = TernaryPolynomial(("x2", "x1"), terms)
    assert _outcome(exponents, poly) == _outcome(exponents, text)


def test_a_relation_over_some_variables_is_aligned_to_all():
    poly = TernaryPolynomial(("x1",), {(2,): 1, (0,): 1})
    assert QuotientFieldSpec((4, 2), [poly]).relations == (P("x1^2+1", ("x1", "x2")),)
    assert _outcome((4, 2), poly) == _outcome((4, 2), "x1^2+1")
    assert len(_outcome((4, 2), poly)[0]) == build_f0(2, 2).n     # x1^2+1 = (x1-1)^2


def test_a_relation_over_other_variables_is_refused():
    poly = TernaryPolynomial(("y", "z"), {(1, 0): 1, (0, 0): 1})
    assert _outcome((2, 2), poly) == _outcome((2, 2), "y+1") == "unknown variables ['y']"
    with pytest.raises(StructureError, match=r"^unknown variables \['y'\]$"):
        QuotientAlgebra((2, 2), [poly])


# -- Taylor coefficients -------------------------------------------------------------------

def test_taylor_of_powers_gives_binomials_mod_2():
    for j in range(8):
        p = TernaryPolynomial(("x",), {(j,): 1})
        coeffs = taylor_epimorphism(p, 6)
        assert coeffs == tuple(math.comb(j, i) % 2 for i in range(6))


def test_taylor_kernel_is_the_shifted_power():
    # (x-1)^n * anything has its first n Taylor coefficients at 1 equal to 0
    shift = P("x - 1")
    base = P("x^2 + 3*x + 1")
    p = shift * shift * shift * base
    coeffs = taylor_epimorphism(p, 5)
    assert coeffs[:3] == (0, 0, 0)
    assert any(coeffs[3:])


# -- products and presentations ---------------------------------------------------------------

def test_product_field_relations():
    result = product_field(build_f0(2), build_f0(2))
    f = result.field
    assert f.n == 4
    assert result.presentation["verified"]
    env_rels = dict(zip(result.presentation["relations"],
                        [True] * len(result.presentation["relations"])))
    assert any("x1*x2" in r for r in env_rels)


@pytest.mark.parametrize("a,b,free_size,isomorphic", [
    (2, 3, 32, False), (3, 4, 2048, False), (1, 3, 4, True),
])
def test_product_presentation_of_singly_generated_factors(a, b, free_size, isomorphic):
    result = product_field(build_f0(a), build_f0(b))
    live = [k for k, e in enumerate((a, b)) if e > 1]
    relations = [f"(x{k+1}-1)^{(a, b)[k]} = 0" for k in live]
    if len(live) == 2:
        relations += ["(x1-1)*(x2-1) = 0", "x1*x2 = x1+x2-1"]
    assert result.presentation == {
        "generators": [None if a == 1 else "(x,1)", "(1,x)"],
        "relations": relations, "verified": True}
    assert result.free_comparison == {"free_field_size": free_size,
                                      "product_size": result.field.n,
                                      "isomorphic_to_free": isomorphic}


def test_products_of_other_fields_have_no_presentation():
    joint = build_quotient_field(QuotientFieldSpec((2, 2)))
    result = product_field(build_f0(2), joint)
    assert result.presentation is None and result.free_comparison is None


def test_product_differs_from_joint_quotient():
    prod = product_field(build_f0(2), build_f0(2)).field
    joint = build_quotient_field(QuotientFieldSpec((2, 2)))
    assert prod.n == 4 and joint.n == 8


def test_triple_product():
    f = product_field(build_f0(2), build_f0(2), build_f0(2)).field
    assert f.n == 8
    assert f.label(f.one) == "(1,1,1)"


def summed_product_tables(*factors):
    """The product's labels, unit and tables as first written: each table the
    stride-weighted sum of the component tables over whole int64 cubes."""
    sizes = [f.n for f in factors]
    n = math.prod(sizes)
    strides = [math.prod(sizes[:k]) for k in range(len(sizes))]
    comps = [(np.arange(n) // st) % s for s, st in zip(sizes, strides)]
    nu = np.zeros((n, n, n), dtype=np.int64)
    mu = np.zeros((n, n), dtype=np.int64)
    for f, c, st in zip(factors, comps, strides):
        nu += st * f.carrier.nu[np.ix_(c, c, c)].astype(np.int64)
        mu += st * f.carrier.mu[np.ix_(c, c)].astype(np.int64)
    labels = tuple("(" + ",".join(f.label(int(c[i])) for f, c in zip(factors, comps)) + ")"
                   for i in range(n))
    one = sum(st * f.one for f, st in zip(factors, strides))
    return labels, one, nu, mu


@pytest.mark.parametrize("factors", [
    ("F0(2)", "F0(3)"), ("F0(3)", "F0(3)"), ("odd(8)", "F0(3)"), ("F0(1)", "odd(4)"),
    ("F0(4)", "F0(5)"),                      # n = 128: 2^21 cells of nu from the retracts
    ("F0(2)", "F0(2)", "F0(2)"), ("F0(3)", "F0(2)", "odd(4)"),
    ("F0(2)", "F0(3)", "F0(5)"),             # three factors, n = 128
])
def test_product_tables_match_the_summed_cubes(factors):
    built = [odd_residue_field(int(name[4:-1])) if name.startswith("odd")
             else build_f0(int(name[3:-1]), check="light") for name in factors]
    f = product_field(*built, check="light").field
    labels, one, nu, mu = summed_product_tables(*built)
    assert f.labels == labels and f.one == one
    assert f.carrier.nu.dtype == f.carrier.mu.dtype == np.int32
    assert (f.carrier.nu == nu).all() and (f.carrier.mu == mu).all()


def test_product_construction_holds_no_int64_cube():
    # n = 128, whose int32 nu is 8 MiB; the factors are built before tracing
    # starts.  Summing whole int64 cubes peaked at 40 MiB here.
    factors = build_f0(4, check="light"), build_f0(5, check="light")
    tracemalloc.start()
    try:
        f = product_field(*factors, check=False).field
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.n == 128
    assert peak < 2 * f.carrier.nu.nbytes, peak


@pytest.mark.parametrize("position", [0, 1])
def test_a_factor_without_a_certified_retract_is_named(position):
    # F0(3)'s nu followed by a transposition is no coset form: the product
    # takes nu from its factors' retracts, so it refuses that factor
    f = build_f0(3)
    pi = np.arange(f.n, dtype=np.int32)
    pi[[1, 2]] = 2, 1
    twisted = FiniteThreeField(TernaryCarrier(f.labels, pi[f.carrier.nu], f.carrier.mu),
                               f.one, check=False)
    factors = [odd_residue_field(4)]
    factors.insert(position, twisted)
    with pytest.raises(StructureError, match=re.escape(
            f"factor {position + 1} (FiniteThreeField(4 elements, table)) "
            "has no certified retract")):
        product_field(*factors, check=False)


# -- prime subfields ----------------------------------------------------------------------------

def test_characteristic_of_odd_residues():
    for m in (2, 4, 8, 16):
        res = prime_subfield(odd_residue_field(m))
        assert res.characteristic == m // 2   # closure of 1 is everything
        assert res.isomorphism is not None


def test_characteristic_of_quotient_fields_is_one():
    for n in (1, 2, 3, 4):
        res = prime_subfield(build_f0(n))
        assert res.characteristic == 1


PRIME_SUBFIELD_FIELDS = {
    **{f"F0({k})": lambda k=k: build_f0(k) for k in (1, 2, 3, 5, 8)},
    **{f"odd({m})": lambda m=m: odd_residue_field(m) for m in (2, 4, 64, 1024)},
    "F0(2,2)": lambda: build_quotient_field(QuotientFieldSpec((2, 2))),
    "F0(2)xodd(8)": lambda: product_field(build_f0(2), odd_residue_field(8)).field,
    "toeplitz(3, odd(4))": lambda: toeplitz_field(3, odd_residue_field(4)).field,
    "triangular(2, odd(8))": lambda: triangular_field(2, odd_residue_field(8)).field,
    "quaternion(odd(4))": lambda: quaternion_field(odd_residue_field(4)).field,
    "F0(2) over odd(8)": lambda: build_quotient_field(QuotientFieldSpec((2,), base=3)),
}


@pytest.mark.parametrize("name", list(PRIME_SUBFIELD_FIELDS))
def test_prime_subfield_is_the_closure_of_one_with_the_searched_isomorphism(name):
    # the subfield is the closure of {1}, and the isomorphism written down
    # is the one the envelope search finds
    f = PRIME_SUBFIELD_FIELDS[name]()
    res = prime_subfield(f)
    closure = _subalgebra_closure(f, [f.one])[0]
    assert res.subfield.labels == tuple(f.label(i) for i in closure)
    assert res.subfield.label(res.subfield.one) == f.label(f.one)
    assert res.characteristic == len(closure)
    iso = field_isomorphism(res.subfield, odd_residue_field(2 * res.characteristic))
    assert res.isomorphism.mapping == iso.mapping


def test_prime_subfield_refuses_an_unchecked_table_without_a_retract():
    # F0(3)'s nu followed by a transposition is no coset form; and an odd
    # residue table whose orbit of 1 under nu(t, 1, 1) runs into a cycle
    # that misses 1 stops after n steps
    f = build_f0(3)
    pi = np.arange(f.n, dtype=np.int32)
    pi[[0, 3]] = 3, 0
    twisted = FiniteThreeField(TernaryCarrier(f.labels, pi[f.carrier.nu], f.carrier.mu),
                               f.one, check=False)
    with pytest.raises(StructureError, match="needs a certified retract"):
        prime_subfield(twisted)
    o = odd_residue_field(16, check=False)
    nu = o.carrier.nu.copy()
    nu[3, o.one, o.one] = 2                     # 1, 3, 5, 7, 5, 7, ...
    looped = FiniteThreeField(TernaryCarrier(o.labels, nu, o.carrier.mu), o.one, check=False)
    with pytest.raises(StructureError, match="does not return to 1"):
        prime_subfield(looped)


# -- evaluation morphisms -------------------------------------------------------------------------

def test_eval_hom_basics():
    f = build_f0(3)
    x = f.index("x")
    assert eval_hom(P("x"), f, [x]) == x
    assert eval_hom(P("x^2"), f, [x]) == f.index("x^2")
    assert eval_hom(P("x^2 + x + 1"), f, [x]) == f.index("x^2+x+1")
    assert eval_hom(P("x^4"), f, [x]) == f.one


def test_eval_hom_needs_odd_polynomials():
    f = build_f0(3)
    with pytest.raises(StructureError, match="odd"):
        eval_hom(P("x + 1"), f, [f.index("x")])


def test_eval_hom_surjectivity_report():
    f = build_f0(3)
    report = eval_hom_surjectivity(f, [f.index("x")])
    assert report["surjective_onto_field"]
    assert report["count"] == f.n


# -- closure with witnesses -----------------------------------------------------------------------

def reference_subalgebra(field, targets):
    """The closure element by element: each round walks the sorted closed
    set as (a, b) -> mu(a,b), then c -> nu(a,b,c), and credits each new
    element to its first event.  Witnesses are built by the public
    constructor, never by TernaryPolynomial's own arithmetic."""
    k = len(targets)
    vars = tuple(f"x{i+1}" for i in range(k)) if k > 1 else ("x",)
    witness = {field.one: TernaryPolynomial.constant(1, vars)}
    for i, t in enumerate(targets):
        witness.setdefault(int(t), TernaryPolynomial.variable(vars[i], vars))
    frontier = sorted(witness)
    closed = set(witness)
    while frontier:
        arr = sorted(closed)
        new = {}
        for a in arr:
            for b in arr:
                r = field.mu(a, b)
                if r not in closed and r not in new:
                    new[r] = public_product(witness[a], witness[b])
                for c in arr:
                    s = field.nu(a, b, c)
                    if s not in closed and s not in new:
                        new[s] = public_sum(witness[a], witness[b], witness[c])
        witness.update(new)
        closed |= set(new)
        frontier = sorted(new)
    indices = sorted(closed)
    return indices, {i: witness[i] for i in indices}


CLOSURE_FIELDS = {
    **{f"F0({k})": (lambda k=k: build_f0(k, check="light")) for k in (3, 4, 5, 6)},
    **{f"odd({m})": (lambda m=m: odd_residue_field(m, check="light")) for m in (16, 32, 64)},
    "F0(2)xF0(3)": lambda: product_field(build_f0(2), build_f0(3), check="light").field,
}


def assert_closure_matches_reference(f, targets):
    indices, witnesses = generated_subalgebra(f, targets)
    ref_indices, ref_witnesses = reference_subalgebra(f, targets)
    assert indices == ref_indices
    assert list(witnesses) == ref_indices
    assert {i: str(w) for i, w in witnesses.items()} == \
        {i: str(w) for i, w in ref_witnesses.items()}
    return indices


@pytest.mark.parametrize("name", list(CLOSURE_FIELDS))
def test_closure_matches_the_elementwise_reference(name):
    f = CLOSURE_FIELDS[name]()
    rng = random.Random(name)
    for _ in range(12 if f.n <= 16 else 4):
        targets = [rng.randrange(f.n) for _ in range(rng.choice((1, 2, 3)))]
        assert_closure_matches_reference(f, targets)


def test_closure_of_sets_that_do_not_generate_the_field():
    f = build_f0(5)
    x, x2, x4 = f.index("x"), f.index("x^2"), f.index("x^4")
    sizes = {}
    for name, targets in (("x^2", [x2]), ("x^4", [x4]), ("x^3+x+1", [f.index("x^3+x+1")]),
                          ("1", [f.one]), ("none", []), ("x^2,x^4", [x2, x4]),
                          ("x,x", [x, x]), ("x^2,x^2", [x2, x2])):
        sizes[name] = len(assert_closure_matches_reference(f, targets))
    assert sizes == {"x^2": 4, "x^4": 2, "x^3+x+1": 4, "1": 1, "none": 1,
                     "x^2,x^4": 4, "x,x": 16, "x^2,x^2": 4}


# -- closures of many seed sets at once ---------------------------------------------------------

BATCH_FIELDS = {
    **{f"F0({k})": (lambda k=k: build_f0(k, check=False)) for k in range(1, 9)},
    **{f"odd({m})": (lambda m=m: odd_residue_field(m, check="light"))
       for m in (4, 8, 16, 32, 64, 128)},
    "F0(2,2)": lambda: build_f0(2, 2, check="light"),
    "F0(2)xF0(3)": lambda: product_field(build_f0(2), build_f0(3), check="light").field,
    # noncommutative
    "T2(odd(4))": lambda: triangular_field(2, odd_residue_field(4)).field,
}


def batch_seeds(f):
    """[one, P] for every element P, then seeded random pairs and triples."""
    rng = np.random.default_rng(f.n)
    return [np.stack([np.full(f.n, f.one), np.arange(f.n)], axis=1),
            rng.integers(f.n, size=(8, 2)), rng.integers(f.n, size=(8, 3))]


@pytest.mark.parametrize("cells", [None, 1, 4096])
@pytest.mark.parametrize("name", list(BATCH_FIELDS))
def test_batched_closures_match_the_closure_of_each_set(name, cells, monkeypatch):
    f = BATCH_FIELDS[name]()
    batches = batch_seeds(f)
    want = [[_subalgebra_closure(f, list(row))[0] for row in seeds] for seeds in batches]
    if cells:                                   # rows split across chunks
        monkeypatch.setattr(poly_fields, "_CLOSURE_CELLS", cells)
    for seeds, sets in zip(batches, want):
        masks = _subalgebra_closures(f, seeds)
        assert masks.shape == (len(seeds), f.n)
        assert [np.flatnonzero(m).tolist() for m in masks] == sets
    assert "nu" not in vars(f.carrier)


def test_batched_closures_refuse_an_unproven_carrier(monkeypatch):
    f = build_f0(3)
    monkeypatch.setattr(TernaryCarrier, "generators", property(lambda self: None))
    with pytest.raises(StructureError, match="certified retract"):
        _subalgebra_closures(f, [[f.one, 1]])


def test_closure_rejects_targets_outside_the_field():
    f = build_f0(3)
    for bad in (-1, f.n, f.n + 5):
        with pytest.raises(StructureError, match="not an element"):
            generated_subalgebra(f, [bad])
        with pytest.raises(StructureError, match="not an element"):
            generated_subalgebra(f, [f.index("x"), bad])
