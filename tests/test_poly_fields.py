"""Polynomials, quotient fields, parity, norms and the completely-even law."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternfield import (
    CarrierSizeError,
    QuotientFieldSpec,
    StructureError,
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
from ternfield.poly_fields import (
    QuotientAlgebra,
    generated_subalgebra,
    gf2_divmod,
    gf2_mul,
    gf2_str,
)

P = TernaryPolynomial.parse


def small_polys(max_degree=6, max_coeff=9):
    coeffs = st.integers(-max_coeff, max_coeff)
    return st.lists(coeffs, min_size=1, max_size=max_degree + 1).map(
        lambda cs: TernaryPolynomial(("x",), {(i,): c for i, c in enumerate(cs)}))


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


def test_evaluate():
    p = P("x^2 + 3*x + 1")
    assert p.evaluate([2]) == 11
    assert P("x1*x2 - 1").evaluate([3, 5]) == 14
    assert p.evaluate([Fraction(1, 3)]) == Fraction(19, 9)


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


def test_gf2_str():
    assert gf2_str(0b1011) == "x^3+x+1"
    assert gf2_str(1) == "1"
    assert gf2_str(0) == "0"


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
    assert f.power(x, 4) == f.one


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
    assert table.shape == (len(alg.carrier),) * 2
    for a, ma in enumerate(alg.carrier):
        for b, mb in enumerate(alg.carrier):
            assert table[a, b] == alg.mul(ma, mb)


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
            names = [f"x{t+1}" for t in range(alg.nvars)] if alg.nvars > 1 else ["x"]
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
    alg = QuotientAlgebra((4,))
    for mask in range(1, 1 << alg.m_count):
        assert alg.from_x(alg.to_x(mask)) == mask
        assert alg.to_x(alg.from_x(mask)) == mask


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


def test_product_differs_from_joint_quotient():
    prod = product_field(build_f0(2), build_f0(2)).field
    joint = build_quotient_field(QuotientFieldSpec((2, 2)))
    assert prod.n == 4 and joint.n == 8


def test_triple_product():
    f = product_field(build_f0(2), build_f0(2), build_f0(2)).field
    assert f.n == 8
    assert f.label(f.one) == "(1,1,1)"


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
    element to its first event."""
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
                    new[r] = witness[a] * witness[b]
                for c in arr:
                    s = field.nu(a, b, c)
                    if s not in closed and s not in new:
                        new[s] = witness[a] + witness[b] + witness[c]
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


def test_closure_rejects_targets_outside_the_field():
    f = build_f0(3)
    for bad in (-1, f.n, f.n + 5):
        with pytest.raises(StructureError, match="not an element"):
            generated_subalgebra(f, [bad])
        with pytest.raises(StructureError, match="not an element"):
            generated_subalgebra(f, [f.index("x"), bad])
