"""Odd-denominator rationals, the 2-adic valuation and truncation towers."""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternfield import (
    OddDenomRational,
    PrecisionError,
    QOddField,
    StructureError,
    TruncatedDyadic,
    jn_membership,
    norm2_str,
    odd_rational,
    reduce_mod,
    val2,
)
from ternfield import _suite, dyadic
from ternfield._suite import (
    _CHUNK,
    _DYADIC_CASES,
    _DYADIC_SECTIONS,
    _DYADIC_SEED,
    _MORPHISM_RANGES,
    _VALUATION_RANGES,
    _replay,
    criterion_9,
)
from ternfield.dyadic import (
    DyadicIdeal,
    _inverse,
    _low_bit,
    _residue,
    _truncate,
    add3,
    mul,
    quer,
)
from ternfield.poly_fields import val2_fraction

from oracles import SCALAR_DRAWS, inv, scalar_criterion_9
from test_random_words import CRITERION_9_RANGES

odd_ints = st.integers(-400, 400).map(lambda k: 2 * k + 1)
envelope_fractions = st.builds(
    OddDenomRational, st.integers(-10**6, 10**6), odd_ints)
field_fractions = st.builds(odd_rational, odd_ints, odd_ints)


# -- the carrier --------------------------------------------------------------

def test_even_denominators_are_rejected():
    with pytest.raises(StructureError, match="even denominator"):
        OddDenomRational(1, 2)
    with pytest.raises(StructureError, match="even denominator"):
        OddDenomRational(3, 10)
    assert OddDenomRational(4, 6).value == OddDenomRational(2, 3).value


def test_a_fraction_is_taken_as_it_is_and_still_checked():
    for bad in (Fraction(1, 2), Fraction(-3, 10)):
        with pytest.raises(StructureError, match=f"^{bad} has an even denominator: "
                           "not an odd-denominator rational$"):
            OddDenomRational(bad)
    with pytest.raises(StructureError, match="even denominator"):
        OddDenomRational(Fraction(1, 3), 2)
    x = Fraction(-6, 9)
    assert OddDenomRational(x).value == x and type(OddDenomRational(x).value) is Fraction
    assert OddDenomRational(Fraction(1, 3), 3).value == Fraction(1, 9)
    assert val2_fraction(Fraction(-12, 5)) == val2_fraction(-12) - val2_fraction(5) == 2
    assert val2_fraction(Fraction(3, 8)) == -3


def test_paper_suite_criterion_9_detail_is_pinned():
    assert criterion_9() == (True, {"morphism_cases": 10000, "truncation_cases": 10000,
                                    "val2_cases": 10000})


def test_field_membership_needs_both_parts_odd():
    assert odd_rational(3, 5).is_odd_element()
    with pytest.raises(StructureError, match="even numerator"):
        odd_rational(2, 3)
    assert not OddDenomRational(2, 3).is_odd_element()
    assert OddDenomRational(-3, 5).is_odd_element()
    assert not OddDenomRational(-2, 5).is_odd_element()
    assert not OddDenomRational(0).is_odd_element()


@given(envelope_fractions, envelope_fractions)
def test_envelope_closed_under_ring_operations(x, y):
    assert isinstance(x + y, OddDenomRational)
    assert isinstance(x * y, OddDenomRational)
    assert isinstance(-x, OddDenomRational)


@given(field_fractions, field_fractions, field_fractions)
def test_field_closed_under_ternary_operations(x, y, z):
    assert add3(x, y, z).is_odd_element()
    assert mul(x, y).is_odd_element()
    assert quer(x).is_odd_element()
    assert mul(x, inv(x)) == 1


def test_sum_of_two_field_elements_leaves_the_field():
    s = odd_rational(1) + odd_rational(3)
    assert isinstance(s, OddDenomRational) and not s.is_odd_element()


def test_querelement_law():
    x = odd_rational(7, 3)
    assert add3(x, x, quer(x)) == x


def test_inverse_requires_odd_numerator():
    with pytest.raises(StructureError, match="not invertible"):
        inv(OddDenomRational(4, 3))


# -- 2-adic valuation ----------------------------------------------------------

@pytest.mark.parametrize("x,expected", [
    (1, 0), (3, 0), (2, 1), (12, 2), (96, 5),
    (OddDenomRational(8, 3), 3), (OddDenomRational(3, 1), 0),
])
def test_val2_values(x, expected):
    assert val2(x) == expected


def test_val2_of_zero_is_infinite():
    assert val2(0) is math.inf
    assert norm2_str(0) == "0"


def loop_val2(num):
    """The 2-adic valuation of a nonzero integer by repeated halving."""
    num, r = abs(num), 0
    while num % 2 == 0:
        num, r = num // 2, r + 1
    return r


INTEGERS = ([1, -1, 6, -6, 12, -96, 3 * 2 ** 70, -(5 * 2 ** 200 + 2 ** 199)]
            + [s * 2 ** e for e in (0, 1, 2, 31, 32, 63, 64, 65, 1000) for s in (1, -1)])


@pytest.mark.parametrize("num", INTEGERS)
def test_integer_valuations_match_repeated_halving(num):
    assert val2(num) == loop_val2(num)
    assert val2(OddDenomRational(num, 7)) == loop_val2(num)
    assert val2_fraction(Fraction(num, 3)) == loop_val2(num)
    assert val2_fraction(Fraction(3, num)) == -loop_val2(num)


def test_valuation_of_zero_rational_is_refused():
    with pytest.raises(StructureError, match="valuation of zero"):
        val2_fraction(0)


def test_norm2_rendering():
    assert norm2_str(3) == "1"
    assert norm2_str(12) == "2^-2"


@given(envelope_fractions, envelope_fractions)
def test_val2_is_multiplicative(x, y):
    if x.value == 0 or y.value == 0:
        assert val2(x * y) is math.inf
    else:
        assert val2(x * y) == val2(x) + val2(y)


@given(envelope_fractions, envelope_fractions)
def test_val2_ultrametric(x, y):
    v = val2(x + y)
    assert v >= min(val2(x), val2(y))


@given(envelope_fractions, envelope_fractions)
def test_val2_ultrametric_is_tight_on_distinct_valuations(x, y):
    if val2(x) != val2(y):
        assert val2(x + y) == min(val2(x), val2(y))


@pytest.mark.parametrize("x,n,member", [
    (8, 3, True), (8, 4, False), (4, 3, False),
    (OddDenomRational(16, 5), 4, True), (0, 10, True),
])
def test_dyadic_ideal_membership(x, n, member):
    assert jn_membership(x, n) is member
    assert (x in DyadicIdeal(n)) is member if n >= 1 else True


# -- reduction to the residue fields ---------------------------------------------

def test_reduce_mod_small_values():
    assert reduce_mod(3, 3) == 3
    assert reduce_mod(OddDenomRational(1, 3), 4) == 11  # 3*11 = 33 = 1 mod 16
    assert reduce_mod(OddDenomRational(3, 5), 4) == 7   # 5*7 = 35 = 3 mod 16


@given(envelope_fractions, envelope_fractions, st.integers(1, 16))
def test_reduce_mod_is_a_ring_morphism(x, y, n):
    m = 1 << n
    assert reduce_mod(x + y, n) == (reduce_mod(x, n) + reduce_mod(y, n)) % m
    assert reduce_mod(x * y, n) == (reduce_mod(x, n) * reduce_mod(y, n)) % m


@given(field_fractions, st.integers(1, 16))
def test_reduce_mod_sends_field_onto_odd_residues(x, n):
    assert reduce_mod(x, n) % 2 == 1


def test_reduce_mod_rejects_zero_precision():
    with pytest.raises(StructureError):
        reduce_mod(3, 0)


# -- truncation tower --------------------------------------------------------------

def test_truncated_arithmetic_is_mod_2n():
    a = TruncatedDyadic(13, 4)
    b = TruncatedDyadic(7, 4)
    assert (a + b).value == 4
    assert (a * b).value == 11
    assert (-a).value == 3
    assert a.add3(b, b).value == (13 + 7 + 7) % 16
    assert a.quer().value == 3


def test_truncated_inverse():
    a = TruncatedDyadic(13, 4)
    assert (a * a.inv()).value == 1
    with pytest.raises(StructureError, match="even"):
        TruncatedDyadic(6, 4).inv()


def test_mismatched_precision_raises():
    a = TruncatedDyadic(3, 4)
    b = TruncatedDyadic(3, 5)
    with pytest.raises(PrecisionError, match="mismatch"):
        a + b
    with pytest.raises(PrecisionError):
        a * b


def test_precision_can_only_fall():
    a = TruncatedDyadic(13, 4)
    assert a.reduce_precision(2).value == 1
    with pytest.raises(PrecisionError, match="raise"):
        a.reduce_precision(6)
    for k in (0, -3):
        with pytest.raises(StructureError, match="at least 1"):
            a.reduce_precision(k)


@settings(max_examples=60)
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70),
       st.integers(1, 64), st.integers(1, 64))
def test_arithmetic_results_equal_the_public_constructor(x, y, p, k):
    # results skip the constructor's checks; each equals what it would build
    a, b = TruncatedDyadic(x, p), TruncatedDyadic(y, p)
    results = [(a + b, x + y), (a * b, x * y), (-a, -x), (a - b, x - y),
               (a.add3(b, b), x + 2 * y)]
    if a.is_odd_element():
        results.append((a.inv(), pow(a.value, -1, 1 << p)))
    for got, value in results:
        assert type(got) is TruncatedDyadic
        assert (got.value, got.precision) == (value % (1 << p), p)
        assert got == TruncatedDyadic(value, p)
    lo = min(k, p)
    assert a.reduce_precision(lo) == TruncatedDyadic(x, lo)


@settings(max_examples=60)
@given(envelope_fractions, envelope_fractions,
       st.integers(2, 16), st.integers(1, 16))
def test_lowering_precision_commutes_with_operations(x, y, hi, lo):
    if lo > hi:
        hi, lo = lo, hi
    a, b = TruncatedDyadic(reduce_mod(x, hi), hi), TruncatedDyadic(reduce_mod(y, hi), hi)
    for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u - v):
        high_road = op(a, b).reduce_precision(lo)
        low_road = op(a.reduce_precision(lo), b.reduce_precision(lo))
        assert high_road == low_road


@given(field_fractions, st.integers(2, 16), st.integers(1, 16))
def test_lowering_precision_commutes_with_inversion(x, hi, lo):
    if lo > hi:
        hi, lo = lo, hi
    a = TruncatedDyadic(reduce_mod(x, hi), hi)
    assert a.inv().reduce_precision(lo) == a.reduce_precision(lo).inv()


# -- the symbolic infinite field ------------------------------------------------------

# -- the kernels, on ints and on arrays -------------------------------------------

def test_kernels_on_ints_agree_with_pow_and_fraction():
    rng = random.Random(5)
    for n in range(1, 301):
        for _ in range(3):
            q = 2 * rng.randrange(-2 ** 80, 2 ** 80) + 1
            p = rng.randrange(-2 ** 80, 2 ** 80)
            m = 1 << n
            assert _truncate(p, n) == p % m
            assert _inverse(q, n) == pow(q, -1, m)
            assert _residue(p, q, n) == p * pow(q, -1, m) % m
            # a common odd factor leaves the residue alone
            odd = 2 * rng.randrange(1, 2 ** 40) + 1
            x = Fraction(p * odd, q * odd)
            assert _residue(p * odd, q * odd, n) == _residue(x.numerator, x.denominator, n)
            assert reduce_mod(OddDenomRational(x), n) == _residue(p, q, n)
            assert type(reduce_mod(OddDenomRational(x), n)) is int


@pytest.mark.parametrize("num", INTEGERS)
def test_low_bit_is_the_power_of_the_valuation(num):
    assert _low_bit(num) == 2 ** loop_val2(num)
    assert _low_bit(0) == 0


def fed_rows(sections):
    """criterion_9 run on `sections` in place of its own: its ledger, and the
    rows each section's laws were fed."""
    fed = {}

    def recorded(section):
        def laws(rows):
            fed[section.name] = rows.copy()
            return section.laws(rows)
        return section._replace(laws=laws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_suite, "_DYADIC_SECTIONS", [recorded(s) for s in sections])
        return criterion_9(), fed


@functools.lru_cache(maxsize=None)
def scalar_rows(failing=None, case=None):
    """Each section's 10,000 rows drawn one `randrange` call at a time from
    the seed, the section after `failing` starting after its case `case`."""
    rng = random.Random(_DYADIC_SEED)
    rows = {}
    for section in _DYADIC_SECTIONS:
        draws = SCALAR_DRAWS[section.name]
        origin = rng.getstate()
        rows[section.name] = draws(rng, _DYADIC_CASES)
        if section.name == failing:
            rng.setstate(origin)
            draws(rng, case + 1)
    return rows


def assert_rows_equal(fed, expected):
    assert fed.keys() == expected.keys()
    for name, rows in fed.items():
        assert rows.dtype == np.int64 and np.array_equal(rows, expected[name]), name


def test_kernels_on_uint64_arrays_agree_with_ints_over_criterion_9s_draws():
    _, fed = fed_rows(_DYADIC_SECTIONS)
    assert_rows_equal(fed, scalar_rows())
    rows = fed["morphism"]
    p, q = 2 * rows[:, :6:2].ravel() + 1, 2 * rows[:, 1:6:2].ravel() + 1
    n = np.repeat(rows[:, 6], 3)
    got = _residue(p.view(np.uint64), q.view(np.uint64), n.astype(np.uint64), bits=64)
    assert got.dtype == np.uint64
    assert got.tolist() == [_residue(a, b, k)
                            for a, b, k in zip(p.tolist(), q.tolist(), n.tolist())]

    rows = fed["truncation"]
    big, small = rows[:, 0].tolist(), rows[:, 1].tolist()
    a = (2 * rows[:, 2] + 1).tolist()
    ua = np.array(a, dtype=np.uint64)
    ubig, usmall = np.array(big, dtype=np.uint64), np.array(small, dtype=np.uint64)
    assert _inverse(ua, ubig, bits=64).tolist() == [_inverse(x, k) for x, k in zip(a, big)]
    assert _truncate(ua * ua, usmall).tolist() == [
        _truncate(x * x, k) for x, k in zip(a, small)]

    rows = fed["val2"]
    nums = (rows[:, 0] * rows[:, 1]).tolist()
    assert _low_bit(np.array(nums).view(np.uint64)).tolist() == [_low_bit(x) for x in nums]


def test_criterion_9s_intermediates_cannot_wrap():
    # the largest is the sum numerator of three odd fractions, |.| <= 3 * 999^3
    assert 3 * 999 ** 3 < 2 ** 63
    _, fed = fed_rows(_DYADIC_SECTIONS)
    assert_rows_equal(fed, scalar_rows())
    rows = fed["morphism"].tolist()
    assert max(abs(row[k]) for row in rows for k in range(6)) <= 500
    total = max(abs((2 * px + 1) * (2 * qy + 1) * (2 * qz + 1)
                    + (2 * py + 1) * (2 * qx + 1) * (2 * qz + 1)
                    + (2 * pz + 1) * (2 * qx + 1) * (2 * qy + 1))
                for px, qx, py, qy, pz, qz, _ in rows)
    assert total <= 3 * 999 ** 3
    rows = fed["val2"].tolist()
    assert max(abs(n1 * (2 * h2 + 1)) + abs(n2 * (2 * h1 + 1))
               for n1, n2, h1, h2 in rows) <= 2 * 2000 * 1999 < 2 ** 63


# -- criterion 9's draws: the replay against one randrange call at a time --------

def test_the_word_model_covers_every_range_the_replay_draws():
    assert set(_MORPHISM_RANGES + _VALUATION_RANGES) <= set(CRITERION_9_RANGES)


@pytest.mark.parametrize("seed", [_DYADIC_SEED, 0, 1, 2, 7, 123456789, 2 ** 64 + 7])
def test_each_section_replays_the_scalar_draws_and_leaves_the_stream_where_they_do(seed):
    rng, scalar = random.Random(seed), random.Random(seed)
    for section in _DYADIC_SECTIONS:
        rows, ends = _replay(rng, section, _DYADIC_CASES)
        assert np.array_equal(rows, SCALAR_DRAWS[section.name](scalar, _DYADIC_CASES))
        assert rng.getstate() == scalar.getstate()
        assert rng.getrandbits(32) == scalar.getrandbits(32)
        assert ends.dtype == np.int32 and (np.diff(ends) > 0).all()


@pytest.mark.parametrize("count", [1, _CHUNK - 1, 2 * _CHUNK + 7])
def test_a_count_that_is_no_whole_number_of_chunks_replays_the_scalar_draws(count):
    rng, scalar = random.Random(3), random.Random(3)
    for section in _DYADIC_SECTIONS:
        origin = rng.getstate()
        rows, ends = _replay(rng, section, count)
        assert np.array_equal(rows, SCALAR_DRAWS[section.name](scalar, count))
        assert rng.getstate() == scalar.getstate()
        # each case ends where a loop drawing it and the cases before it stops
        for case in sorted({0, count // 2, count - 1}):
            replayed, looped = random.Random(), random.Random()
            replayed.setstate(origin)
            looped.setstate(origin)
            replayed.getrandbits(32 * int(ends[case]))
            SCALAR_DRAWS[section.name](looped, case + 1)
            assert replayed.getstate() == looped.getstate()


@pytest.mark.parametrize("case", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _DYADIC_CASES - 1])
@pytest.mark.parametrize("failing", [section.name for section in _DYADIC_SECTIONS])
def test_a_failing_case_resumes_the_next_section_where_its_draws_end(failing, case):
    def fails(rows):
        return [np.arange(len(rows)) == case]

    sections = [s._replace(laws=fails) if s.name == failing else s for s in _DYADIC_SECTIONS]
    (ok, detail), fed = fed_rows(sections)
    expected = scalar_rows(failing, case)
    assert_rows_equal(fed, expected)
    section = next(s for s in _DYADIC_SECTIONS if s.name == failing)
    assert not ok and detail[f"{failing}_cases"] == case
    assert detail[f"{failing}_counterexample"] == section.counterexample(
        expected[failing][case].tolist(), 0)
    assert all(detail[f"{s.name}_cases"] == _DYADIC_CASES
               for s in _DYADIC_SECTIONS if s.name != failing)


@pytest.mark.parametrize("failing", [None, "morphism"])
def test_a_window_that_runs_out_grows(monkeypatch, failing):
    fetched = []
    words = _suite._words
    monkeypatch.setattr(_suite, "_words",
                        lambda rng, count: fetched.append(count) or words(rng, count))

    def fails(rows):
        return [np.arange(len(rows)) == _CHUNK + 1]

    # one word per case: a chunk's first window is too short, and grows
    sections = [s._replace(words_per_case=1, laws=fails if s.name == failing else s.laws)
                for s in _DYADIC_SECTIONS]
    ledger, fed = fed_rows(sections)
    assert_rows_equal(fed, scalar_rows(failing, None if failing is None else _CHUNK + 1))
    if failing is None:
        assert ledger == scalar_criterion_9()
    assert len(fetched) >= 2 * len(_DYADIC_SECTIONS) * _DYADIC_CASES // _CHUNK


# -- criterion 9: the array route against the case-at-a-time oracle -----------------
# Each mutant is a function of the true kernel's value, so an int and a
# uint64 array give the same residues, and a common odd factor of a
# fraction's parts changes nothing: the array route keeps fractions
# unreduced.  A val2 mutant returns a power of two or 0 (val2 -1).

def _at_16(n, r, other):
    """`other` at precision 16, r elsewhere."""
    return r + (n == 16) * (other - r)


MUTANTS = {
    # the residue cubed at precision 16: products still map, sums do not
    "residue_cubed": {"_residue": lambda p, q, n, bits=None: _truncate(
        _at_16(n, _residue(p, q, n, bits), _residue(p, q, n, bits) ** 3), n)},
    # three times the residue at precision 16: sums still map, products do not
    "residue_tripled": {"_residue": lambda p, q, n, bits=None: _truncate(
        _at_16(n, _residue(p, q, n, bits), 3 * _residue(p, q, n, bits)), n)},
    # the top bit of an even value flipped: every odd truncation is exact
    "truncate": {"_truncate": lambda x, n: _truncate(x, n) ^ ((1 - (x & 1)) << (n - 1))},
    # the top bit of the inverse flipped: sums still map, products do not
    "inverse": {"_inverse": lambda q, n, bits=None: _inverse(q, n, bits) ^ (1 << (n - 1))},
    # val2 capped at 3: still ultrametric, no longer multiplicative
    "low_bit_capped": {"_low_bit": lambda x: _low_bit(x) - (_low_bit(x) > 8) * (
        _low_bit(x) - 8)},
    # val2 4 sent to -1: an odd x and y whose sum has val2 4 break the ultrametric law
    "low_bit_vanishing": {"_low_bit": lambda x: _low_bit(x) * (_low_bit(x) != 16)},
}
# fail in two sections: the later one draws from where the earlier broke
MUTANTS["residue_and_truncate"] = {**MUTANTS["residue_cubed"], **MUTANTS["truncate"]}
MUTANTS["truncate_and_low_bit"] = {**MUTANTS["truncate"], **MUTANTS["low_bit_capped"]}

# the ledger each mutant should fail with: counterexample key -> its length and tag
EXPECTED_FAILURES = {
    "residue_cubed": {"morphism_counterexample": 4},
    "residue_tripled": {"morphism_counterexample": 3},
    "truncate": {"truncation_counterexample": 4},
    "inverse": {"morphism_counterexample": 3, "truncation_counterexample": 4},
    "low_bit_capped": {"val2_counterexample": "multiplicativity"},
    "low_bit_vanishing": {"val2_counterexample": "ultrametric"},
    "residue_and_truncate": {"morphism_counterexample": 4,
                             "truncation_counterexample": 4},
    "truncate_and_low_bit": {"truncation_counterexample": 4,
                             "val2_counterexample": "multiplicativity"},
}


def test_criterion_9_equals_the_scalar_oracle_on_the_seed():
    assert criterion_9() == scalar_criterion_9()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_criterion_9_equals_the_scalar_oracle_on_a_mutant_kernel(monkeypatch, name):
    for kernel, mutant in MUTANTS[name].items():
        for module in (dyadic, _suite):
            monkeypatch.setattr(module, kernel, mutant)
    expected = scalar_criterion_9()
    ok, detail = expected
    failures = {key: value for key, value in detail.items() if key.endswith("_counterexample")}
    assert not ok and failures.keys() == EXPECTED_FAILURES[name].keys()
    for key, shape in EXPECTED_FAILURES[name].items():
        assert len(failures[key]) == shape if isinstance(shape, int) else (
            failures[key][-1] == shape)
    assert criterion_9() == expected


def test_qodd_membership_and_operations():
    q = QOddField()
    assert odd_rational(3, 5) in q
    assert OddDenomRational(2, 5) not in q
    assert 3 not in q  # raw ints are not members; coercion is explicit
    assert q.mu(odd_rational(3), odd_rational(5)) == 15
    assert q.nu(1, 1, 1) == 3


def test_qodd_quotients_to_odd_residue_fields():
    q = QOddField()
    result = q.quotient_by_ideal(DyadicIdeal(3))
    assert result.field.n == 4
    assert result.report["evenly_maximal"]
    with pytest.raises(StructureError, match="DyadicIdeal"):
        q.quotient_by_ideal("<8>")
