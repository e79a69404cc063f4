"""End-to-end verification suite behind the `paper-suite` CLI verb.

Eleven criteria re-derive the package's central results from scratch and
check them against frozen reference data: axiom scans, envelope locality,
cardinalities, multiplication tables, automorphism groups, the
completely-even factorization law, the embedding criterion, product fields,
dyadic coherence, free resolutions, and the matrix / quaternion / group
constructions.  Every value in the ledger is computed exactly; timings go
to stderr so the data stream stays byte-identical across runs.
"""

import math
import random
import time
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .ternary_kernel import (
    check_distributivity,
    check_ternary_group,
    detect_derived_structure,
    odd_residue_field,
)
from .pair_envelope import (
    RingMorphism,
    build_envelope,
    embedding_criterion,
    field_isomorphism,
    residue_ring,
    verify_local,
)
from .dyadic import TruncatedDyadic, _inverse, _low_bit, _residue, _truncate, odd_rational
from .poly_fields import (
    QuotientFieldSpec,
    TernaryPolynomial,
    build_f0,
    cardinality,
    completely_even,
    parity,
    product_field,
)
from .automorphisms import (
    automorphism_group,
    cayley_table,
    fingerprint_group,
)
from .structures import (
    cyclic_group,
    free_resolution,
    group_algebra,
    quaternion_field,
    quaternion_inverse_check,
    toeplitz_field,
    triangular_field,
    vector_power_space,
)

# frozen reference tables, written in the display letters ------------------

F03_LETTER_ORDER = ["1", "a", "b", "c"]
F03_MULT_REFERENCE = [
    ["1", "a", "b", "c"],
    ["a", "b", "c", "1"],
    ["b", "c", "1", "a"],
    ["c", "1", "a", "b"],
]
# the transcription this table was checked against prints c at the (c,c)
# cell; the Latin-square property and direct computation force b there
F03_TRANSCRIBED_CC = "c"

F04_LETTER_ORDER = ["1", "a", "b", "c", "d", "e", "f", "g"]
F04_MULT_REFERENCE = [
    ["1", "a", "b", "c", "d", "e", "f", "g"],
    ["a", "b", "c", "1", "g", "d", "e", "f"],
    ["b", "c", "1", "a", "f", "g", "d", "e"],
    ["c", "1", "a", "b", "e", "f", "g", "d"],
    ["d", "g", "f", "e", "b", "a", "1", "c"],
    ["e", "d", "g", "f", "a", "1", "c", "b"],
    ["f", "e", "d", "g", "1", "c", "b", "a"],
    ["g", "f", "e", "d", "c", "b", "a", "1"],
]

AUT5_LETTER_ORDER = ["a", "c", "e", "g", "p", "r", "t", "v"]
AUT5_COMPOSITION_REFERENCE = [
    ["a", "c", "e", "g", "p", "r", "t", "v"],
    ["c", "a", "p", "r", "e", "g", "v", "t"],
    ["e", "v", "g", "t", "c", "p", "a", "r"],
    ["g", "r", "t", "a", "v", "c", "e", "p"],
    ["p", "t", "r", "v", "a", "e", "c", "g"],
    ["r", "g", "v", "c", "t", "a", "p", "e"],
    ["t", "p", "a", "e", "r", "v", "g", "c"],
    ["v", "e", "c", "p", "g", "t", "r", "a"],
]

_BUDGETS = {1: 10.0, 5: 5.0, 11: 30.0}


def _suite_fields():
    """The field roster shared by criteria 1, 2, 3 and 7."""
    roster = []
    for n in range(1, 7):
        roster.append((f"odd(2^{n})", odd_residue_field(1 << n, check="light")))
    for n in range(1, 7):
        roster.append((f"F0({n})", build_f0(n, check="light")))
    roster.append(("F0(2,2)", build_f0(2, 2, check="light")))
    prod = product_field(build_f0(2, check="light"), build_f0(2, check="light"))
    roster.append(("F0(2)xF0(2)", prod.field))
    return roster


def criterion_1():
    """Axiom suite over the full field roster."""
    detail = {"fields": []}
    ok = True
    for name, f in _suite_fields():
        v_add = check_ternary_group(f.carrier, limit=f.n)
        v_mul = check_distributivity(f.carrier, limit=f.n)
        found = detect_derived_structure(f.carrier)
        passed = (bool(v_add) and bool(v_mul)
                  and found["unit"] == f.one and found["zero"] is None)
        entry = {"field": name, "size": f.n, "passed": passed}
        if not v_add:
            entry["witness"] = v_add.detail
        elif not v_mul:
            entry["witness"] = v_mul.detail
        detail["fields"].append(entry)
        ok = ok and passed
    return ok, detail


def criterion_2():
    """Envelope size, locality, and the residue-ring isomorphism."""
    detail = {"fields": [], "constructed_isomorphisms": []}
    ok = True
    for name, f in _suite_fields():
        env = build_envelope(f)
        report = verify_local(env)
        passed = (env.n == 2 * f.n
                  and report["is_local_with_z2_residue"]
                  and report.get("maximal_is_pair_part", False))
        detail["fields"].append({
            "field": name, "envelope_size": env.n,
            "maximal_ideal_count": len(report["maximal_ideals"]),
            "residue_sizes": report["residue_sizes"],
            "passed": passed,
        })
        ok = ok and passed
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
        iso = RingMorphism(env, ring, mapping)
        passed = iso.is_bijective()
        detail["constructed_isomorphisms"].append(
            {"envelope_of": f"odd(2^{n})", "target": f"Z/{mod}Z", "passed": passed})
        ok = ok and passed
    return ok, detail


def criterion_3():
    """Cardinalities: every constructed field is a power of two, and the
    single-variable quotient fields have 2^(n-1) elements through n = 8."""
    detail = {"sizes": [], "quotient_sizes": []}
    ok = True
    for name, f in _suite_fields():
        is_pow2 = f.n & (f.n - 1) == 0
        detail["sizes"].append({"field": name, "size": f.n, "power_of_two": is_pow2})
        ok = ok and is_pow2
    for n in range(1, 9):
        f = build_f0(n, check="light")
        expected = 1 << (n - 1)
        match = (f.n == expected
                 and cardinality(QuotientFieldSpec((n,))) == expected)
        detail["quotient_sizes"].append(
            {"n": n, "size": f.n, "expected": expected, "passed": match})
        ok = ok and match
    return ok, detail


def criterion_4():
    """Multiplication tables against the frozen references, with the
    corrected (c,c) cell reported explicitly."""
    detail = {}
    f3 = build_f0(3, check="light")
    t3 = cayley_table(f3).reorder(F03_LETTER_ORDER, letters=True)
    rows3 = [[t3.entry_label(i, j, letters=True) for j in range(t3.order)]
             for i in range(t3.order)]
    detail["f03_matches_reference"] = rows3 == F03_MULT_REFERENCE
    cc = rows3[F03_LETTER_ORDER.index("c")][F03_LETTER_ORDER.index("c")]
    detail["corrected_cell"] = {
        "row": "c", "column": "c",
        "computed": cc,
        "transcribed": F03_TRANSCRIBED_CC,
        "discrepancy_confirmed": cc == "b" and cc != F03_TRANSCRIBED_CC,
    }

    f4 = build_f0(4, check="light")
    t4 = cayley_table(f4).reorder(F04_LETTER_ORDER, letters=True)
    rows4 = [[t4.entry_label(i, j, letters=True) for j in range(t4.order)]
             for i in range(t4.order)]
    detail["f04_matches_reference"] = rows4 == F04_MULT_REFERENCE

    ok = (detail["f03_matches_reference"]
          and detail["corrected_cell"]["discrepancy_confirmed"]
          and detail["f04_matches_reference"])
    return ok, detail


def criterion_5():
    """Automorphism groups through n = 5."""
    detail = {}
    ok = True

    orders = {}
    for n in range(2, 6):
        f = build_f0(n, check="light")
        orders[n] = automorphism_group(f).order
    detail["orders"] = {f"F0({n})": orders[n] for n in orders}
    ok = ok and orders[2] == 1 and orders[3] == 2 and orders[4] == 4 and orders[5] == 8

    f3 = build_f0(3, check="light")
    t3 = automorphism_group(f3)
    pos_c = t3.position("c", letters=True)
    detail["f03_c_after_c_is_x"] = int(t3.table[pos_c, pos_c]) == t3.identity
    ok = ok and detail["f03_c_after_c_is_x"]

    f4 = build_f0(4, check="light")
    t4 = automorphism_group(f4)
    labs4 = t4.labels(letters=True)
    nontrivial = [l for i, l in enumerate(labs4) if i != t4.identity]
    involutions = all(int(t4.table[i, i]) == t4.identity
                      for i in range(t4.order) if i != t4.identity)
    detail["f04_nontrivial"] = sorted(nontrivial)
    detail["f04_all_involutions"] = involutions
    ok = ok and sorted(nontrivial) == ["c", "d", "f"] and involutions

    f5 = build_f0(5, check="light")
    t5 = automorphism_group(f5).reorder(AUT5_LETTER_ORDER, letters=True)
    rows5 = [[t5.entry_label(i, j, letters=True) for j in range(t5.order)]
             for i in range(t5.order)]
    detail["f05_matches_reference"] = rows5 == AUT5_COMPOSITION_REFERENCE
    fp = fingerprint_group(t5)
    detail["f05_fingerprint"] = fp["iso_class"]
    detail["f05_nonabelian"] = not fp["abelian"]
    ok = (ok and detail["f05_matches_reference"] and not fp["abelian"]
          and fp["iso_class"] == "D4 (the dihedral group of order 8)")
    return ok, detail


# -- an independent factorization oracle over the two-element coefficients --

def _mask_deg(m):
    return m.bit_length() - 1


def _mask_divmod(a, b):
    q = 0
    db = _mask_deg(b)
    while a and _mask_deg(a) >= db:
        shift = _mask_deg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _mask_factor(m):
    """Full factorization over the two-element coefficient ring by trial
    division, smallest divisor first."""
    factors = []
    while _mask_deg(m) > 0:
        hit = None
        d = 2
        while d <= 1 << (_mask_deg(m) // 2 + 1):
            q, r = _mask_divmod(m, d)
            if r == 0:
                hit = d
                break
            d += 1
        if hit is None:
            factors.append(m)
            break
        factors.append(hit)
        m, _ = _mask_divmod(m, hit)
    return factors


def criterion_6():
    """completely_even(x^n - 1) holds exactly for n in {1,2,4,8,16} within
    n <= 20, cross-checked against full trial-division factorization."""
    detail = {"cases": []}
    ok = True
    for n in range(1, 21):
        p = TernaryPolynomial.parse(f"x^{n} - 1")
        report = completely_even(p, domain="gf2")
        expected = n in (1, 2, 4, 8, 16)
        # oracle: completely even over these coefficients means every
        # irreducible factor has an even number of terms
        mask = (1 << n) | 1
        oracle = all(bin(f).count("1") % 2 == 0 for f in _mask_factor(mask))
        entry = {"n": n, "completely_even": report["completely_even"],
                 "expected": expected, "oracle": oracle}
        if not report["completely_even"]:
            entry["witness"] = str(report["witness"])
            entry["witness_parity"] = parity(report["witness"])
        passed = (report["completely_even"] == expected == oracle
                  and (report["completely_even"]
                       or entry["witness_parity"] == "odd"))
        entry["passed"] = passed
        detail["cases"].append(entry)
        ok = ok and passed
    return ok, detail


def criterion_7():
    """Embedding criterion: false with witness beyond one element, true for
    the one-element field, with both formulations agreeing."""
    detail = {"fields": []}
    ok = True
    for name, f in _suite_fields():
        report = embedding_criterion(f)
        expected = f.n == 1
        passed = (report["embeds"] == expected
                  and (expected or (report["witness"] is not None
                                    and report["zero_divisor"] is not None)))
        entry = {"field": name, "embeds": report["embeds"], "passed": passed}
        if report["witness"] is not None:
            entry["witness"] = list(report["witness"])
        if report["zero_divisor"] is not None:
            entry["zero_divisor"] = list(report["zero_divisor"])
        detail["fields"].append(entry)
        ok = ok and passed
    return ok, detail


def criterion_8():
    """Product of two 2-term quotient fields vs the two-variable quotient
    field, with the presentation relations checked inside the product."""
    f2 = build_f0(2, check="light")
    prod = product_field(f2, f2)
    fp = prod.field
    f22 = build_f0(2, 2, check="light")
    detail = {
        "product_size": fp.n,
        "two_variable_size": f22.n,
        "sizes_differ": fp.n != f22.n,
        "presentation_verified": prod.presentation is not None
                                 and prod.presentation["verified"],
    }
    x1 = fp.index("(x,1)")
    x2 = fp.index("(1,x)")
    one = fp.one
    m1 = fp.quer(one)                      # the element acting as -1
    squares = fp.mu(x1, x1) == one and fp.mu(x2, x2) == one
    mixed = fp.mu(x1, x2) == fp.nu(x1, x2, m1)
    detail["x1_squared_is_1"] = squares
    detail["x1x2_equals_x1_plus_x2_minus_1"] = mixed
    ok = (detail["sizes_differ"] and detail["presentation_verified"]
          and squares and mixed and fp.n == 4 and f22.n == 8)
    return ok, detail


# -- criterion 9: the dyadic laws on arrays ------------------------------------
# Each section takes the draws that a loop of `rng.randrange` calls makes over
# its 10,000 seeded cases, in the loop's order, replayed from the stream's raw
# words on arrays.  CPython's `random` is MT19937: `getrandbits(32 * N)`, read
# little-endian, is its next N 32-bit words, and `randrange(lo, hi)` is one
# word shifted right by 32 - k, with k = (hi - lo).bit_length(), drawn again
# until it is below hi - lo (tests/test_random_words.py holds the running
# Python to that model).  The cases are replayed `_CHUNK` at a time from a
# window of words sized from the section's expected words per case and
# doubled if it runs out.  In a window, each range records the word it
# accepts from every position, the draws of a case compose into its end as a
# function of its start, and the starts of all the chunk's cases follow from
# the first by doubling that function.  Each law is then decided for every
# case at once with the kernels of `dyadic`, composed as the scalar API
# composes them.  Fractions stay unreduced: a residue mod 2^n and a valuation
# do not change under a common odd factor.  The int64 numerators and
# denominators stay below 3 * 999^3 < 2^63 in absolute value, so none wraps;
# viewed as uint64 they keep their residues.

_DYADIC_SEED = 20260819
_DYADIC_CASES = 10000
_CHUNK = 1000
_BIT_LENGTH = np.array([v.bit_length() for v in range(17)], np.uint32)


def _words(rng, count):
    """The next `count` 32-bit words of rng's stream, in order."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


class _Window:
    """A block of the stream's words, then a 0 word that every draw accepts.
    A position is an index into the block; the positions `size` and
    `size + 1` stand for every position past it, and every draw from them
    ends there."""

    def __init__(self, words):
        self.size = words.size
        self.words = np.append(words, np.uint32(0))
        self._accepts = {}

    def first(self, p, width):
        """The word `randrange(width)` accepts from each position p: the first
        at or after p whose top width.bit_length() bits are below width."""
        table = self._accepts.get(width)
        if table is None:
            ok = self.words >> (32 - width.bit_length()) < width
            at = np.where(ok, np.arange(self.size + 1, dtype=np.int32), np.int32(self.size))
            table = np.full(self.size + 2, self.size, np.int32)
            table[:-1] = np.minimum.accumulate(at[::-1])[::-1]
            self._accepts[width] = table
        return table.take(p)

    def first_below(self, p, width):
        """The same for a width per position, a uint32 array: every position
        still looking reads its next word, and each read is accepted with
        odds of at least a half."""
        q = np.minimum(p, self.size)
        shift = 32 - _BIT_LENGTH.take(width)
        looking = np.arange(q.size)
        while looking.size:
            looking = looking[self.words.take(q[looking]) >> shift[looking] >= width[looking]]
            q[looking] += 1
        return q


def _draw_ranges(ranges, window, p, out):
    """`randrange(lo, hi)` for each (lo, hi) of `ranges` in turn, from each
    position p, into the columns of `out` when it is given; the position
    after the last draw."""
    for column, (lo, hi) in enumerate(ranges):
        q = window.first(p, hi - lo)
        if out is not None:
            out[:, column] = window.words.take(q) >> (32 - (hi - lo).bit_length())
            out[:, column] += lo
        p = q + 1
    return p


_MORPHISM_RANGES = [(-500, 500), (0, 500)] * 3 + [(1, 17)]


def _replay_morphism(window, p, out):
    """Per case the halves of x, y and z's numerators and denominators, then
    the precision n."""
    return _draw_ranges(_MORPHISM_RANGES, window, p, out)


def _morphism_laws(rows):
    """Whether reduction mod 2^n fails the sum law, then the product law."""
    px, qx, py, qy, pz, qz = (2 * rows[:, k] + 1 for k in range(6))
    n = rows[:, 6].astype(np.uint64)
    mod = 1 << n

    def residue(p, q):
        return _residue(p.view(np.uint64), q.view(np.uint64), n, bits=64)

    rx, ry, rz = residue(px, qx), residue(py, qy), residue(pz, qz)
    total = residue(px * qy * qz + py * qx * qz + pz * qx * qy, qx * qy * qz)
    return [total != (rx + ry + rz) % mod,
            residue(px * py, qx * qy) != (rx * ry) % mod]


def _morphism_counterexample(row, law):
    *halves, n = row
    x, y, z = (odd_rational(2 * p + 1, 2 * q + 1)
               for p, q in zip(halves[::2], halves[1::2]))
    return [str(x), str(y), str(z), n] if law == 0 else [str(x), str(y), n]


def _replay_truncation(window, p, out):
    """Per case the precisions big and small, then the halves of a, b and c.
    `randrange(0, 2^(big - 1))` accepts a word when its top bit is clear,
    whatever big is, and reads its top big bits."""
    q = window.first(p, 15)
    big = 2 + (window.words.take(q) >> 28)
    q = window.first_below(q + 1, big)
    if out is not None:
        out[:, 0] = big
        out[:, 1] = 1 + (window.words.take(q) >> (32 - _BIT_LENGTH.take(big)))
    for column in (2, 3, 4):
        q = window.first(q + 1, 1)
        if out is not None:
            out[:, column] = window.words.take(q) >> (32 - big)
    return q + 1


def _truncation_laws(rows):
    """Whether lowering big to small fails to commute with *, add3 or inv,
    each step truncated as `TruncatedDyadic` truncates it."""
    big, small = rows[:, 0].astype(np.uint64), rows[:, 1].astype(np.uint64)

    def hi(v):
        return _truncate(v, big)

    def lo(v):
        return _truncate(v, small)

    a, b, c = (hi(2 * rows[:, k].astype(np.uint64) + 1) for k in (2, 3, 4))
    la, lb, lc = lo(a), lo(b), lo(c)
    return [(lo(hi(a * b)) != lo(la * lb))
            | (lo(hi(hi(a + b) + c)) != lo(lo(la + lb) + lc))
            | (lo(hi(_inverse(a, big, bits=64))) != lo(_inverse(la, small, bits=64)))]


def _truncation_counterexample(row, law):
    big, small, *halves = row
    return [str(TruncatedDyadic(2 * h + 1, big)) for h in halves] + [small]


_VALUATION_RANGES = [(-2000, 2001)] * 2 + [(0, 1000)] * 2


def _replay_valuation(window, p, out):
    """Per case the numerators of x and y, a 0 drawn as 1, then their
    denominators' halves."""
    p = _draw_ranges(_VALUATION_RANGES, window, p, out)
    if out is not None:
        out[:, :2] += out[:, :2] == 0
    return p


def _valuation_laws(rows):
    """Whether val2 fails multiplicativity, then the ultrametric law, read
    off the lowest set bits of the numerators."""
    num1, num2 = rows[:, 0], rows[:, 1]
    total = num1 * (2 * rows[:, 3] + 1) + num2 * (2 * rows[:, 2] + 1)

    def low(v):
        return _low_bit(v.view(np.uint64))

    l1, l2 = low(num1), low(num2)
    return [low(num1 * num2) != l1 * l2,
            (total != 0) & (low(total) < np.minimum(l1, l2))]


def _valuation_counterexample(row, law):
    num1, num2, h1, h2 = row
    x, y = Fraction(num1, 2 * h1 + 1), Fraction(num2, 2 * h2 + 1)
    return [str(x), str(y), ("multiplicativity", "ultrametric")[law]]


# A section's `replay(window, p, out)` draws one case from each position p,
# into the rows `out` unless it is None, and returns the position after it.
# `words_per_case` sizes a chunk's window: the expected number (8.14, 8.60
# and 4.10), rounded up past the spread of a chunk's total.
_Section = namedtuple("_Section", "name replay columns words_per_case laws counterexample")

_DYADIC_SECTIONS = [
    _Section("morphism", _replay_morphism, 7, 8.5, _morphism_laws, _morphism_counterexample),
    _Section("truncation", _replay_truncation, 5, 9.0, _truncation_laws,
             _truncation_counterexample),
    _Section("val2", _replay_valuation, 4, 4.5, _valuation_laws, _valuation_counterexample),
]


def _orbit(after, count):
    """The first `count` points of 0's orbit under the map `after`, by
    doubling: once h points are known, after^h takes them to the next h."""
    orbit = np.zeros(count, np.int32)
    known = 1
    while known < count:
        step = min(known, count - known)
        orbit[known:known + step] = after.take(orbit[:step])
        known += step
        if known < count:
            after = after.take(after)
    return orbit


def _skip(rng, count):
    """Advance rng past its next `count` words, 8192 at a time.  One
    `getrandbits` of all of a section's words builds a 340 KB int; run 30
    times in one process, criterion 9 then peaked 0.3 MB higher."""
    for done in range(0, count, 8192):
        rng.getrandbits(32 * min(8192, count - done))


def _replay(rng, section, count):
    """The rows of the section's first `count` cases, and the number of words
    from rng's position to the end of each case.  rng is left where a loop
    drawing those cases leaves it."""
    rows = np.empty((count, section.columns), np.int64)
    ends = np.empty(count, np.int32)
    origin = rng.getstate()
    words, used = np.empty(0, np.uint32), 0
    for first in range(0, count, _CHUNK):
        cases = min(_CHUNK, count - first)
        fresh = math.ceil(cases * section.words_per_case) - words.size
        words = np.concatenate([words, _words(rng, max(0, fresh))])
        while True:
            window = _Window(words)
            after = section.replay(window, np.arange(window.size + 2, dtype=np.int32), None)
            starts = _orbit(after, cases)
            end = int(after[starts[-1]])
            if end <= window.size:
                break
            words = np.concatenate([words, _words(rng, words.size)])
        section.replay(window, starts, rows[first:first + cases])
        ends[first:first + cases] = used + after.take(starts)
        words, used = words[end:], used + end
    rng.setstate(origin)
    _skip(rng, used)
    return rows, ends


def criterion_9():
    """Dyadic coherence: residue reduction is a morphism, truncation
    commutes with the operations, and the valuation laws hold.  Each section
    replays its seeded draws from the generator's words, a chunk of cases at
    a time, and decides its laws for all of them at once.  A section stops at
    its first failing case c, named with the first law it fails, and the next
    section starts where case c's draws end."""
    rng = random.Random(_DYADIC_SEED)
    detail = {}
    for section in _DYADIC_SECTIONS:
        origin = rng.getstate()
        rows, ends = _replay(rng, section, _DYADIC_CASES)
        failed = section.laws(rows)
        bad = np.logical_or.reduce(failed)
        cases = int(bad.argmax()) if bad.any() else _DYADIC_CASES
        if cases < _DYADIC_CASES:
            law = next(k for k, f in enumerate(failed) if f[cases])
            detail[f"{section.name}_counterexample"] = section.counterexample(
                rows[cases].tolist(), law)
            rng.setstate(origin)
            _skip(rng, int(ends[cases]))
        detail[f"{section.name}_cases"] = cases
    ok = all(detail[f"{section.name}_cases"] == _DYADIC_CASES for section in _DYADIC_SECTIONS)
    return ok, detail


def criterion_10():
    """Free resolution of the rank-2 vector power over the 4-residue odd
    field by the generators (1,1) and (3,1): the kernel is enumerated over
    all of U(F)^2 and the cardinality identity checked."""
    f = odd_residue_field(4, check="light")
    space = vector_power_space(f, 2)
    g1 = space.from_labels(("1", "1"))
    g2 = space.from_labels(("3", "1"))
    report = free_resolution(space, [g1, g2])
    detail = {
        "space_size": report["space_size"],
        "free_size": report["free_size"],
        "kernel_size": report["kernel_size"],
        "kernel": [list(k) for k in report["kernel"]],
        "formula_size": report["formula_size"],
        "formula_holds": report["formula_holds"],
    }
    ok = (report["kernel_size"] == 2 and report["formula_size"] == 4
          and report["formula_holds"] and report["space_size"] == 4)
    return ok, detail


def criterion_11():
    """Toeplitz, triangular, quaternion and group-algebra constructions."""
    detail = {}
    ok = True

    f1 = odd_residue_field(2, check="light")
    f4 = odd_residue_field(4, check="light")

    tp = toeplitz_field(3, f1)
    iso_ok = tp.isomorphism is not None and tp.isomorphism.is_bijective()
    independent = field_isomorphism(tp.field, build_f0(3, check="light"))
    detail["toeplitz"] = {
        "size": tp.field.n,
        "constructed_isomorphism": iso_ok,
        "independent_isomorphism": independent is not None,
    }
    ok = ok and tp.field.n == 4 and iso_ok and independent is not None

    tr = triangular_field(2, f4)
    detail["triangular"] = {
        "size": tr.field.n,
        "noncommutative": tr.noncommutative_witness is not None,
        "witness": list(tr.noncommutative_witness or ()),
    }
    ok = ok and tr.field.n == 16 and tr.noncommutative_witness is not None

    q = quaternion_field(f4)
    inverses = quaternion_inverse_check(q)
    i1, i2, i3 = q.unit_index(1), q.unit_index(2), q.unit_index(3)
    env = q.env
    minus_i3 = int(q.tables.locate([env.zero, env.zero, env.zero, env.neg_at(env.one)],
                                   "-i3"))
    detail["quaternion"] = {
        "size": q.field.n,
        "inverses_verified": inverses,
        "i1i2_is_i3": q.field.mu(i1, i2) == i3,
        "i2i1_is_minus_i3": q.field.mu(i2, i1) == minus_i3,
        "noncommutative": q.field.mu(i1, i2) != q.field.mu(i2, i1),
    }
    ok = (ok and q.field.n == 128 and inverses == 128
          and detail["quaternion"]["i1i2_is_i3"]
          and detail["quaternion"]["i2i1_is_minus_i3"]
          and detail["quaternion"]["noncommutative"])

    ga3 = group_algebra(cyclic_group(3), f1)
    detail["group_algebra_z3"] = {
        "is_3field": ga3.is_3field,
        "witness": ga3.witness,
        "verdict_mode": ga3.verdict_mode,
    }
    ok = ok and not ga3.is_3field and ga3.witness is not None

    ga4 = group_algebra(cyclic_group(4), f1)
    iso4 = ga4.isomorphism is not None and ga4.isomorphism.is_bijective()
    detail["group_algebra_z4"] = {
        "is_3field": ga4.is_3field,
        "size": ga4.size,
        "constructed_isomorphism": iso4,
        "isomorphism_target_size": ga4.isomorphism.target.n if iso4 else None,
        "size_note": "an 8-element algebra; its quotient-field partner is "
                     "the exponent-4 field of the same size",
    }
    ok = ok and ga4.is_3field and iso4 and ga4.size == 8

    return ok, detail


_CRITERIA = [
    (1, "axiom suite over the field roster", criterion_1),
    (2, "envelope size, locality and residue isomorphism", criterion_2),
    (3, "cardinalities are powers of two", criterion_3),
    (4, "multiplication tables match the frozen references", criterion_4),
    (5, "automorphism groups through five terms", criterion_5),
    (6, "completely-even law with factorization oracle", criterion_6),
    (7, "embedding criterion with dual formulations", criterion_7),
    (8, "product field vs two-variable quotient", criterion_8),
    (9, "dyadic reduction, truncation and valuation laws", criterion_9),
    (10, "free resolution cardinality identity", criterion_10),
    (11, "matrix, quaternion and group constructions", criterion_11),
]


def run_suite(stream=None):
    """Run every criterion; returns the machine-readable ledger dict."""
    entries = []
    all_ok = True
    for number, title, fn in _CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - start
        budget = _BUDGETS.get(number)
        entry = {"criterion": number, "title": title, "passed": bool(ok)}
        if budget is not None:
            entry["budget_seconds"] = budget
            entry["within_budget"] = elapsed < budget
            entry["passed"] = entry["passed"] and entry["within_budget"]
        entry["detail"] = detail
        entries.append(entry)
        all_ok = all_ok and entry["passed"]
        if stream is not None:
            print(f"criterion {number:2d} "
                  f"[{'pass' if entry['passed'] else 'FAIL'}] "
                  f"{elapsed:6.2f}s  {title}", file=stream)
    return {"schema": 1, "criteria": entries, "all_passed": all_ok}
