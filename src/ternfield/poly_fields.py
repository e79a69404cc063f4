"""Polynomial 3-algebras and the finite quotient 3-fields they generate.

A polynomial over a 3-field is "odd" when its coefficient sum lies in the
field itself and "even" when the sum falls in the pair ideal; only odd
polynomials belong to the polynomial 3-algebra.  An even polynomial is
*completely even* when no odd non-unit divides it; quotients by completely
even relations are again 3-fields.

The finite fields live in shifted coordinates u_i = x_i - 1, where each
defining relation (x_i - 1)^{n_i} becomes the monomial truncation
u_i^{n_i} -> 0.  Over the two-element coefficient ring a polynomial is a
coefficient vector over the finite monomial basis {u^alpha}, oddness is
simply "the constant coefficient is 1", and extra even relations are handled
as a reduced echelon basis of their linear span (every multiple of a
relation is again a linear combination of monomial multiples, so the span is
the whole ideal).  An element's carrier index is its coefficient vector on
the monomials outside that basis, so the ternary addition x+y+z is the XOR
of indices and the product is bilinear in their bits.
"""

import functools
import itertools
import math
import numbers
import operator
import re
from fractions import Fraction

import numpy as np

from .ternary_kernel import (
    FiniteThreeField,
    StructureError,
    TernaryCarrier,
    _TABLE_LIMIT,
    _refuse_size,
    odd_residue_field,
)
from .dyadic import _val2_int
from .pair_envelope import (
    EnvelopeRing,
    RingTable,
    _TupleTables,
    field_isomorphism,
)

# enumerating 2^rank coefficient masks is the hard wall for algebra carriers
_ALGEBRA_RANK_LIMIT = 20
DEFAULT_KRONECKER_CAP = 8
# event-array entries one chunk of a closure round holds
_CLOSURE_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# polynomials over GF(2), encoded as integer bitmasks (bit k = coeff of x^k)
# ---------------------------------------------------------------------------

def gf2_deg(a):
    return a.bit_length() - 1


def gf2_divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    q = 0
    db = gf2_deg(b)
    while gf2_deg(a) >= db:
        shift = gf2_deg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


# ---------------------------------------------------------------------------
# exact integer/rational valuation helpers
# ---------------------------------------------------------------------------

def val2_fraction(fr):
    """2-adic valuation of a nonzero rational (negative for even denominators)."""
    if type(fr) is not Fraction:
        fr = Fraction(fr)
    if fr == 0:
        raise StructureError("valuation of zero")
    return _val2_int(fr.numerator) - _val2_int(fr.denominator)


# ---------------------------------------------------------------------------
# TernaryPolynomial: exact multivariate polynomials with rational coefficients
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^([A-Za-z]\w*)(?:\^(\d+))?$")
_NUMBER_RE = re.compile(r"^\d+(?:/\d+)?$")
_TERM_SPLIT_RE = re.compile(r"[+-][^+-]*|^[^+-]+")


class TernaryPolynomial:
    """Multivariate polynomial with exact rational coefficients.

    Lives in the polynomial 3-algebra exactly when its coefficient sum is an
    odd element of the coefficient ring (see parity()).

    Every instance keeps one invariant: each key of `terms` is a tuple of
    len(vars) nonnegative ints, and each value is a nonzero Fraction.  The
    public constructor establishes it from any input; sums, negatives and
    products of valid polynomials keep it, so arithmetic returns through
    `_from_terms`, which only drops the zero coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        k = len(self.vars)
        clean = {}
        for alpha, c in dict(terms).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != k or any(e < 0 for e in alpha):
                raise StructureError(f"bad exponent vector {alpha}")
            c = Fraction(c)
            if c:
                clean[alpha] = clean.get(alpha, Fraction(0)) + c
        self.terms = {a: c for a, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, vars, terms):
        """A polynomial over the tuple `vars` from terms that already keep the
        invariant, save that some coefficients may be zero."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = {a: c for a, c in terms.items() if c}
        return p

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, text, vars=None):
        """Parse expressions like "x1^2*x2 - 3*x1 + 1" or "x^3+x+1"."""
        text = text.replace("**", "^").strip()
        if not text:
            raise StructureError("empty polynomial text")
        chunks = _TERM_SPLIT_RE.findall(text.replace(" ", ""))
        if "".join(chunks) != text.replace(" ", ""):
            raise StructureError(f"cannot parse polynomial {text!r}")
        seen = set()
        raw_terms = []
        for chunk in chunks:
            sign = 1
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign = -1
                chunk = chunk[1:]
            if not chunk:
                raise StructureError(f"dangling sign in {text!r}")
            coeff = Fraction(sign)
            exps = {}
            for factor in chunk.split("*"):
                if not factor:
                    raise StructureError(f"empty factor in {text!r}")
                if _NUMBER_RE.match(factor):
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise StructureError(
                            f"zero denominator in {factor!r}") from None
                    continue
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise StructureError(f"cannot parse factor {factor!r}")
                name, e = m.group(1), int(m.group(2) or 1)
                exps[name] = exps.get(name, 0) + e
                seen.add(name)
            raw_terms.append((coeff, exps))
        if vars is None:
            vars = tuple(sorted(seen)) or ("x",)
        else:
            vars = tuple(vars)
            _refuse_unknown(seen, vars)
        terms = {}
        for coeff, exps in raw_terms:
            alpha = tuple(exps.get(v, 0) for v in vars)
            terms[alpha] = terms.get(alpha, Fraction(0)) + coeff
        return cls(vars, terms)

    @classmethod
    def constant(cls, c, vars=("x",)):
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def variable(cls, name, vars=None):
        vars = vars or (name,)
        if name not in vars:
            raise StructureError(f"unknown variable {name!r}: not among {tuple(vars)}")
        alpha = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {alpha: Fraction(1)})

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def coefficient_sum(self):
        return sum(self.terms.values(), Fraction(0))

    def coeffs_ascending(self):
        """Single-variable coefficient list [c0, c1, ...]."""
        if len(self.vars) != 1:
            raise StructureError("single-variable polynomial required")
        d = self.degree()
        out = [Fraction(0)] * (d + 1 if d >= 0 else 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    # -- arithmetic (envelope ring of the polynomial 3-algebra) -----------

    def _align(self, other):
        if not isinstance(other, TernaryPolynomial):
            if not isinstance(other, numbers.Rational):
                raise StructureError(f"operand {other!r} is not a rational number")
            other = TernaryPolynomial.constant(other, self.vars)
        if other.vars != self.vars:
            raise StructureError(f"variable mismatch {self.vars} vs {other.vars}")
        return other

    def __add__(self, other):
        return self._plus((other,))

    __radd__ = __add__

    def __neg__(self):
        return self._from_terms(self.vars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._align(other))

    def __rsub__(self, other):
        return self._align(other) + (-self)

    def __mul__(self, other):
        other = self._align(other)
        terms = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                a = tuple(map(operator.add, a1, a2))
                s = terms.get(a)
                terms[a] = c1 * c2 if s is None else s + c1 * c2
        return self._from_terms(self.vars, terms)

    __rmul__ = __mul__

    def add3(self, other, third):
        """self + other + third in one pass over the three term dicts."""
        return self._plus((other, third))

    def _plus(self, others):
        terms = dict(self.terms)
        for p in others:
            for a, c in self._align(p).terms.items():
                s = terms.get(a)
                terms[a] = c if s is None else s + c
        return self._from_terms(self.vars, terms)

    def __eq__(self, other):
        if not isinstance(other, TernaryPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __str__(self):
        if not self.terms:
            return "0"
        def key(alpha):
            return (sum(alpha), alpha)
        parts = []
        for alpha in sorted(self.terms, key=key, reverse=True):
            c = self.terms[alpha]
            factors = []
            for v, e in zip(self.vars, alpha):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"TernaryPolynomial({self})"


def _refuse_unknown(names, vars):
    missing = set(names) - set(vars)
    if missing:
        raise StructureError(f"unknown variables {sorted(missing)}")


def _as_poly(p, vars=None):
    """A polynomial from text or a TernaryPolynomial, over the tuple `vars`
    when one is given.  Variables are matched by name, as in text: a
    polynomial over some of them is aligned to all of them."""
    if isinstance(p, str):
        return TernaryPolynomial.parse(p, vars)
    if not isinstance(p, TernaryPolynomial):
        raise StructureError(f"expected a polynomial, got {type(p).__name__}")
    if vars is None or p.vars == tuple(vars):
        return p
    vars = tuple(vars)
    _refuse_unknown({v for alpha in p.terms for v, e in zip(p.vars, alpha) if e}, vars)
    terms = {}
    for alpha, c in p.terms.items():
        aligned = [0] * len(vars)
        for v, e in zip(p.vars, alpha):
            if e:
                aligned[vars.index(v)] += e
        aligned = tuple(aligned)
        terms[aligned] = terms.get(aligned, 0) + c
    return TernaryPolynomial(vars, terms)


def parity(p):
    """"odd" iff the coefficient sum is an odd element of the envelope."""
    p = _as_poly(p)
    s = p.coefficient_sum()
    if s == 0:
        return "even"
    v = val2_fraction(s)
    if v < 0:
        raise StructureError(
            f"coefficient sum {s} has an even denominator: outside the envelope")
    return "odd" if v == 0 else "even"


def norm2(p):
    """The Gauss norm max over coefficients of the 2-adic absolute value,
    as an exact power of two."""
    p = _as_poly(p)
    if p.is_zero():
        raise StructureError("the zero polynomial has no norm")
    r = min(val2_fraction(c) for c in p.terms.values())
    return Fraction(1, 2 ** r) if r >= 0 else Fraction(2 ** (-r))


# ---------------------------------------------------------------------------
# completely-even testing
# ---------------------------------------------------------------------------

def _poly_to_gf2(p):
    coeffs = p.coeffs_ascending()
    mask = 0
    for k, c in enumerate(coeffs):
        if c.denominator % 2 == 0:
            raise StructureError(f"coefficient {c} has an even denominator")
        if c.numerator % 2:
            mask |= 1 << k
    return mask


def _gf2_to_poly(mask, var="x"):
    return TernaryPolynomial((var,), {(k,): 1 for k in range(mask.bit_length())
                                      if mask >> k & 1})


def _int_divmod(num, den):
    """Exact division of integer coefficient lists (ascending); returns
    (quotient, remainder) over the rationals."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    r = list(num)
    while len(r) >= len(den) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        shift = len(r) - len(den)
        factor = r[-1] / den[-1]
        q[shift] += factor
        for i, d in enumerate(den):
            r[shift + i] -= factor * d
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _divisors_signed(n):
    n = abs(n)
    small = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    divs = sorted(set(small + [n // d for d in small]))
    out = []
    for d in divs:
        out.extend((d, -d))
    return out


def _interpolate(xs, ys):
    """Exact interpolation through the points, by Newton's divided
    differences; returns the ascending rational coefficient list."""
    k = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * k
    acc = [Fraction(1)]
    for j in range(k):
        for t, a in enumerate(acc):
            poly[t] += coef[j] * a
        new_acc = [Fraction(0)] * (len(acc) + 1)
        for t, a in enumerate(acc):
            new_acc[t] -= xs[j] * a
            new_acc[t + 1] += a
        acc = new_acc
    return poly


def _int_content(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(int(c)))
    return g or 1


def _kronecker_factor(coeffs):
    """One non-unit integer factor of a primitive integer polynomial of
    degree <= half, or None if irreducible; deterministic least-first search."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        xs = list(range(d + 1))
        vals = []
        for x in xs:
            v = sum(int(c) * x ** k for k, c in enumerate(coeffs))
            if v == 0:
                return [-x, 1]  # root found: factor (X - x)
            vals.append(v)
        for combo in itertools.product(*(_divisors_signed(v) for v in vals)):
            cand = _interpolate([Fraction(x) for x in xs],
                                [Fraction(c) for c in combo])
            if any(c.denominator != 1 for c in cand):
                continue
            cand_int = [int(c) for c in cand]
            while cand_int and cand_int[-1] == 0:
                cand_int.pop()
            if len(cand_int) - 1 != d:
                continue
            q, r = _int_divmod(coeffs, cand_int)
            if r:
                continue
            if all(c.denominator == 1 for c in q):
                return cand_int
    return None


def _factor_integer_poly(coeffs, cap):
    """Full factorization of an integer polynomial into content 2-power,
    odd content unit, and irreducible primitive factors (Kronecker search)."""
    coeffs = [int(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise StructureError("cannot factor the zero polynomial")
    deg = len(coeffs) - 1
    if deg > cap:
        raise StructureError(
            f"degree {deg} exceeds the factor-search cap {cap}")
    content = _int_content(coeffs)
    prim = [c // content for c in coeffs]
    factors = []
    stack = [prim]
    while stack:
        p = stack.pop()
        if len(p) - 1 < 1:
            continue
        f = _kronecker_factor(p)
        if f is None:
            factors.append(p)
            continue
        q, r = _int_divmod(p, f)
        if r or any(c.denominator != 1 for c in q):
            raise StructureError("factor search produced a non-divisor")
        stack.append(f)
        stack.append([int(c) for c in q])
    return content, factors


def completely_even(p, domain="gf2", max_degree=DEFAULT_KRONECKER_CAP):
    """Whether no odd non-unit divides the (even) polynomial.

    domain "gf2": coefficients mod 2; decided by exact division by (x+1) to
    exhaustion, the odd cofactor being the witness on failure.
    domain "integer": coefficients in the odd-denominator envelope; decided by
    a bounded complete factorization over the integers (Kronecker
    interpolation search); a factor with odd value at 1 is a witness."""
    p = _as_poly(p)
    if len(p.vars) != 1:
        raise StructureError("completely-even testing is single-variable")
    if parity(p) != "even":
        raise StructureError("precondition failed: the polynomial is odd")
    if domain == "gf2":
        mask = _poly_to_gf2(p)
        if mask == 0:
            raise StructureError(
                f"every coefficient of {p} is even, so it is the zero polynomial mod 2")
        cofactor = mask
        power = 0
        while True:
            q, r = gf2_divmod(cofactor, 0b11)
            if r:
                break
            cofactor = q
            power += 1
        verdict = cofactor == 1
        return {
            "completely_even": verdict,
            "witness": None if verdict else _gf2_to_poly(cofactor, p.vars[0]),
            "carrier_power": power,
            "domain": "gf2",
        }
    if domain == "integer":
        coeffs = p.coeffs_ascending()
        den_lcm = 1
        for c in coeffs:
            if c.denominator % 2 == 0:
                raise StructureError(f"coefficient {c} outside the envelope")
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        ints = [c * den_lcm for c in coeffs]
        content, factors = _factor_integer_poly(ints, max_degree)
        factors = sorted(factors, key=lambda f: (len(f), f))
        witness = None
        for f in factors:
            if sum(f) % 2 != 0:  # value at 1 is odd: an odd non-unit divisor
                witness = TernaryPolynomial(
                    (p.vars[0],), {(k,): c for k, c in enumerate(f)})
                break
        return {
            "completely_even": witness is None,
            "witness": witness,
            "factors": [TernaryPolynomial((p.vars[0],),
                                          {(k,): c for k, c in enumerate(f)})
                        for f in factors],
            "domain": "integer",
        }
    raise StructureError(f"unknown coefficient domain {domain!r}")


# ---------------------------------------------------------------------------
# quotient 3-fields in shifted coordinates
# ---------------------------------------------------------------------------

class QuotientFieldSpec:
    """Defining data for F0(n1,...,nk) (or the analogue over (Z/2^mZ)^odd):
    per-variable exponents for the relations (x_i - 1)^{n_i}, plus optional
    extra even relation polynomials."""

    def __init__(self, exponents, relations=(), base="F0"):
        self.exponents = tuple(int(n) for n in exponents)
        if not self.exponents or any(n < 1 for n in self.exponents):
            raise StructureError("exponents must be positive")
        self.base = base
        if base != "F0" and not (isinstance(base, int) and base >= 2):
            raise StructureError("base must be 'F0' or a modulus exponent m >= 2")
        k = len(self.exponents)
        vars = tuple(f"x{i+1}" for i in range(k)) if k > 1 else ("x",)
        self.vars = vars
        self.relations = tuple(_as_poly(r, vars) for r in relations)
        if self.relations and base != "F0":
            raise StructureError("extra relations are supported over F0 only")

    def __repr__(self):
        rel = f", relations={[str(r) for r in self.relations]}" if self.relations else ""
        return f"QuotientFieldSpec({self.exponents}{rel}, base={self.base!r})"


class QuotientAlgebra:
    """The truncated algebra in shifted coordinates: coefficient vectors over
    the monomial basis u^alpha (0 <= alpha_i < n_i), with u_i^{n_i} -> 0 and
    extra relations reduced by a linear echelon basis.

    The change of coordinates u <-> x is the GF(2)-linear map `B`, and the
    carrier's coordinates are whole arrays read through it: `coefficients`
    in u and `x_coefficients` in x, row i for carrier index i."""

    def __init__(self, exponents, relations=()):
        self.exponents = tuple(int(n) for n in exponents)
        k = len(self.exponents)
        self.names = tuple(f"x{i+1}" for i in range(k)) if k > 1 else ("x",)
        if not relations:     # the free rank is known: refuse before the tables
            self._refuse_rank(math.prod(self.exponents) - 1)
        # mixed-radix: the index of a monomial is its value with the first
        # exponent lowest, so index 0 is the constant monomial
        self.monomials = [tuple(reversed(alpha)) for alpha in
                          itertools.product(*(range(n) for n in
                                              reversed(self.exponents)))]
        self.m_count = len(self.monomials)
        self._radix = np.array([math.prod(self.exponents[:t]) for t in range(k)],
                               dtype=np.int64)
        # monomial products with truncation (-1 = dies)
        digits = np.array(self.monomials, dtype=np.int64).reshape(self.m_count, k)
        s = digits[:, None] + digits[None]
        self.ptab = np.where((s < self.exponents).all(axis=-1), s @ self._radix, -1)
        # u <-> x: B[alpha, beta] = prod C(alpha_i, beta_i) mod 2, the
        # Kronecker product of the Pascal triangles mod 2; by Lucas' theorem
        # C(a, b) is odd iff b & a = b.  The substitution u -> u+1 is
        # involutive, so B is its own inverse mod 2
        self.B = ((digits[:, None] & digits[None]) == digits[None]).all(axis=-1).astype(np.uint8)
        # echelon basis for the span of the extra relations
        self._rows = {}  # pivot monomial index -> row mask
        self._degree_order = sorted(range(self.m_count), key=lambda i: (
            sum(self.monomials[i]), self.monomials[i]))
        self._pivot_rank = {m: r for r, m in enumerate(self._degree_order)}
        for rel in relations:
            u = self._x_vector(rel) @ self.B & 1
            if u[0]:
                raise StructureError(f"relation {rel} is odd, not even")
            if not u.any():
                raise StructureError(
                    f"relation {rel} is divisible by the defining relations")
            # row j: the relation times u^j, its monomial products gathered
            prods = self.ptab[np.flatnonzero(u)]
            multiples = np.zeros((self.m_count, self.m_count), dtype=np.uint8)
            i, j = np.nonzero(prods >= 0)
            multiples[j, prods[i, j]] = 1
            for row in multiples:
                self._insert_row(_mask(row))
        self.free = [i for i in range(1, self.m_count) if i not in self._rows]
        self._refuse_rank(len(self.free))
        # the carrier index of each monomial's normal form: u^free[t] is bit
        # t, a pivot the free bits of its row, and the constant 0
        weights = 1 << np.arange(len(self.free))
        self._normal_index = np.zeros(self.m_count, dtype=np.int32)
        self._normal_index[self.free] = weights
        for p, row in self._rows.items():
            self._normal_index[p] = _bits(row, self.m_count)[self.free] @ weights

    @staticmethod
    def _refuse_rank(rank):
        _refuse_size(rank, _ALGEBRA_RANK_LIMIT, "free rank {size} gives a carrier of "
                     "2^{size} elements; refusing to materialize")

    @functools.cached_property
    def coefficients(self):
        """The u-coefficients of every carrier element, as an (n, m_count)
        0/1 array: the constant 1, and bit t of the index at u^free[t]."""
        rank = len(self.free)
        out = np.zeros((1 << rank, self.m_count), dtype=np.uint8)
        out[:, 0] = 1
        out[:, self.free] = np.arange(1 << rank)[:, None] >> np.arange(rank) & 1
        return out

    @functools.cached_property
    def x_coefficients(self):
        """The x-coefficients of every carrier element: `coefficients`·B."""
        return self.coefficients @ self.B & 1

    def index_of_x(self, bits):
        """The carrier index of each odd x-coefficient vector in the last
        axis of `bits`: the XOR of the normal forms of its u-monomials."""
        u = np.asarray(bits, dtype=np.uint8) @ self.B & 1
        return np.bitwise_xor.reduce(np.where(u == 1, self._normal_index, 0), axis=-1)

    # -- linear algebra over GF(2), on int bitmasks -------------------------

    def _pivot(self, v):
        best = None
        m = v
        while m:
            b = _val2_int(m)
            if best is None or self._pivot_rank[b] > self._pivot_rank[best]:
                best = b
            m &= m - 1
        return best

    def _insert_row(self, v):
        v = self._reduce(v)
        if v == 0:
            return
        p = self._pivot(v)
        if p == 0:
            raise StructureError("relation ideal contains an odd element")
        for q, row in list(self._rows.items()):
            if row >> p & 1:
                self._rows[q] = row ^ v
        self._rows[p] = v

    def _reduce(self, v):
        for p, row in self._rows.items():
            if v >> p & 1:
                v ^= row
        return v

    # -- tables and labels ---------------------------------------------------

    def mul_table(self):
        """The product of every pair of carrier elements, as an (n, n) index
        table.  With a = 1 + v_a, a*b = 1 + v_a + v_b + v_a*v_b, and v_a*v_b
        is bilinear over GF(2): the XOR of the normal forms of u^f*u^g over
        the set bits f of a and g of b."""
        prods = self.ptab[np.ix_(self.free, self.free)]
        const = np.where(prods >= 0, self._normal_index[prods], 0)
        rows = _xor_span(const)                          # [b, f]: v_b * u^free[f]
        idx = np.arange(len(rows), dtype=np.int32)
        return _xor_span(rows.T) ^ idx[:, None] ^ idx

    def _x_vector(self, p):
        """The x-coefficients of a polynomial over this algebra's variables,
        read by name, as a 0/1 vector over the monomials."""
        p = _as_poly(p, self.names)
        out = np.zeros(self.m_count, dtype=np.uint8)
        for alpha, c in p.terms.items():
            if c.denominator % 2 == 0:
                raise StructureError(f"coefficient {c} outside the envelope")
            if c.numerator % 2 == 0:
                continue
            if any(e >= n for e, n in zip(alpha, self.exponents)):
                raise StructureError(
                    f"term exponent {alpha} not reduced; give relations with "
                    f"exponents below {self.exponents}")
            out[np.dot(alpha, self._radix)] ^= 1
        return out

    def labels(self):
        """Each carrier element written in x, its monomials by descending
        degree: x^2+x+1."""
        order = self._degree_order[::-1]
        names = [_monomial_name(self.monomials[i], self.names) for i in order]
        return ["+".join(itertools.compress(names, row))
                for row in self.x_coefficients[:, order].tolist()]


def _monomial_name(alpha, names):
    """The name of u^alpha over the given variable names: x1^2*x2 for (2, 1)."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, alpha) if e) or "1"


def _bits(mask, width):
    """The low `width` bits of an int mask as a 0/1 uint8 vector."""
    raw = np.frombuffer(mask.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little")


def _mask(bits):
    """The int mask of a 0/1 vector: the inverse of `_bits`."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _xor_span(basis):
    """out[i] = the XOR of basis[t] over the set bits t of i, for a (k, ...)
    int32 array of basis rows: one doubling pass per row."""
    out = np.zeros((1 << len(basis),) + basis.shape[1:], dtype=np.int32)
    for t, row in enumerate(basis):
        out[1 << t:2 << t] = out[:1 << t] ^ row
    return out


def build_quotient_field(spec, check="auto"):
    """Materialize the finite quotient 3-field for the spec.

    Over the two-element base the carrier is {1 + sum eps_alpha u^alpha} in
    normal form; extra relations must be even and must not acquire an odd
    divisor (verified: the echelon span may never contain an odd vector, and
    single-variable relations get the full completely-even test)."""
    if not isinstance(spec, QuotientFieldSpec):
        spec = QuotientFieldSpec(spec)
    if spec.base != "F0":
        return _build_z2odd_quotient(spec, check=check)
    for rel in spec.relations:
        if parity(rel) != "even":
            raise StructureError(f"relation {rel} is not even")
        if len(spec.exponents) == 1:
            verdict = completely_even(rel, domain="gf2")
            if not verdict["completely_even"]:
                raise StructureError(
                    f"relation {rel} is not completely even; "
                    f"odd factor {verdict['witness']}")
    alg = QuotientAlgebra(spec.exponents, spec.relations)
    n = 1 << len(alg.free)
    _refuse_size(n, _TABLE_LIMIT, "carrier of size {size} exceeds the build limit {limit}")
    idx = np.arange(n, dtype=np.int32)        # index i is a coefficient vector
    o = idx[:, None] ^ idx                    # the retract at 1, with k = 0
    carrier = TernaryCarrier.from_retract(alg.labels(), o, 0, alg.mul_table())
    origin = {
        "kind": "quotient_field",
        "base": "F0",
        "exponents": list(spec.exponents),
        "relations": [str(r) for r in spec.relations],
    }
    field = FiniteThreeField(carrier, 0, origin=origin, check=check)
    field.algebra = alg
    return field


def _singly_generated_algebra(field):
    """The QuotientAlgebra of a field built as F0(n) with no extra
    relations, or None for any other field."""
    origin = field.origin
    if (origin.get("kind") == "quotient_field" and origin.get("base") == "F0"
            and len(origin.get("exponents", ())) == 1 and not origin.get("relations")):
        return field.algebra
    return None


def _odd_coefficient_vectors(mod, count):
    """The coefficient vectors over Z/mod with an odd constant, in carrier
    order: row i holds the mixed-radix digits of i, the constant's (c0-1)/2
    lowest in radix mod/2, then each further coefficient in radix mod."""
    vectors = np.indices((mod,) * (count - 1) + (mod // 2,)).reshape(count, -1)[::-1].T
    vectors[:, 0] = 2 * vectors[:, 0] + 1
    return vectors


def _build_z2odd_quotient(spec, check="auto"):
    """Base (Z/2^mZ)^odd: coefficient vectors over Z/2^m with odd constant,
    in the order of `_odd_coefficient_vectors`.  Addition is by coordinates
    and the product has the structure constants of the truncated monomial
    products (u^i * u^j = u^ptab[i,j]), so both tables are gathers over
    Z/2^m."""
    m = spec.base
    mod = 1 << m
    alg = QuotientAlgebra(spec.exponents)
    M = alg.m_count
    _refuse_size((mod // 2) * mod ** (M - 1), _TABLE_LIMIT,
                 "carrier of size {size} exceeds the build limit {limit}")
    # Z/2^m is a ring by construction.  validate_ring would cost only
    # O(mod^2 |A|), |A| = 1 on cyclic Z/2^m, but it refuses rings above the
    # 512-element guard, and QuotientFieldSpec((1,), base=10) needs Z/1024
    vals = np.arange(mod)
    ring = RingTable(vals, np.add.outer(vals, vals) % mod,
                     np.multiply.outer(vals, vals) % mod, 0, 1, check=False)
    vectors = _odd_coefficient_vectors(mod, M)
    terms = [(t, i, j, 1) for (i, j), t in np.ndenumerate(alg.ptab) if t >= 0]
    tables = _TupleTables(ring, vectors, terms)

    shifted = [f"({v}-1)" for v in alg.names]

    def vec_label(v):
        parts = []
        for i in range(M - 1, -1, -1):
            c = v[i]
            if c:
                body = _monomial_name(alg.monomials[i], shifted)
                parts.append(str(c) if i == 0 else body if c == 1 else f"{c}*{body}")
        return "+".join(parts) or "0"

    origin = {
        "kind": "quotient_field",
        "base": m,
        "exponents": list(spec.exponents),
        "relations": [],
    }
    return tables.field([vec_label(v) for v in vectors.tolist()],
                        (1,) + (0,) * (M - 1), origin, check)


def build_f0(*exponents, check="auto"):
    """F0(n1,...,nk); extra relations are given by `QuotientFieldSpec`."""
    return build_quotient_field(QuotientFieldSpec(exponents), check=check)


def cardinality(spec):
    """Element count, always a power of two: 2^(prod n_i - 1) over the
    two-element base (minus the rank of any extra relation span)."""
    if not isinstance(spec, QuotientFieldSpec):
        spec = QuotientFieldSpec(spec)
    total = 1
    for n in spec.exponents:
        total *= n
    if spec.base != "F0":
        m = spec.base
        return (1 << (m - 1)) * (1 << m) ** (total - 1)
    if not spec.relations:
        return 1 << (total - 1)
    return 1 << len(QuotientAlgebra(spec.exponents, spec.relations).free)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class ProductFieldResult:
    """Componentwise product with the generator/relation presentation (when
    all factors are single-variable quotient fields) and the comparison
    against the presentation-free field on the same generators."""

    def __init__(self, field, presentation, free_comparison):
        self.field = field
        self.presentation = presentation
        self.free_comparison = free_comparison


def product_field(*factors, check="auto"):
    if not factors:
        raise StructureError("empty product")
    sizes = [f.n for f in factors]
    n = math.prod(sizes)
    _refuse_size(n, _TABLE_LIMIT, "product size {size} exceeds the build limit")
    for i, f in enumerate(factors, 1):
        if f.carrier.retract is None:
            raise StructureError(f"factor {i} ({f!r}) has no certified retract")
    strides = [math.prod(sizes[:k]) for k in range(len(sizes))]
    comps = [(np.arange(n) // st) % s for s, st in zip(sizes, strides)]
    # the retract (o, k) componentwise, in int32 (n <= _TABLE_LIMIT): nu is
    # its coset form, each factor's nu being the coset form of its own
    o = sum(st * f.carrier.retract[0][np.ix_(c, c)]
            for f, c, st in zip(factors, comps, strides)).astype(np.int32)
    k = sum(st * f.carrier.retract[1] for f, st in zip(factors, strides))
    mu = sum(st * f.carrier.mu[np.ix_(c, c)] for f, c, st in zip(factors, comps, strides))
    labels = ["(" + ",".join(f.label(int(c[i])) for f, c in zip(factors, comps)) + ")"
              for i in range(n)]
    one = sum(st * f.one for f, st in zip(factors, strides))
    carrier = TernaryCarrier.from_retract(labels, o, k, mu)
    field = FiniteThreeField(carrier, int(one),
                             origin={"kind": "product",
                                     "sizes": sizes}, check=check)

    presentation = None
    free_comparison = None
    if all(_singly_generated_algebra(f) is not None for f in factors):
        exponents = [f.origin["exponents"][0] for f in factors]
        # generator k is x in factor k and 1 elsewhere; the one-element
        # factor has none
        gens = [None if e == 1 else int(one + st * (f.index("x") - f.one))
                for e, f, st in zip(exponents, factors, strides)]
        live = [k for k, g in enumerate(gens) if g is not None]
        env = EnvelopeRing(field)
        m1 = env.neg_at(env.one)
        shifted = {k: env.add_at(gens[k], m1) for k in live}
        relations = []
        for k in live:
            p = shifted[k]
            for _ in range(exponents[k] - 1):
                p = env.mul_at(p, shifted[k])
            relations.append((f"(x{k+1}-1)^{exponents[k]} = 0", p == env.zero))
        pairs = list(itertools.combinations(live, 2))
        relations += [(f"(x{a+1}-1)*(x{b+1}-1) = 0",
                       env.mul_at(shifted[a], shifted[b]) == env.zero) for a, b in pairs]
        relations += [(f"x{a+1}*x{b+1} = x{a+1}+x{b+1}-1", env.mul_at(gens[a], gens[b])
                       == env.add_at(env.add_at(gens[a], gens[b]), m1)) for a, b in pairs]
        verified = all(ok for _, ok in relations)
        presentation = {
            "generators": [None if g is None else field.label(g) for g in gens],
            "relations": [r for r, _ in relations],
            "verified": verified,
        }
        if not verified:
            raise StructureError("product presentation relations failed")
        free_size = cardinality(QuotientFieldSpec(exponents))
        iso = None
        if free_size == field.n:
            iso = field_isomorphism(field, build_quotient_field(QuotientFieldSpec(exponents),
                                                                check=False))
        free_comparison = {
            "free_field_size": free_size,
            "product_size": field.n,
            "isomorphic_to_free": bool(iso),
        }
    return ProductFieldResult(field, presentation, free_comparison)


# ---------------------------------------------------------------------------
# prime subfield and characteristic
# ---------------------------------------------------------------------------

class PrimeSubfieldResult:
    def __init__(self, subfield, characteristic, isomorphism):
        self.subfield = subfield
        self.characteristic = characteristic
        self.isomorphism = isomorphism


def prime_subfield(field):
    """Closure of {1} under both operations, on a carrier born from its
    retract; its size is the characteristic, and it is isomorphic to an odd
    residue ring (Z/2^nZ)^odd — the isomorphism is constructed, not assumed."""
    indices = np.flatnonzero(_subalgebra_closures(field, [[field.one]])[0]).tolist()
    sub = FiniteThreeField(field.subset_carrier(indices), indices.index(field.one),
                           origin={"kind": "prime_subfield"})
    char = len(indices)
    if char & (char - 1):
        raise StructureError(f"characteristic {char} is not a power of two")
    target = odd_residue_field(2 * char)
    iso = field_isomorphism(sub, target)
    if iso is None:
        raise StructureError(
            f"prime subfield of size {char} is not an odd residue field")
    return PrimeSubfieldResult(sub, char, iso)


# ---------------------------------------------------------------------------
# the Taylor epimorphism at 1
# ---------------------------------------------------------------------------

def _divmod_shift_one(asc):
    """Exact synthetic division by (x - 1): (quotient ascending, remainder)."""
    acc = Fraction(0)
    out_desc = []
    for a in reversed(asc):
        acc = Fraction(a) + acc
        out_desc.append(acc)
    rem = out_desc.pop() if out_desc else Fraction(0)
    return out_desc[::-1], rem


def taylor_epimorphism(q, n):
    """The first n Taylor coefficients of q at the point 1, mod 2 — computed
    by repeated exact synthetic division, never by factorial division.  The
    kernel of this map is exactly the ideal generated by (x-1)^n."""
    q = _as_poly(q)
    n = int(n)
    if n < 1:
        raise StructureError("need at least one coefficient")
    coeffs = q.coeffs_ascending()
    out = []
    for _ in range(n):
        coeffs, rem = _divmod_shift_one(coeffs)
        if rem.denominator % 2 == 0:
            raise StructureError(f"remainder {rem} outside the envelope")
        out.append(rem.numerator % 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# evaluation morphisms into finite 3-algebras
# ---------------------------------------------------------------------------

def _scalar_mul(env, coeff, a):
    """coeff * a inside the envelope, for odd-denominator rational coeff:
    reduce the scalar modulo the additive order of a (a power of two)."""
    coeff = Fraction(coeff)
    order = 1
    t = a
    while t != env.zero:
        t = env.add_at(t, a)
        order += 1
    if coeff.denominator % 2 == 0:
        raise StructureError(f"scalar {coeff} outside the envelope")
    k = (coeff.numerator * pow(coeff.denominator, -1, order)) % order \
        if order > 1 else 0
    out = env.zero
    base = a
    while k:
        if k & 1:
            out = env.add_at(out, base)
        base = env.add_at(base, base)
        k >>= 1
    return out


def eval_hom(p, field, targets, env=None):
    """The substitution morphism: send each variable to its target and
    evaluate inside the envelope; defined on odd polynomials, landing in the
    field itself."""
    p = _as_poly(p)
    if parity(p) != "odd":
        raise StructureError("only odd polynomials lie in the polynomial 3-algebra")
    targets = [int(t) for t in targets]
    if len(targets) != len(p.vars):
        raise StructureError(
            f"{len(p.vars)} variables but {len(targets)} targets")
    env = env or EnvelopeRing(field)
    total = env.zero
    for alpha, coeff in sorted(p.terms.items()):
        term = env.one
        for t, e in zip(targets, alpha):
            for _ in range(e):
                term = env.mul_at(term, t)
        total = env.add_at(total, _scalar_mul(env, coeff, term))
    if total >= field.n:
        raise StructureError("evaluation left the odd part")
    return total


def _subalgebra_closure(field, seeds):
    """Close the seed indices under mu and nu, one round at a time.

    A round reads every event over the sorted closed set of m elements in
    the order of the (m, m, m+1) array E[a, b] = [mu(a,b), nu(a,b,c) for
    each c], row-major; each result not yet reached is credited to its first
    event.  Rows of E are taken in chunks of at most _CLOSURE_CELLS entries.
    Returns the sorted reached indices and the steps (r, a, b, c) in the
    order reached: r = mu(a,b) when c is -1, else r = nu(a,b,c).
    """
    carrier = field.carrier
    reached = np.zeros(field.n, dtype=bool)
    reached[seeds] = True
    steps = []
    while not reached.all():
        arr = np.flatnonzero(reached)
        m = len(arr)
        seen = reached.copy()
        rows = max(1, _CLOSURE_CELLS // (m * (m + 1)))
        for lo in range(0, m, rows):
            a = arr[lo:lo + rows]
            events = np.empty((len(a), m, m + 1), dtype=np.int32)
            events[:, :, 0] = carrier.mu[a[:, None], arr]
            events[:, :, 1:] = carrier.nu_of(a[:, None, None], arr[:, None], arr)
            flat = events.ravel()
            pos = np.flatnonzero(~seen[flat])
            new, first = np.unique(flat[pos], return_index=True)
            seen[new] = True
            ia, ib, ic = np.unravel_index(pos[first], events.shape)
            c = np.where(ic == 0, -1, arr[ic - 1])
            steps.extend(zip(new.tolist(), a[ia].tolist(), arr[ib].tolist(), c.tolist()))
        if (seen == reached).all():
            break
        reached = seen
    return np.flatnonzero(reached).tolist(), steps


def _subalgebra_closures(field, seeds):
    """The closure under mu and nu of each row of the (q, s) seed array, as
    a (q, n) mask of the elements it reaches: the sets of
    `_subalgebra_closure`, all rows at once, with no steps.

    Over the certified retract (o, k) of nu, whose identity is 0,
    nu(a,b,c) = nu(a o b, 0, c), so a round adds to a row's set S the
    products mu[S, S] and nu_of(T, 0, S) for T the set o[S, S]: O(m^2 + n m)
    reads for m = |S|, no m^3 events and no cube.  Each row's elements are
    listed in order and padded with its first, a repeat adding nothing.  A
    row retires when it is full or a round leaves it unchanged.  Rows are
    taken in chunks of at most _CLOSURE_CELLS reads.  A carrier whose
    generators are unproven has no certified retract to read, and is
    refused."""
    carrier = field.carrier
    if carrier.generators is None:
        raise StructureError("a batched closure needs a certified retract and a monoid mu")
    o, mu, n = carrier.retract[0], carrier.mu, field.n
    seeds = np.asarray(seeds, dtype=np.intp)
    reached = np.zeros((len(seeds), n), dtype=bool)
    reached[np.arange(len(seeds))[:, None], seeds] = True
    active = np.flatnonzero(~reached.all(axis=1))
    while active.size:
        m = int(reached[active].sum(axis=1).max())
        rows = max(1, _CLOSURE_CELLS // (m * (2 * m + n)))
        grown = []
        for lo in range(0, len(active), rows):
            sets = reached[active[lo:lo + rows]]
            at = np.arange(len(sets))[:, None]
            elems = _listed(sets, m)
            a, b = elems[:, :, None], elems[:, None, :]
            out = sets.copy()
            out[at, mu[a, b].reshape(len(sets), -1)] = True
            sums = np.zeros_like(sets)
            sums[at, o[a, b].reshape(len(sets), -1)] = True
            t = _listed(sums, int(sums.sum(axis=1).max()))
            out[at, carrier.nu_of(t[:, :, None], 0, b).reshape(len(sets), -1)] = True
            grown.append(out)
        grown = np.concatenate(grown)
        live = (grown != reached[active]).any(axis=1) & ~grown.all(axis=1)
        reached[active] = grown
        active = active[live]
    return reached


def _listed(sets, width):
    """Each row's elements of the (q, n) mask in order, padded to `width`
    columns with the row's first element."""
    order = np.argsort(~sets, axis=1, kind="stable")[:, :width]
    return np.where(np.arange(width) < sets.sum(axis=1)[:, None], order, order[:, :1])


def generated_subalgebra(field, targets):
    """BFS closure of {1} and the targets under both operations, with an
    explicit polynomial witness for every element reached: x_i for the i-th
    target, a*b or a+b+c over the witnesses of the event that first reached
    it (see `_subalgebra_closure`)."""
    targets = field._indices(targets, "target").tolist()
    k = len(targets)
    vars = tuple(f"x{i+1}" for i in range(k)) if k > 1 else ("x",)
    one_poly = TernaryPolynomial.constant(1, vars)
    witness = {field.one: one_poly}
    for i, t in enumerate(targets):
        witness.setdefault(t, TernaryPolynomial.variable(vars[i], vars))
    indices, steps = _subalgebra_closure(field, list(witness))
    for r, a, b, c in steps:
        witness[r] = (witness[a] * witness[b] if c < 0
                      else witness[a].add3(witness[b], witness[c]))
    return indices, {i: witness[i] for i in indices}


def eval_hom_surjectivity(field, targets):
    """Enumerate the subalgebra generated by the targets and re-verify each
    witness polynomial through eval_hom; reports surjectivity onto it."""
    env = EnvelopeRing(field)
    indices, witnesses = generated_subalgebra(field, targets)
    for i, w in witnesses.items():
        if eval_hom(w, field, targets, env=env) != i:
            raise StructureError(f"witness {w} does not evaluate to {field.label(i)}")
    return {
        "generated": [field.label(i) for i in indices],
        "count": len(indices),
        "surjective_onto_field": len(indices) == field.n,
        "witnesses": {field.label(i): str(w) for i, w in witnesses.items()},
    }
