"""The rational odd-fraction 3-field and its dyadic approximations.

Fractions p/q with both p and q odd form an infinite unital 3-field under
ternary addition x+y+z and ordinary multiplication.  Its envelope is the
ring of all rationals with odd denominator (integers localized away from 2);
there the 2-adic valuation val2 and the ideals J_n = <2^n> give a filtration
whose quotients are exactly the odd residue fields mod 2^n.  Truncating at a
finite precision N yields exact computable approximations that lower
consistently to any smaller precision.

The arithmetic itself is four kernels (`_truncate`, `_inverse`, `_residue`,
`_low_bit`), each taking a Python int or a uint64 NumPy array and written
with `&`, `+`, `-`, `*` and `<<` only, so the scalar API below and the
whole-array criterion 9 of the paper suite run the same code.
"""

import math
from fractions import Fraction

from .ternary_kernel import StructureError, odd_residue_field

DEFAULT_PRECISION = 16


class PrecisionError(StructureError):
    """Mixed-precision arithmetic on truncated values."""


class OddDenomRational:
    """Exact rational with odd denominator (an envelope element); the
    numerator is odd exactly when the value lies in the 3-field itself."""

    __slots__ = ("value",)

    def __init__(self, numerator, denominator=1):
        if isinstance(numerator, OddDenomRational):
            value = numerator.value
            if denominator != 1:
                value = value / Fraction(denominator)
        elif type(numerator) is Fraction and denominator == 1:
            value = numerator         # already in lowest terms
        else:
            value = Fraction(numerator, denominator)
        if value.denominator % 2 == 0:
            raise StructureError(
                f"{value} has an even denominator: not an odd-denominator rational")
        self.value = value

    @property
    def numerator(self):
        return self.value.numerator

    @property
    def denominator(self):
        return self.value.denominator

    def is_odd_element(self):
        """Member of the 3-field (odd numerator), not merely of the envelope."""
        return self.value.numerator % 2 == 1

    # envelope (binary ring) arithmetic
    def __add__(self, other):
        return OddDenomRational(self.value + _coerce(other).value)

    __radd__ = __add__

    def __neg__(self):
        return OddDenomRational(-self.value)

    def __sub__(self, other):
        return OddDenomRational(self.value - _coerce(other).value)

    def __rsub__(self, other):
        return OddDenomRational(_coerce(other).value - self.value)

    def __mul__(self, other):
        return OddDenomRational(self.value * _coerce(other).value)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            return self.value == _coerce(other).value
        except (StructureError, TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"OddDenomRational({self.value})"

    def __str__(self):
        return str(self.value)


def _coerce(x):
    if isinstance(x, OddDenomRational):
        return x
    return OddDenomRational(x)


def odd_rational(numerator, denominator=1):
    """Element of the odd-fraction 3-field: both parts must be odd."""
    x = OddDenomRational(numerator, denominator)
    if not x.is_odd_element():
        raise StructureError(f"{x} has an even numerator: not in the odd-fraction field")
    return x


def add3(x, y, z):
    """Ternary addition x+y+z; closed on odd elements."""
    return _coerce(x) + _coerce(y) + _coerce(z)


def mul(x, y):
    return _coerce(x) * _coerce(y)


def quer(x):
    """The ternary additive querelement: nu(x, x, quer(x)) = x gives -x."""
    return -_coerce(x)


# -- the kernels ----------------------------------------------------------------
# On a uint64 array every step wraps mod 2^64, which a mask to n <= 64 bits
# does not see; an int64 array viewed as uint64 keeps its residues.

def _truncate(x, n):
    """x mod 2^n: the low n bits of x."""
    return x & ((1 << n) - 1)


def _inverse(q, n, bits=None):
    """q^-1 mod 2^n for odd q, by Newton's iteration x <- x(2 - qx).  An odd
    q is its own inverse mod 8 and each round doubles the bits that are
    right, so ceil(log2(bits / 3)) rounds reach `bits`, a bound on n: n
    itself for an int (the default), 64 for a uint64 array."""
    q = _truncate(q, n)
    x, right = q, 3
    while right < (n if bits is None else bits):
        x = _truncate(x * (2 - q * x), n)
        right *= 2
    return x


def _residue(p, q, n, bits=None):
    """p/q mod 2^n for odd q: p * q^-1 in the low n bits.  The residue does
    not change when p and q share an odd factor."""
    return _truncate(p * _inverse(q, n, bits), n)


def _low_bit(x):
    """The lowest set bit 2^val2(x) of a nonzero x (0 for x = 0)."""
    return x - (x & (x - 1))


def _val2_int(num):
    """2-adic valuation of a nonzero integer: the index of its lowest set bit."""
    return _low_bit(num).bit_length() - 1


def val2(x):
    """2-adic valuation exponent r, so that |x| = 2^-r; math.inf for zero.
    Denominators are odd, hence r >= 0."""
    num = _coerce(x).value.numerator
    return math.inf if num == 0 else _val2_int(num)


def norm2_str(x):
    """Human-readable |x| = 2^-r."""
    r = val2(x)
    if r is math.inf:
        return "0"
    if r == 0:
        return "1"
    return f"2^-{r}"


def jn_membership(x, n):
    """Whether x lies in J_n = <2^n>, the n-th dyadic ideal of the envelope."""
    n = int(n)
    if n < 0:
        raise StructureError("ideal index must be nonnegative")
    return val2(x) >= n


def reduce_mod(x, n):
    """Reduce an odd-denominator rational mod 2^n: p/q -> p * q^(-1).
    Restricted to odd elements this is a morphism onto the odd residue field
    mod 2^n; on the whole envelope it is a ring morphism onto Z/2^nZ."""
    x = _coerce(x)
    n = int(n)
    if n < 1:
        raise StructureError("precision must be at least 1")
    return _residue(x.value.numerator, x.value.denominator, n)


class TruncatedDyadic:
    """Value mod 2^precision with the precision carried along; operations
    require equal precision and lowering is explicit via reduce_precision."""

    __slots__ = ("value", "precision")

    def __init__(self, value, precision=DEFAULT_PRECISION):
        precision = int(precision)
        if precision < 1:
            raise StructureError("precision must be at least 1")
        self.precision = precision
        self.value = _truncate(int(value), precision)

    def _match(self, other):
        if not isinstance(other, TruncatedDyadic):
            raise PrecisionError("expected another truncated value")
        if other.precision != self.precision:
            raise PrecisionError(
                f"precision mismatch: {self.precision} vs {other.precision}")
        return other

    def __add__(self, other):
        other = self._match(other)
        return TruncatedDyadic(self.value + other.value, self.precision)

    def __mul__(self, other):
        other = self._match(other)
        return TruncatedDyadic(self.value * other.value, self.precision)

    def __neg__(self):
        return TruncatedDyadic(-self.value, self.precision)

    def __sub__(self, other):
        other = self._match(other)
        return TruncatedDyadic(self.value - other.value, self.precision)

    def add3(self, y, z):
        return self + y + z

    def is_odd_element(self):
        return self.value % 2 == 1

    def inv(self):
        if not self.is_odd_element():
            raise StructureError(f"{self.value} is even: not invertible")
        return TruncatedDyadic(_inverse(self.value, self.precision),
                               self.precision)

    def quer(self):
        return -self

    def reduce_precision(self, k):
        k = int(k)
        if k > self.precision:
            raise PrecisionError(
                f"cannot raise precision from {self.precision} to {k}")
        return TruncatedDyadic(self.value, k)

    def __eq__(self, other):
        return (isinstance(other, TruncatedDyadic)
                and other.precision == self.precision
                and other.value == self.value)

    def __hash__(self):
        return hash((self.value, self.precision))

    def __repr__(self):
        return f"TruncatedDyadic({self.value}, precision={self.precision})"

    def __str__(self):
        return f"{self.value} (mod 2^{self.precision})"


class DyadicIdeal:
    """The symbolic ideal J_n = <2^n> of the odd-denominator envelope."""

    __slots__ = ("valuation_exponent",)

    def __init__(self, n):
        n = int(n)
        if n < 1:
            raise StructureError("ideal index must be at least 1")
        self.valuation_exponent = n

    def __contains__(self, x):
        return jn_membership(x, self.valuation_exponent)

    def __repr__(self):
        n = self.valuation_exponent
        return f"DyadicIdeal(<2^{n}>)"


class _SymbolicQuotient:
    """Result of quotienting the odd-fraction field by a dyadic ideal."""

    def __init__(self, field, report):
        self.field = field
        self.report = report
        self.class_reps = list(field.labels)


class QOddField:
    """Symbolic handle for the infinite odd-fraction 3-field; supports
    membership, the field operations, and quotients by dyadic ideals."""

    kind = "odd_rationals"
    one = None  # set after class body

    def __contains__(self, x):
        return isinstance(x, OddDenomRational) and x.is_odd_element()

    @staticmethod
    def nu(x, y, z):
        return add3(x, y, z)

    @staticmethod
    def mu(x, y):
        return mul(x, y)

    @staticmethod
    def quer(x):
        return quer(x)

    def quotient_by_ideal(self, ideal):
        """Every J_n is evenly maximal in the odd-denominator envelope: any
        strictly larger ideal contains some 2^k with k < n, whose odd
        cofactor makes it meet the odd part only when it is the whole ring.
        The quotient is the odd residue field mod 2^n."""
        if not isinstance(ideal, DyadicIdeal):
            raise StructureError("quotient needs a DyadicIdeal")
        n = ideal.valuation_exponent
        field = odd_residue_field(1 << n)
        report = {
            "evenly_maximal": True,
            "witness": None,
            "classes": field.n,
            "note": f"classes are odd residues mod 2^{n}",
        }
        return _SymbolicQuotient(field, report)

    def __repr__(self):
        return "QOddField()"


QOddField.one = OddDenomRational(1)
