"""3-vector spaces, free resolutions, and the constructed matrix, quaternion
and group-convolution 3-fields.

Everything here lives inside powers of the envelope ring: a vector-space
carrier is a set of tuples over U(F) closed under componentwise ternary
addition and scalar multiplication, Toeplitz/triangular matrices keep their
diagonals in F and the remaining entries in U(F), quaternions are 4-tuples
with odd coordinate sum, and a group 3-algebra is the set of U(F)-valued
functions on a finite group with odd value sum, multiplied by convolution.

Each constructed field only lists its product as structure-constant terms
(out, i, j, sign): coordinate out of a*b sums sign * a[i] * b[j].  The
tables are then whole-array gathers over the envelope's add, mul and neg
tables (``pair_envelope._TupleTables``).  The results keep those tables,
whose `position` is the one map from a tuple to its carrier index: every
membership test, inverse, conjugate and correspondence here is a lookup of
a whole coordinate array in it.
"""

import math

import numpy as np

from .ternary_kernel import (
    StructureError,
    _TABLE_LIMIT,
    _assoc_violation,
    _element_orders,
    _identity,
    _map_violation,
    _nonperm_row,
    _refuse_size,
    _table,
)
from .pair_envelope import Morphism, _TupleTables, build_envelope
from .poly_fields import QuotientFieldSpec, _odd_coefficient_vectors, build_quotient_field

_ENUM_LIMIT = 1 << 16


def _tuple_label(labels, v):
    """The label (l0,l1,...) of a tuple v of indices into `labels`."""
    return "(" + ",".join(labels[c] for c in v) + ")"


def _grid(dims):
    """Every tuple whose coordinate t lies below dims[t], as a
    (count, len(dims)) array in lexicographic (itertools.product) order."""
    strides = [math.prod(dims[t + 1:]) for t in range(len(dims))]
    return np.arange(math.prod(dims))[:, None] // strides % dims


def _coordinate_sum(env, tuples):
    """The envelope sum of the coordinates of each row of a (count, width)
    index array (zero for width 0)."""
    total = np.full(len(tuples), env.zero)
    for c in range(tuples.shape[1]):
        total = env.add[total, tuples[:, c]]
    return total


# ---------------------------------------------------------------------------
# 3-vector spaces
# ---------------------------------------------------------------------------

class ThreeVectorSpace:
    """Tuples over the envelope ring, closed under componentwise ternary
    addition; scalars come from all of U(F), and a combination with odd
    scalar sum stays inside the carrier.  The vectors are the tuples of
    `tables`, a `_TupleTables` with no product, whose `position` decides
    membership."""

    def __init__(self, field, width, vectors, name, env):
        self.field = field
        self.env = env
        self.width = int(width)
        self.tables = _TupleTables(self.env, np.reshape(vectors, (len(vectors), self.width)), ())
        if (self.tables.position(self.tables.tuples) != np.arange(self.n)).any():
            raise StructureError("duplicate vectors in the carrier")
        self.name = name

    @property
    def n(self):
        return self.tables.n

    def label(self, v):
        return _tuple_label(self.env.labels, v)

    def from_labels(self, labels):
        """The carrier tuple whose coordinates carry the given envelope
        labels (base-field labels name the odd part)."""
        v = tuple(self.env.index(str(l)) for l in labels)
        if v not in self:
            raise StructureError(f"{self.label(v)} is not in the space")
        return v

    def __contains__(self, v):
        v = tuple(v)
        return len(v) == self.width and self.tables.position(v) >= 0

    def __repr__(self):
        return f"ThreeVectorSpace({self.name}, {self.n} vectors)"


def _odd_sum_tuples(env, field, width):
    """All tuples over U(F) of the given width whose coordinate sum is odd,
    as a (count, width) array in lexicographic (itertools.product) order."""
    tuples = _grid((env.n,) * width)
    return tuples[_coordinate_sum(env, tuples) < field.n]


def free_space(field, n):
    """(F^n)^free: tuples over U(F) whose coordinate sum is odd; the free
    3-vector space on n generators, of cardinality 2^(n-1) |F|^n."""
    if n < 1:
        raise StructureError("need at least one coordinate")
    size = (2 * field.n) ** n // 2
    _refuse_size(size, _ENUM_LIMIT, "free carrier of size {size} is too large")
    env = build_envelope(field)
    vectors = _odd_sum_tuples(env, field, n)
    if len(vectors) != size:
        raise StructureError("free carrier count mismatch")
    space = ThreeVectorSpace(field, n, vectors, f"free({n})", env)
    space.basis = [tuple(env.one if j == i else env.zero for j in range(n))
                   for i in range(n)]
    return space


def vector_power_space(field, k):
    """F^k: plain tuples of base-field elements, as a 3-vector space."""
    if k < 1:
        raise StructureError("need at least one coordinate")
    _refuse_size(field.n ** k, _ENUM_LIMIT, "vector power too large")
    env = build_envelope(field)
    return ThreeVectorSpace(field, k, _grid((field.n,) * k), f"power({k})", env)


def quotient_field_space(big, scalar):
    """A quotient field, viewed as a 3-vector space over the one-element
    field: coordinates are the shifted-basis coefficient bits."""
    alg = big.algebra
    if alg is None:
        raise StructureError("a quotient field carrying its algebra is required")
    if scalar.n != 1:
        raise StructureError("the scalar field must be the one-element field")
    env = build_envelope(scalar)
    vectors = np.where(alg.coefficients == 1, env.one, env.zero)
    return ThreeVectorSpace(scalar, alg.m_count, vectors, "coefficient space", env)


def free_resolution(space, generators):
    """Resolve the space by the free space on the given generators.

    The kernel collects every scalar tuple in U(F)^n whose combination is
    the zero vector; the report checks the cardinality identity
    |space| * |kernel| = 2^(n-1) |F|^n and that odd combinations of the
    generators reach the whole carrier.  Every scalar tuple is one row of
    an array, in itertools.product order, and its combination one row of
    gathers over the envelope's add and mul."""
    env = space.env
    gens = [tuple(int(c) for c in g) for g in generators]
    for g in gens:
        if g not in space:
            raise StructureError(f"generator {space.label(g)} is not in the space")
    n = len(gens)
    total = (2 * space.field.n) ** n
    _refuse_size(total, _ENUM_LIMIT, "kernel enumeration over {size} tuples is too large")
    scalars = _grid((env.n,) * n)
    values = np.full((total, space.width), env.zero)
    for lam, g in zip(scalars.T, gens):
        values = env.add[values, env.mul[lam[:, None], np.asarray(g)]]
    kernel = scalars[(values == env.zero).all(axis=1)]
    odd = values[_coordinate_sum(env, scalars) < space.field.n]
    found = space.tables.position(odd)
    if (found < 0).any():
        raise StructureError(
            f"combination {space.label(odd[np.argmax(found < 0)])} left the carrier")
    reached = len(np.unique(found))
    if reached != space.n:
        raise StructureError(
            f"generators do not generate: {reached} of {space.n} reached")
    free_size = total // 2
    formula = free_size // len(kernel)
    return {
        "space_size": space.n,
        "generator_count": n,
        "free_size": free_size,
        "kernel_size": len(kernel),
        "kernel": [tuple(env.labels[c] for c in lam) for lam in kernel.tolist()],
        "formula_size": formula,
        "formula_holds": formula == space.n,
    }


# ---------------------------------------------------------------------------
# Toeplitz and triangular matrix 3-fields
# ---------------------------------------------------------------------------

class MatrixFieldResult:
    """A constructed matrix 3-field together with its reports.  The carrier
    tuples are `tables.tuples`; layout[r, c] is the tuple coordinate that
    holds matrix cell (r, c), -1 for a cell fixed at zero."""

    def __init__(self, field, tables, layout, isomorphism=None,
                 noncommutative_witness=None):
        self.field = field
        self.tables = tables
        self.env = tables.ring
        self.layout = layout
        self.isomorphism = isomorphism
        self.noncommutative_witness = noncommutative_witness


def toeplitz_field(n, field):
    """Lower-triangular Toeplitz matrices: diagonal value in F, the n-1
    subdiagonal values free in U(F).  Commutative, and isomorphic to the
    single-variable quotient field on the same base via the map that fills
    a matrix with the shifted-basis coefficients of a polynomial."""
    if n < 1:
        raise StructureError("matrix size must be positive")
    _refuse_size(field.n * (2 * field.n) ** (n - 1), _TABLE_LIMIT,
                 "carrier of size {size} exceeds the table limit")
    env = build_envelope(field)
    # band k of a product collects a_i * b_(k-i)
    terms = [(k, i, k - i, 1) for k in range(n) for i in range(k + 1)]
    tables = _TupleTables(env, _grid((field.n,) + (env.n,) * (n - 1)), terms)
    one_value = (field.one,) + (env.zero,) * (n - 1)
    built = tables.field(["t" + _tuple_label(env.labels, v) for v in tables.tuples.tolist()],
                         one_value, {"kind": "toeplitz", "size": n}, "auto")
    mu_table = built.carrier.mu
    if not (mu_table == mu_table.T).all():
        raise StructureError("Toeplitz multiplication must be commutative")

    iso = _toeplitz_isomorphism(n, field, env, built, tables)
    d = np.arange(n)
    layout = np.where(d[:, None] >= d, d[:, None] - d, -1)   # cell (r, c) is band r - c
    return MatrixFieldResult(built, tables, layout, isomorphism=iso)


def _toeplitz_isomorphism(n, field, env, built, tables):
    """The quotient field on the same base, mapped onto the Toeplitz field by
    sending a residue-class polynomial to the matrix whose band k holds the
    coefficient of (x-1)^k."""
    origin = field.origin or {}
    if field.n == 1:
        target = build_quotient_field(QuotientFieldSpec((n,)), check="light")
        coords = np.where(target.algebra.coefficients == 1, env.one, env.zero)
    elif origin.get("kind") == "odd_residue":
        mod = int(origin["modulus"])
        m = mod.bit_length() - 1
        target = build_quotient_field(QuotientFieldSpec((n,), base=m),
                                      check="light")
        # envelope index i < |F| is the odd residue of element i, and the
        # pair |F| + i the residue one above it
        residues = np.array(field.labels).astype(np.int64)
        res_to_env = np.empty(mod, dtype=np.intp)
        res_to_env[np.concatenate([residues, (residues + 1) % mod])] = np.arange(env.n)
        vectors = _odd_coefficient_vectors(mod, n)
        if len(vectors) != target.n:
            raise StructureError("coefficient enumeration mismatch")
        coords = res_to_env[vectors]
    else:
        return None
    iso = Morphism(target, built, tables.locate(coords, "the Toeplitz correspondence"))
    if not iso.is_bijective():
        raise StructureError("Toeplitz correspondence must be bijective")
    return iso


def triangular_field(n, field):
    """Lower-triangular matrices with diagonal entries in F and strictly
    lower entries free in U(F); noncommutative for n > 1 whenever the
    envelope has products for the strict part to disagree on."""
    if n < 1:
        raise StructureError("matrix size must be positive")
    _refuse_size(field.n ** n * (2 * field.n) ** (n * (n - 1) // 2), _TABLE_LIMIT,
                 "carrier of size {size} exceeds the table limit")
    env = build_envelope(field)
    rows, cols = np.tril_indices(n)              # the cells, row by row
    layout = np.full((n, n), -1)
    layout[rows, cols] = np.arange(len(rows))
    cells = list(zip(rows.tolist(), cols.tolist()))
    at = layout.tolist()

    # cell (r, c) of a product collects a[r, k] * b[k, c] for c <= k <= r
    terms = [(t, at[r][k], at[k][c], 1)
             for t, (r, c) in enumerate(cells) for k in range(c, r + 1)]
    tables = _TupleTables(env, _grid([field.n if r == c else env.n for r, c in cells]),
                          terms)
    one_value = np.where(rows == cols, field.one, env.zero)

    def label_of(v):
        return "[" + ";".join(",".join(env.labels[v[at[r][c]]] for c in range(r + 1))
                              for r in range(n)) + "]"

    built = tables.field([label_of(v) for v in tables.tuples.tolist()], one_value,
                         {"kind": "triangular", "size": n}, "auto")

    mu_table = built.carrier.mu
    witness = None
    clash = np.argwhere(mu_table != mu_table.T)
    if clash.size:
        a, b = clash[0]
        witness = (built.label(int(a)), built.label(int(b)))
    return MatrixFieldResult(built, tables, layout, noncommutative_witness=witness)


# ---------------------------------------------------------------------------
# quaternion 3-fields
# ---------------------------------------------------------------------------

class QuaternionFieldResult:
    """A quaternion 3-field, its carrier 4-tuples (`tables.tuples`) and
    whether it commutes."""

    def __init__(self, field, tables, commutative, noncommutative_witness):
        self.field = field
        self.tables = tables
        self.env = tables.ring
        self.commutative = commutative
        self.noncommutative_witness = noncommutative_witness

    def quaternion(self, i):
        return tuple(self.env.labels[c] for c in self.tables.tuples[i].tolist())

    def unit_index(self, k):
        """Index of the basis quaternion 1, i1, i2 or i3 (k = 0..3)."""
        v = np.full(4, self.env.zero)
        v[k] = self.env.one
        return int(self.tables.locate(v, "a basis quaternion"))


# the Hamilton product: 1, i1, i2, i3 with i1 i2 = i3 and each i_k^2 = -1
_HAMILTON = (
    (0, 0, 0, 1), (0, 1, 1, -1), (0, 2, 2, -1), (0, 3, 3, -1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, -1),
    (2, 0, 2, 1), (2, 1, 3, -1), (2, 2, 0, 1), (2, 3, 1, 1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, 1),
)


def _norms(env, quaternions):
    """a0^2 + a1^2 + a2^2 + a3^2 of each row of a (count, 4) index array."""
    return _coordinate_sum(env, env.mul[quaternions, quaternions])


def _conjugates(env, quaternions):
    """(a0, -a1, -a2, -a3) of each row of a (count, 4) index array."""
    out = env.neg[quaternions]
    out[:, 0] = quaternions[:, 0]
    return out


def quaternion_field(field):
    """(F^4)^free with the quaternion product.  Requires every carrier
    element to have odd norm a0^2+a1^2+a2^2+a3^2; the inverse is then the
    conjugate scaled by the inverse of the norm."""
    _refuse_size((2 * field.n) ** 4 // 2, _TABLE_LIMIT,
                 "carrier of size {size} exceeds the table limit")
    env = build_envelope(field)
    tables = _TupleTables(env, _odd_sum_tuples(env, field, 4), _HAMILTON)
    even = np.flatnonzero(_norms(env, tables.tuples) >= field.n)
    if even.size:
        v = tables.tuples[even[0]]
        raise StructureError(
            f"norm of {_tuple_label(env.labels, v)} is even; "
            "the quaternion construction needs odd norms throughout")

    one_value = (env.one, env.zero, env.zero, env.zero)
    built = tables.field([_tuple_label(env.labels, v) for v in tables.tuples.tolist()],
                         one_value, {"kind": "quaternion"}, "auto")

    mu_table = built.carrier.mu
    commutative = bool((mu_table == mu_table.T).all())
    result = QuaternionFieldResult(built, tables, commutative, None)
    if not commutative:
        i1, i2 = result.unit_index(1), result.unit_index(2)
        if mu_table[i1, i2] != mu_table[i2, i1]:
            result.noncommutative_witness = (built.label(i1), built.label(i2))
        else:
            clash = np.argwhere(mu_table != mu_table.T)
            a, b = clash[0]
            result.noncommutative_witness = (built.label(int(a)),
                                             built.label(int(b)))
    return result


def quaternion_conjugation_check(result):
    """Verify that conjugation reverses products, conj(ab) = conj(b) conj(a),
    for every pair; returns the number of pairs checked."""
    tables, field = result.tables, result.field
    conj = tables.locate(_conjugates(result.env, tables.tuples), "conjugation")
    mu = field.carrier.mu
    w = _map_violation(conj, mu, mu.T)        # conj onto (a, b) -> b * a
    if w is not None:
        a, b = w
        raise StructureError(
            f"conjugation fails to reverse {result.quaternion(a)} * "
            f"{result.quaternion(b)}")
    return field.n * field.n


def quaternion_inverse_check(result):
    """Verify the closed-form inverse conj(q) * norm(q)^(-1) against the
    multiplication table for every element; returns the count checked."""
    env, tables, field = result.env, result.tables, result.field
    inv_norm = env.base._inv[_norms(env, tables.tuples)]
    q_inv = tables.locate(env.mul[_conjugates(env, tables.tuples), inv_norm[:, None]],
                          "the inverse formula")
    mu, q = field.carrier.mu, np.arange(tables.n)
    fails = np.flatnonzero((mu[q, q_inv] != field.one) | (mu[q_inv, q] != field.one))
    if fails.size:
        raise StructureError(
            f"inverse formula fails at {result.quaternion(fails[0])}")
    return tables.n


# ---------------------------------------------------------------------------
# group 3-algebras
# ---------------------------------------------------------------------------

def cyclic_group(k):
    """Cayley table of the cyclic group of order k."""
    if k < 1:
        raise StructureError("group order must be positive")
    base = np.arange(k, dtype=np.int64)
    return (base[:, None] + base[None, :]) % k


class GroupAlgebraResult:
    def __init__(self, group_order, scalars, size, is_3field, witness,
                 field, isomorphism, verdict_mode):
        self.group_order = group_order
        self.scalars = scalars
        self.size = size
        self.is_3field = is_3field
        self.witness = witness
        self.field = field
        self.isomorphism = isomorphism
        self.verdict_mode = verdict_mode


def group_algebra_size(order, field):
    """Carrier size of a group 3-algebra; CarrierSizeError if too large to enumerate."""
    size = (2 * field.n) ** order // 2
    _refuse_size(size, _ENUM_LIMIT, "carrier of size {size} is too large")
    return size


def _check_group_table(g):
    identity = _identity(g)
    if identity is None:
        raise StructureError("group table has no identity")
    if _nonperm_row(g) is not None or _nonperm_row(g.T) is not None:
        raise StructureError("group table is not a Latin square")
    if _assoc_violation(g) is not None:
        raise StructureError("group table is not associative")
    return identity


def _cyclic_generator(g, identity):
    """The least element of the group table g whose order is |G|, or None."""
    full = np.flatnonzero(_element_orders(g, identity) == len(g))
    return int(full[0]) if full.size else None


def _powers(g, identity, x, count):
    """[x^0, x^1, ..., x^(count-1)] in the group table g."""
    powers = [identity]
    while len(powers) < count:
        powers.append(int(g[powers[-1], x]))
    return powers


def _norm_witness(g, identity, env):
    """An element with no inverse, as envelope indices, or None when |G| is a
    power of two: the all-ones N for odd |G| (N b = aug(b) N is never 1),
    else N_g = 1 + g + ... + g^(p-1) for the least g of the least odd prime
    order p dividing |G| (N_g (1 - g) = 0, and p is odd, so N_g is in the
    carrier)."""
    k = len(g)
    if k & (k - 1) == 0:
        return None
    members = range(k)
    if k % 2 == 0:
        p = next(q for q in range(3, k, 2) if k % q == 0)   # least odd factor: prime
        x = int(np.flatnonzero(_element_orders(g, identity) == p)[0])
        members = _powers(g, identity, x, p)
    return tuple(env.one if h in members else env.zero for h in range(k))


def group_algebra(group_table, field):
    """U(F)-valued functions on a finite group with odd value sum, under
    convolution, and whether each is invertible, which makes them a 3-field;
    for a cyclic group of 2-power order over the one-element field, also
    the isomorphism with the single-variable quotient field of that size.

    Up to the table limit the table decides (verdict_mode "exhaustive") and
    names the least element with no inverse.  Beyond it the group order
    decides ("theorem").  R = U(F) is local with residue field Z/2 by the
    paper's theorem (a check=False field is trusted to be a 3-field), so by
    Connell ("On the group ring", Canad. J. Math. 15, 1963) R[G] is local,
    and every element of the carrier 1 + K (K the kernel of R[G] -> Z/2) a
    unit, exactly when |G| is a power of two; else see `_norm_witness`."""
    k = len(group_table)
    # the size gate comes first: the table check below is O(k^3)
    size = group_algebra_size(k, field)
    g = _table(group_table, (k, k), "group", 0, exact=True)
    identity = _check_group_table(g)
    env = build_envelope(field)

    if size > _TABLE_LIMIT:
        witness = _norm_witness(g, identity, env)
        label = None if witness is None else _tuple_label(env.labels, witness)
        return GroupAlgebraResult(k, field, size, witness is None, label,
                                  None, None, "theorem")

    # convolution: coordinate g1*g2 of a product collects a[g1] * b[g2]
    terms = [(g[g1, g2], g1, g2, 1) for g1 in range(k) for g2 in range(k)]
    tables = _TupleTables(env, _odd_sum_tuples(env, field, k), terms)
    vectors = tables.tuples
    one_value = tuple(env.one if t == identity else env.zero for t in range(k))
    mu = tables.mu
    one_idx = tables.locate(np.asarray(one_value), "the unit")
    right = mu == one_idx
    first = right.argmax(axis=1)              # least b with a * b = 1
    two_sided = right.any(axis=1) & (mu[first, np.arange(tables.n)] == one_idx)
    lacking = np.flatnonzero(~two_sided)
    if lacking.size:
        return GroupAlgebraResult(k, field, size, False,
                                  _tuple_label(env.labels, vectors[lacking[0]]),
                                  None, None, "exhaustive")

    built = tables.field([_tuple_label(env.labels, v) for v in vectors.tolist()], one_value,
                         {"kind": "group_algebra", "group_order": k}, "auto")
    iso = None
    gen = _cyclic_generator(g, identity)
    if gen is not None and k & (k - 1) == 0 and field.n == 1:
        target = build_quotient_field(QuotientFieldSpec((k,)), check="light")
        # the coefficient of x^e is 1 where g^e carries the one
        bits = vectors[:, _powers(g, identity, gen, k)] == env.one
        iso = Morphism(built, target, target.algebra.index_of_x(bits))
        if not iso.is_bijective():
            raise StructureError("group-algebra correspondence must be bijective")
    return GroupAlgebraResult(k, field, size, True, None, built, iso, "exhaustive")
