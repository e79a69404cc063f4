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
tables (``pair_envelope._TupleTables``).
"""

import functools
import itertools

import numpy as np

from .ternary_kernel import (
    FiniteThreeField,
    StructureError,
    TernaryCarrier,
    _TABLE_LIMIT,
    _assoc_violation,
    _element_orders,
    _identity,
    _map_violation,
    _nonperm_row,
    _refuse_size,
)
from .pair_envelope import Morphism, _TupleTables, build_envelope
from .poly_fields import QuotientFieldSpec, _odd_coefficient_vectors, build_quotient_field

_ENUM_LIMIT = 1 << 16


def _tuple_label(labels, v):
    """The label (l0,l1,...) of a tuple v of indices into `labels`."""
    return "(" + ",".join(labels[c] for c in v) + ")"


# ---------------------------------------------------------------------------
# 3-vector spaces
# ---------------------------------------------------------------------------

class ThreeVectorSpace:
    """Tuples over the envelope ring, closed under componentwise ternary
    addition; scalars come from all of U(F), and a combination with odd
    scalar sum stays inside the carrier."""

    def __init__(self, field, width, vectors, name, env=None):
        self.field = field
        self.env = env if env is not None else build_envelope(field)
        self.width = int(width)
        self.vectors = [tuple(int(c) for c in v) for v in vectors]
        self.index = {v: i for i, v in enumerate(self.vectors)}
        if len(self.index) != len(self.vectors):
            raise StructureError("duplicate vectors in the carrier")
        self.name = name

    @property
    def n(self):
        return len(self.vectors)

    def add3(self, u, v, w):
        env = self.env
        return tuple(env.add_at(env.add_at(a, b), c)
                     for a, b, c in zip(u, v, w))

    def combination(self, scalars, vectors):
        """Sum of lam_i * v_i, taken inside U(F)^width."""
        env = self.env
        acc = (env.zero,) * self.width
        for lam, v in zip(scalars, vectors):
            acc = tuple(env.add_at(a, env.mul_at(lam, c))
                        for a, c in zip(acc, v))
        return acc

    def label(self, v):
        return _tuple_label(self.env.labels, v)

    def from_labels(self, labels):
        """The carrier tuple whose coordinates carry the given envelope
        labels (base-field labels name the odd part)."""
        v = tuple(self.env.index(str(l)) for l in labels)
        if v not in self.index:
            raise StructureError(f"{self.label(v)} is not in the space")
        return v

    def __contains__(self, v):
        return tuple(v) in self.index

    def __repr__(self):
        return f"ThreeVectorSpace({self.name}, {self.n} vectors)"


def _odd_sum_tuples(env, field, width):
    """All tuples over U(F) of the given width whose coordinate sum is odd,
    as a (count, width) array in lexicographic (itertools.product) order."""
    tuples = np.indices((env.n,) * width).reshape(width, -1).T
    total = tuples[:, 0]
    for c in range(1, width):
        total = env.add[total, tuples[:, c]]
    return tuples[total < field.n]


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
    vectors = list(itertools.product(range(field.n), repeat=k))
    return ThreeVectorSpace(field, k, vectors, f"power({k})", env)


def quotient_field_space(big, scalar):
    """A quotient field, viewed as a 3-vector space over the one-element
    field: coordinates are the shifted-basis coefficient bits."""
    alg = big.algebra
    if alg is None:
        raise StructureError("a quotient field carrying its algebra is required")
    if scalar.n != 1:
        raise StructureError("the scalar field must be the one-element field")
    env = build_envelope(scalar)
    width = alg.m_count
    vectors = []
    for mask in alg.carrier:
        vectors.append(tuple(env.one if mask >> t & 1 else env.zero
                             for t in range(width)))
    return ThreeVectorSpace(scalar, width, vectors, "coefficient space", env)


def free_resolution(space, generators):
    """Resolve the space by the free space on the given generators.

    The kernel collects every scalar tuple in U(F)^n whose combination is
    the zero vector; the report checks the cardinality identity
    |space| * |kernel| = 2^(n-1) |F|^n and that odd combinations of the
    generators reach the whole carrier."""
    env = space.env
    gens = [tuple(int(c) for c in g) for g in generators]
    for g in gens:
        if g not in space.index:
            raise StructureError(f"generator {space.label(g)} is not in the space")
    n = len(gens)
    total = (2 * space.field.n) ** n
    _refuse_size(total, _ENUM_LIMIT, "kernel enumeration over {size} tuples is too large")
    zero_vec = (env.zero,) * space.width
    kernel = []
    image_odd = set()
    for lam in itertools.product(range(env.n), repeat=n):
        val = space.combination(lam, gens)
        if val == zero_vec:
            kernel.append(lam)
        s = env.zero
        for c in lam:
            s = env.add_at(s, c)
        if s < space.field.n:
            if val not in space.index:
                raise StructureError(
                    f"combination {space.label(val)} left the carrier")
            image_odd.add(val)
    if len(image_odd) != space.n:
        raise StructureError(
            f"generators do not generate: {len(image_odd)} of {space.n} reached")
    free_size = total // 2
    formula = free_size // len(kernel)
    return {
        "space_size": space.n,
        "generator_count": n,
        "free_size": free_size,
        "kernel_size": len(kernel),
        "kernel": [tuple(env.labels[c] for c in lam) for lam in kernel],
        "formula_size": formula,
        "formula_holds": formula == space.n,
    }


# ---------------------------------------------------------------------------
# shared table builder for tuple carriers
# ---------------------------------------------------------------------------

def _tuple_field(tables, one_value, label_of, origin, check="auto"):
    """The FiniteThreeField on a _TupleTables carrier of envelope-index
    tuples, with the tuple -> index map."""
    values = [tuple(v) for v in tables.tuples.tolist()]
    built = tables.field([label_of(v) for v in values], one_value, origin,
                         check)
    return built, {v: i for i, v in enumerate(values)}


# ---------------------------------------------------------------------------
# Toeplitz and triangular matrix 3-fields
# ---------------------------------------------------------------------------

class MatrixFieldResult:
    """A constructed matrix 3-field together with its reports."""

    def __init__(self, field, env, shape, entries, isomorphism=None,
                 noncommutative_witness=None):
        self.field = field
        self.env = env
        self.shape = shape
        self._entries = entries
        self.isomorphism = isomorphism
        self.noncommutative_witness = noncommutative_witness

    def matrix(self, i):
        """Row-major matrix of envelope labels for carrier element i."""
        return [[self.env.labels[e] for e in row] for row in self._entries[i]]


def toeplitz_field(n, field, check="auto"):
    """Lower-triangular Toeplitz matrices: diagonal value in F, the n-1
    subdiagonal values free in U(F).  Commutative, and isomorphic to the
    single-variable quotient field on the same base via the map that fills
    a matrix with the shifted-basis coefficients of a polynomial."""
    if n < 1:
        raise StructureError("matrix size must be positive")
    _refuse_size(field.n * (2 * field.n) ** (n - 1), _TABLE_LIMIT,
                 "carrier of size {size} exceeds the table limit")
    env = build_envelope(field)
    values = sorted(
        (d,) + rest
        for d in range(field.n)
        for rest in itertools.product(range(env.n), repeat=n - 1)
    )

    # band k of a product collects a_i * b_(k-i)
    terms = [(k, i, k - i, 1) for k in range(n) for i in range(k + 1)]
    one_value = (field.one,) + (env.zero,) * (n - 1)
    label_of = lambda v: "t" + _tuple_label(env.labels, v)
    built, index = _tuple_field(_TupleTables(env, values, terms), one_value,
                                label_of, {"kind": "toeplitz", "size": n},
                                check=check)
    mu_table = built.carrier.mu
    if not (mu_table == mu_table.T).all():
        raise StructureError("Toeplitz multiplication must be commutative")

    iso = _toeplitz_isomorphism(n, field, env, built, index)
    entries = {}
    for i, v in enumerate(values):
        entries[i] = [[v[r - c] if r >= c else env.zero for c in range(n)]
                      for r in range(n)]
    return MatrixFieldResult(built, env, (n, n), entries, isomorphism=iso)


def _toeplitz_isomorphism(n, field, env, built, index):
    """The quotient field on the same base, mapped onto the Toeplitz field by
    sending a residue-class polynomial to the matrix whose band k holds the
    coefficient of (x-1)^k."""
    origin = field.origin or {}
    if field.n == 1:
        target = build_quotient_field(QuotientFieldSpec((n,)), check="light")
        mapping = [index[tuple(env.one if mask >> t & 1 else env.zero for t in range(n))]
                   for mask in target.algebra.carrier]
    elif origin.get("kind") == "odd_residue":
        mod = int(origin["modulus"])
        m = mod.bit_length() - 1
        target = build_quotient_field(QuotientFieldSpec((n,), base=m),
                                      check="light")
        res_to_env = {}
        for i in range(field.n):
            val = int(field.labels[i])
            res_to_env[val] = i
            res_to_env[(val + 1) % mod] = env.pair_index(i)
        vectors = _odd_coefficient_vectors(mod, n).tolist()
        if len(vectors) != target.n:
            raise StructureError("coefficient enumeration mismatch")
        mapping = [index[tuple(res_to_env[c] for c in vec)] for vec in vectors]
    else:
        return None
    iso = Morphism(target, built, mapping)
    if not iso.is_bijective():
        raise StructureError("Toeplitz correspondence must be bijective")
    return iso


def triangular_field(n, field, check="auto"):
    """Lower-triangular matrices with diagonal entries in F and strictly
    lower entries free in U(F); noncommutative for n > 1 whenever the
    envelope has products for the strict part to disagree on."""
    if n < 1:
        raise StructureError("matrix size must be positive")
    _refuse_size(field.n ** n * (2 * field.n) ** (n * (n - 1) // 2), _TABLE_LIMIT,
                 "carrier of size {size} exceeds the table limit")
    env = build_envelope(field)
    cells = [(r, c) for r in range(n) for c in range(r + 1)]  # flat layout
    cell_at = {rc: t for t, rc in enumerate(cells)}

    values = sorted(itertools.product(*(
        range(field.n) if r == c else range(env.n) for (r, c) in cells)))

    def entry(v, r, c):
        return v[cell_at[(r, c)]] if r >= c else env.zero

    # cell (r, c) of a product collects a[r, k] * b[k, c] for c <= k <= r
    terms = [(t, cell_at[(r, k)], cell_at[(k, c)], 1)
             for t, (r, c) in enumerate(cells) for k in range(c, r + 1)]
    one_value = tuple(field.one if r == c else env.zero for (r, c) in cells)

    def label_of(v):
        rows = []
        for r in range(n):
            rows.append(",".join(env.labels[entry(v, r, c)]
                                 for c in range(r + 1)))
        return "[" + ";".join(rows) + "]"

    built, _ = _tuple_field(_TupleTables(env, values, terms), one_value,
                            label_of, {"kind": "triangular", "size": n},
                            check=check)

    mu_table = built.carrier.mu
    witness = None
    clash = np.argwhere(mu_table != mu_table.T)
    if clash.size:
        a, b = clash[0]
        witness = (built.label(int(a)), built.label(int(b)))

    entries = {i: [[entry(v, r, c) for c in range(n)] for r in range(n)]
               for i, v in enumerate(values)}
    return MatrixFieldResult(built, env, (n, n), entries,
                             noncommutative_witness=witness)


# ---------------------------------------------------------------------------
# quaternion 3-fields
# ---------------------------------------------------------------------------

class QuaternionFieldResult:
    def __init__(self, field, env, tuples, index, commutative,
                 noncommutative_witness):
        self.field = field
        self.env = env
        self.tuples = tuples
        self.index = index
        self.commutative = commutative
        self.noncommutative_witness = noncommutative_witness

    def quaternion(self, i):
        return tuple(self.env.labels[c] for c in self.tuples[i])

    def unit_index(self, k):
        """Index of the basis quaternion 1, i1, i2 or i3 (k = 0..3)."""
        env = self.env
        v = tuple(env.one if t == k else env.zero for t in range(4))
        return self.index[v]


# the Hamilton product: 1, i1, i2, i3 with i1 i2 = i3 and each i_k^2 = -1
_HAMILTON = (
    (0, 0, 0, 1), (0, 1, 1, -1), (0, 2, 2, -1), (0, 3, 3, -1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, -1),
    (2, 0, 2, 1), (2, 1, 3, -1), (2, 2, 0, 1), (2, 3, 1, 1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, 1),
)


def quaternion_field(field, check="auto"):
    """(F^4)^free with the quaternion product.  Requires every carrier
    element to have odd norm a0^2+a1^2+a2^2+a3^2; the inverse is then the
    conjugate scaled by the inverse of the norm."""
    _refuse_size((2 * field.n) ** 4 // 2, _TABLE_LIMIT,
                 "carrier of size {size} exceeds the table limit")
    env = build_envelope(field)
    tables = _TupleTables(env, _odd_sum_tuples(env, field, 4), _HAMILTON)
    squares = env.mul[tables.tuples, tables.tuples]
    norm = squares[:, 0]
    for c in range(1, 4):
        norm = env.add[norm, squares[:, c]]
    even = np.flatnonzero(norm >= field.n)
    if even.size:
        v = tables.tuples[even[0]]
        raise StructureError(
            f"norm of {_tuple_label(env.labels, v)} is even; "
            "the quaternion construction needs odd norms throughout")

    one_value = (env.one, env.zero, env.zero, env.zero)
    label_of = functools.partial(_tuple_label, env.labels)
    built, index = _tuple_field(tables, one_value, label_of,
                                {"kind": "quaternion"}, check=check)
    values = list(index)

    mu_table = built.carrier.mu
    commutative = bool((mu_table == mu_table.T).all())
    result = QuaternionFieldResult(built, env, values, index, commutative, None)
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
    env = result.env
    field = result.field
    conj = np.empty(field.n, dtype=np.int64)
    for i, v in enumerate(result.tuples):
        c = (v[0],) + tuple(env.neg_at(x) for x in v[1:])
        conj[i] = result.index[c]
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
    env = result.env
    field = result.field
    base = env.base
    for i, v in enumerate(result.tuples):
        norm = env.zero
        for c in v:
            norm = env.add_at(norm, env.mul_at(c, c))
        inv_norm = base.inv(norm)
        conj = (v[0],) + tuple(env.neg_at(c) for c in v[1:])
        q_inv = tuple(env.mul_at(c, inv_norm) for c in conj)
        j = result.index[q_inv]
        if field.mu(i, j) != field.one or field.mu(j, i) != field.one:
            raise StructureError(
                f"inverse formula fails at {result.quaternion(i)}")
    return len(result.tuples)


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
    k = g.shape[0]
    if g.shape != (k, k):
        raise StructureError("group table must be square")
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


def group_algebra(group_table, field, check="auto"):
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
    g = np.asarray(group_table, dtype=np.int64)
    k = g.shape[0]
    # the size gate comes first: the table check below is O(k^3)
    size = group_algebra_size(k, field)
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

    label_of = functools.partial(_tuple_label, env.labels)
    built, _ = _tuple_field(tables, one_value, label_of,
                            {"kind": "group_algebra", "group_order": k}, check=check)
    iso = None
    gen = _cyclic_generator(g, identity)
    if gen is not None and k & (k - 1) == 0 and field.n == 1:
        target = build_quotient_field(QuotientFieldSpec((k,)), check="light")
        alg = target.algebra
        # bit e of the x-mask is set where g^e carries the one
        xmasks = (vectors[:, _powers(g, identity, gen, k)] == env.one) @ (1 << np.arange(k))
        mapping = [alg.index_of[alg.normal_form(alg.from_x(int(x)))]
                   for x in xmasks]
        iso = Morphism(built, target, mapping)
        if not iso.is_bijective():
            raise StructureError("group-algebra correspondence must be bijective")
    return GroupAlgebraResult(k, field, size, True, None, built, iso, "exhaustive")
