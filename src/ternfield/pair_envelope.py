"""Envelope rings for unital 3-fields.

Translations x -> x+a+b of a 3-field F form the "even part" Q(F): pairs
q_{a,b}, normalized to the standard form q_{a+b-1,1} so that a pair is
determined by the single coordinate alpha.  Adjoining them to F yields the
envelope U(F) = F + Q(F), a binary unital ring of exactly twice the size, in
which F sits as the odd part and Q(F) as an ideal.  U(F) is local: Q(F) is
its unique maximal ideal and the residue ring has two elements.

All pair arithmetic is expressed through the ternary operations themselves
(with m1 = quer_add(1) playing the role of -1), so it works uniformly over
any base field:

    standard form of q_{a,b}:  alpha = nu(a, b, m1)
    q_alpha + q_beta = q_gamma with gamma = nu(alpha, beta, 1)
    q_alpha * q_beta = q_gamma with gamma = nu(alpha, beta, alpha*beta)
    q_alpha + b     = nu(alpha, 1, b)
    a * q_beta      = q_gamma with gamma = nu(a*beta, a, m1)
    zero            = q_{m1},   -q_alpha = q_{nu(quer(alpha), m1, m1)}
"""

import json

import numpy as np

from .ternary_kernel import (
    FiniteThreeField,
    StructureError,
    TernaryCarrier,
    _renumber,
    quer_add,
)

_RING_LIMIT = 512


class RingTable:
    """Finite unital binary ring given by dense addition/multiplication tables."""

    def __init__(self, labels, add, mul, zero, one, check=True):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        self.add = np.ascontiguousarray(add, dtype=np.int32).reshape(self.n, self.n)
        self.mul = np.ascontiguousarray(mul, dtype=np.int32).reshape(self.n, self.n)
        self.add.setflags(write=False)
        self.mul.setflags(write=False)
        self.zero = int(zero)
        self.one = int(one)
        self._neg = None
        self._ideals = None
        if check:
            self.validate_ring()

    def validate_ring(self):
        n = self.n
        if n > _RING_LIMIT:
            raise StructureError(f"ring size {n} exceeds the validation guard")
        idx = np.arange(n, dtype=np.int32)
        add, mul = self.add, self.mul
        if not (add == add.T).all():
            raise StructureError("addition is not commutative")
        if not (add[self.zero] == idx).all():
            raise StructureError("zero is not an additive neutral")
        if not (np.sort(add, axis=1) == idx).all():
            raise StructureError("addition rows are not permutations")
        if not (add[add] == add[:, add]).all():
            raise StructureError("addition is not associative")
        if not (mul[mul] == mul[:, mul]).all():
            raise StructureError("multiplication is not associative")
        if not ((mul[self.one] == idx).all() and (mul[:, self.one] == idx).all()):
            raise StructureError("one is not a two-sided unit")
        left = mul[:, add]                                # [i,j,k] = i*(j+k)
        right = add[mul[:, :, None], mul[:, None, :]]     # i*j + i*k
        if not (left == right).all():
            raise StructureError("left distributivity fails")
        left = mul[add, :]                                # (i+j)*k
        right = add[mul[:, None, :], mul[None, :, :]]     # i*k + j*k
        if not (left == right).all():
            raise StructureError("right distributivity fails")

    def add_at(self, i, j):
        return int(self.add[i, j])

    def mul_at(self, i, j):
        return int(self.mul[i, j])

    @property
    def neg(self):
        """The additive inverse of every element, as an index array."""
        if self._neg is None:
            self._neg = np.argmax(self.add == self.zero, axis=1)
        return self._neg

    def neg_at(self, i):
        return int(self.neg[i])

    def sub_at(self, i, j):
        return self.add_at(i, self.neg_at(j))

    def is_commutative(self):
        return bool((self.mul == self.mul.T).all())

    def index(self, lab):
        try:
            return self.labels.index(lab)
        except ValueError:
            raise StructureError(f"no ring element labeled {lab!r}") from None

    # -- ideal machinery -----------------------------------------------------

    def _additive_closure(self, seed):
        out = set(seed)
        out.add(self.zero)
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(out):
                    s = self.add_at(a, b)
                    if s not in out:
                        out.add(s)
                        nxt.append(s)
            frontier = nxt
        return out

    def ideal_closure(self, generators):
        """Smallest two-sided ideal containing the generators: the sums of
        the products u*g*v (both sides at once, as the ring need not be
        commutative)."""
        hit = np.zeros(self.n, dtype=bool)
        for g in generators:
            hit[self.mul[self.mul[:, g]]] = True      # [u, v] -> (u*g)*v
        return frozenset(self._additive_closure(np.flatnonzero(hit).tolist()))

    def all_ideals(self):
        """Every two-sided ideal, by closing the principal ideals under sums."""
        if self._ideals is not None:
            return self._ideals
        found = {frozenset({self.zero})}
        found.update(self.ideal_closure([r]) for r in range(self.n))
        changed = True
        while changed:
            changed = False
            pool = sorted(found, key=lambda s: (len(s), sorted(s)))
            for i, a in enumerate(pool):
                for b in pool[i + 1:]:
                    if a <= b or b <= a:
                        continue
                    s = frozenset(self._additive_closure(a | b))
                    if s not in found:
                        found.add(s)
                        changed = True
        self._ideals = found
        return found

    def maximal_ideals(self):
        full = frozenset(range(self.n))
        proper = [i for i in self.all_ideals() if i != full]
        maximal = [i for i in proper
                   if not any(i < j for j in proper)]
        return sorted(maximal, key=lambda s: sorted(s))

    def to_json(self):
        return {
            "elements": list(self.labels),
            "add": [int(v) for v in self.add.reshape(-1)],
            "mul": [int(v) for v in self.mul.reshape(-1)],
            "zero": self.zero,
            "one": self.one,
        }

    def __repr__(self):
        return f"RingTable({self.n} elements)"


def residue_ring(m):
    """Z/mZ as a RingTable."""
    m = int(m)
    vals = np.arange(m, dtype=np.int64)
    add = ((vals[:, None] + vals[None, :]) % m).astype(np.int32)
    mul = ((vals[:, None] * vals[None, :]) % m).astype(np.int32)
    return RingTable([str(v) for v in range(m)], add, mul, 0, 1 % m)


class _TupleTables:
    """Tables of a carrier of tuples over a ring: ternary addition by
    coordinates, and the bilinear product given by structure constants.

    Each term (out, i, j, sign) adds sign * a[i] * b[j] to coordinate out of
    a * b.  Both tables are gathers over the ring's add, mul and neg tables,
    and every result tuple is named by its carrier index through one lookup
    in the sorted tuple codes."""

    def __init__(self, ring, tuples, terms):
        self.ring = ring
        self.tuples = np.asarray(tuples, dtype=np.intp)
        self.n, self.width = self.tuples.shape
        self._terms = [(int(o), int(i), int(j), sign < 0)
                       for o, i, j, sign in terms]
        self._powers = ring.n ** np.arange(self.width, dtype=np.int64)
        codes = self.tuples @ self._powers
        self._order = np.argsort(codes)
        self._codes = codes[self._order]
        self._mu = None

    def locate(self, coords, what):
        """Carrier index of every tuple in a (..., width) coordinate array."""
        codes = coords @ self._powers
        pos = np.minimum(np.searchsorted(self._codes, codes), self.n - 1)
        if (self._codes[pos] != codes).any():
            raise StructureError(f"{what} left the carrier")
        return self._order[pos].astype(np.int32)

    def products(self, a, b):
        """Coordinates of a[p] * b[q] for (p, width) and (q, width) tuple
        arrays, as a (p, q, width) array."""
        ring = self.ring
        mul, add = ring.mul.ravel(), ring.add.ravel()
        rows = a.T[:, :, None] * ring.n          # [i, p, 1]: flat row offsets
        cols = b.T[:, None, :]                   # [j, 1, q]
        out = np.full((self.width, len(a), len(b)), ring.zero, dtype=np.int32)
        for o, i, j, negate in self._terms:
            term = mul[rows[i] + cols[j]]
            if negate:
                term = ring.neg[term]
            out[o] = add[out[o] * ring.n + term]
        return np.moveaxis(out, 0, -1)

    @property
    def mu(self):
        """The (n, n) multiplication table, built on first use."""
        if self._mu is None:
            V = self.tuples
            self._mu = self.locate(self.products(V, V), "multiplication")
        return self._mu

    def nu(self):
        """The (n, n, n) ternary addition table.  nu(a, b, c) = (a + b) + c:
        each pairwise sum is named by its place among the distinct sums, the
        sums plus each carrier tuple are located in slabs of n sums, and nu
        is one gather from that table."""
        add, V, n = self.ring.add, self.tuples, self.n
        pairs = add[V[:, None], V[None]].reshape(n * n, self.width)
        _, first, which = np.unique(pairs @ self._powers, return_index=True,
                                    return_inverse=True)
        sums = pairs[first]
        plus = np.empty((len(sums), n), dtype=np.int32)    # [sum, c] = sum + c
        for lo in range(0, len(sums), n):
            plus[lo:lo + n] = self.locate(add[sums[lo:lo + n, None], V[None]],
                                          "ternary addition")
        return plus[which.reshape(n, n)]

    def field(self, labels, one, origin, check):
        """The FiniteThreeField on these tables; one is the unit's tuple."""
        carrier = TernaryCarrier(labels, self.nu(), self.mu)
        unit = int(self.locate(np.asarray(one), "the unit"))
        return FiniteThreeField(carrier, unit, origin=origin, check=check)


class Pair:
    """Standard-form translation pair q_{alpha,1} over a 3-field."""

    __slots__ = ("field", "alpha")

    def __init__(self, field, alpha):
        self.field = field
        self.alpha = int(alpha)

    def __eq__(self, other):
        return (isinstance(other, Pair) and other.field is self.field
                and other.alpha == self.alpha)

    def __hash__(self):
        return hash((id(self.field), self.alpha))

    def act(self, x):
        """The translation x -> x + alpha + 1."""
        return self.field.nu(x, self.alpha, self.field.one)

    def __repr__(self):
        return f"Pair(alpha={self.field.label(self.alpha)})"


def standard_form(field, a, b):
    """Normalize q_{a,b} to q_{alpha,1} with alpha = a+b-1; the returned pair
    acts on every element exactly as the original translation."""
    m1 = field.quer(field.one)
    alpha = field.nu(a, b, m1)
    for x in field.elements():
        if field.nu(x, a, b) != field.nu(x, alpha, field.one):
            raise StructureError("standard form changed the translation action")
    return Pair(field, alpha)


def pair_add(p, q):
    if p.field is not q.field:
        raise StructureError("pairs over different fields")
    f = p.field
    return Pair(f, f.nu(p.alpha, q.alpha, f.one))


def pair_mul(p, q):
    if p.field is not q.field:
        raise StructureError("pairs over different fields")
    f = p.field
    return Pair(f, f.nu(p.alpha, q.alpha, f.mu(p.alpha, q.alpha)))


def pair_zero(field):
    """The additive neutral of the pair part: q_{-1}."""
    return Pair(field, field.quer(field.one))


class EnvelopeRing(RingTable):
    """U(F) = F + Q(F): indices 0..n-1 are the odd part (base field elements),
    n..2n-1 the pairs (index n+alpha is q_alpha).  parity[i] is 1 on the odd
    part, 0 on the even part."""

    def __init__(self, base, check=True):
        n = base.n
        nu = base.carrier.nu
        mu = base.carrier.mu
        one = base.one
        m1 = quer_add(base.carrier, one)
        rows = np.arange(n)
        N = 2 * n
        add = np.empty((N, N), dtype=np.int32)
        mul = np.empty((N, N), dtype=np.int32)
        odd_plus_pair = nu[:, one, :]                       # [a, beta]
        add[:n, :n] = n + nu[:, :, m1]
        add[:n, n:] = odd_plus_pair
        add[n:, :n] = odd_plus_pair.T
        add[n:, n:] = n + nu[:, :, one]
        mul[:n, :n] = mu
        mul[:n, n:] = n + nu[mu, rows[:, None], m1]         # a*q_beta: nu(a*beta, a, m1)
        mul[n:, :n] = n + nu[mu, rows[None, :], m1]         # q_alpha*b: nu(alpha*b, b, m1)
        mul[n:, n:] = n + nu[rows[:, None], rows[None, :], mu]
        labels = list(base.labels) + [f"q({lab})" for lab in base.labels]
        self.base = base
        self.parity = np.array([1] * n + [0] * n, dtype=np.int8)
        super().__init__(labels, add, mul, zero=n + m1, one=one, check=check)
        if check:
            self._validate_envelope()

    def _validate_envelope(self):
        # the base embeds as a 3-morphism: ternary sums and products agree
        ThreeRingMap(self.base, self, range(self.base.n))
        # parity grading
        par = self.parity
        if not ((par[self.add] == (par[:, None] + par[None, :]) % 2).all()
                and (par[self.mul] == par[:, None] * par[None, :]).all()):
            raise StructureError("parity grading broken")

    def is_pair(self, i):
        return i >= self.base.n

    def pair_index(self, alpha):
        return self.base.n + int(alpha)

    def pair_indices(self):
        return range(self.base.n, 2 * self.base.n)

    def to_json(self):
        doc = super().to_json()
        doc["parity"] = [int(v) for v in self.parity]
        return doc

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    def __repr__(self):
        return f"EnvelopeRing({self.n} elements over {self.base!r})"


def build_envelope(field, check=True):
    """The enveloping ring U(F); exhaustively verified for gated sizes."""
    return EnvelopeRing(field, check=check)


def verify_local(ring):
    """Enumerate all maximal ideals by brute force and report the local
    structure: for an envelope ring there must be exactly one, equal to the
    even part, with a two-element residue ring."""
    maximal = ring.maximal_ideals()
    report = {
        "maximal_ideals": [sorted(m) for m in maximal],
        "residue_sizes": [ring.n // len(m) for m in maximal],
        "is_local_with_z2_residue": len(maximal) == 1 and ring.n == 2 * len(maximal[0]),
    }
    if isinstance(ring, EnvelopeRing) and len(maximal) == 1:
        report["maximal_is_pair_part"] = sorted(maximal[0]) == list(ring.pair_indices())
    return report


def units_as_3field(ring, check="auto"):
    """For a local ring with two-element residue ring, the complement of the
    maximal ideal with inherited ternary addition and multiplication."""
    maximal = ring.maximal_ideals()
    if len(maximal) != 1 or ring.n != 2 * len(maximal[0]):
        raise StructureError(
            f"not local with residue ring of two elements "
            f"({len(maximal)} maximal ideals)")
    u = np.setdiff1d(np.arange(ring.n), sorted(maximal[0]))
    ix = np.ix_(u, u)
    mu = _renumber(ring.mul[ix], u, ring.n)
    nu = _renumber(ring.add[ring.add[ix][..., None], u], u, ring.n)
    carrier = TernaryCarrier([ring.labels[g] for g in u], nu, mu)
    return FiniteThreeField(carrier, _renumber(ring.one, u, ring.n),
                            origin={"kind": "units_of_ring"}, check=check)


class _IndexMap:
    """A map between finite structures, held as the image index of every
    source element; each subclass validates its own structure."""

    def __init__(self, source, target, mapping, check=True):
        self.source = source
        self.target = target
        self.mapping = tuple(int(v) for v in mapping)
        if check:
            self.validate()

    def __call__(self, i):
        return self.mapping[i]

    def compose(self, other):
        """self after other (other.source -> self.target)."""
        if other.target is not self.source:
            raise StructureError("morphisms are not composable")
        return type(self)(other.source, self.target,
                          [self.mapping[v] for v in other.mapping], check=False)

    def is_bijective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"


class Morphism(_IndexMap):
    """Structure-preserving map between two unital 3-fields."""

    def validate(self):
        s, t = self.source, self.target
        if len(self.mapping) != s.n:
            raise StructureError("mapping must cover the source carrier")
        m = np.asarray(self.mapping, dtype=np.int32)
        if (m < 0).any() or (m >= t.n).any():
            raise StructureError("mapping hits indices outside the target")
        if self.mapping[s.one] != t.one:
            raise StructureError("unit is not preserved")
        if not (m[s.carrier.nu] == t.carrier.nu[np.ix_(m, m, m)]).all():
            raise StructureError("ternary addition is not preserved")
        if not (m[s.carrier.mu] == t.carrier.mu[np.ix_(m, m)]).all():
            raise StructureError("multiplication is not preserved")

    @classmethod
    def identity(cls, field):
        return cls(field, field, range(field.n), check=False)


class RingMorphism(_IndexMap):
    """Unital morphism between two RingTables."""

    def validate(self):
        s, t = self.source, self.target
        if len(self.mapping) != s.n:
            raise StructureError("mapping must cover the source ring")
        m = np.asarray(self.mapping, dtype=np.int32)
        if self.mapping[s.one] != t.one:
            raise StructureError("one is not preserved")
        if not (m[s.add] == t.add[np.ix_(m, m)]).all():
            raise StructureError("addition is not preserved")
        if not (m[s.mul] == t.mul[np.ix_(m, m)]).all():
            raise StructureError("multiplication is not preserved")

    def kernel(self):
        return sorted(i for i, v in enumerate(self.mapping)
                      if v == self.target.zero)

    def image(self):
        return sorted(set(self.mapping))


def lift_morphism(phi, env_source=None, env_target=None):
    """Extend a 3-field morphism to the envelopes: identical on the odd part,
    q_alpha -> q_{phi(alpha)} on the pairs."""
    env_s = env_source or build_envelope(phi.source, check=False)
    env_t = env_target or build_envelope(phi.target, check=False)
    n_t = phi.target.n
    mapping = list(phi.mapping) + [n_t + v for v in phi.mapping]
    return RingMorphism(env_s, env_t, mapping)


class ThreeRingMap:
    """Map from a 3-field into a binary ring that preserves the derived
    ternary structure (sums of three, products, unit)."""

    def __init__(self, field, ring, mapping, check=True):
        self.field = field
        self.ring = ring
        self.mapping = tuple(int(v) for v in mapping)
        if check:
            self.validate()

    def validate(self):
        f, r, m = self.field, self.ring, self.mapping
        if len(m) != f.n:
            raise StructureError("mapping must cover the field")
        if m[f.one] != r.one:
            raise StructureError("unit must go to one")
        m = np.asarray(m, dtype=np.intp)
        ix = np.ix_(m, m)
        if not (m[f.carrier.mu] == r.mul[ix]).all():
            raise StructureError("products are not preserved")
        if not (m[f.carrier.nu] == r.add[r.add[ix][..., None], m]).all():
            raise StructureError("ternary sums are not preserved")

    def __call__(self, i):
        return self.mapping[i]


def universal_extension(phi, env=None):
    """The unique ring morphism U(F) -> R through which a 3-map F -> R
    factors: odd part as phi, pairs q_alpha -> phi(alpha) + phi(1)."""
    if not isinstance(phi, ThreeRingMap):
        raise StructureError("universal_extension expects a ThreeRingMap")
    f, r = phi.field, phi.ring
    env = env or build_envelope(f, check=False)
    mapping = list(phi.mapping)
    one_img = phi.mapping[f.one]
    mapping += [r.add_at(phi.mapping[alpha], one_img) for alpha in range(f.n)]
    bar = RingMorphism(env, r, mapping)
    for e in range(f.n):  # the triangle phi_bar o (inclusion) = phi
        if bar(e) != phi(e):
            raise StructureError("extension does not restrict to the original map")
    return bar


class IdealHandle:
    """Finitely generated ideal of an envelope ring, generators in the pair
    part, closure materialized."""

    def __init__(self, env, generators):
        self.env = env
        self.generators = [int(g) for g in generators]
        for g in self.generators:
            if not env.is_pair(g):
                raise StructureError(
                    "an ideal for a 3-ring needs generators in the pair part")
        self.elements = env.ideal_closure(self.generators) if self.generators \
            else frozenset({env.zero})

    def __contains__(self, i):
        return i in self.elements

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        gens = ",".join(self.env.labels[g] for g in self.generators)
        return f"IdealHandle(<{gens}>, {len(self.elements)} elements)"


class QuotientNotFieldError(StructureError):
    """Quotient by the ideal is not a 3-field; carries the witness ideal."""

    def __init__(self, message, witness_ideal):
        super().__init__(message)
        self.witness_ideal = witness_ideal


class QuotientResult:
    """Quotient 3-field together with the maximality report."""

    def __init__(self, field, class_reps, report):
        self.field = field
        self.class_reps = class_reps
        self.report = report


def quotient_by_ideal(field, ideal, check="auto"):
    """Quotient of a 3-field by an ideal of its envelope: classes r1 ~ r2 iff
    r1 + q = r2 for some q in the ideal.  The result is a 3-field exactly when
    every proper over-ideal of the envelope misses the odd part; that
    condition is verified by exhaustive ideal enumeration and reported.
    Symbolic bases delegate to their own quotient method."""
    if hasattr(field, "quotient_by_ideal"):
        return field.quotient_by_ideal(ideal)
    if not isinstance(ideal, IdealHandle):
        raise StructureError("quotient needs an IdealHandle")
    env = ideal.env
    if env.base is not field:
        raise StructureError("ideal lives over a different field")
    n = field.n
    # evenly-maximal condition: proper over-ideals avoid the odd part
    full = frozenset(range(env.n))
    witness = None
    for cand in sorted(env.all_ideals(), key=lambda s: (len(s), sorted(s))):
        if cand == full or not (ideal.elements <= cand):
            continue
        meets = sorted(i for i in cand if i < n)
        if meets:
            witness = {"ideal": sorted(cand),
                       "odd_members": [field.label(i) for i in meets]}
            break
    # partition the odd part along the translation action of the ideal: the
    # class of r is r + ideal, named by its least odd member
    members = env.add[:n, sorted(ideal.elements)]
    class_of = np.where(members < n, members, n).min(axis=1)
    reps = np.unique(class_of)
    cls = _renumber(class_of, reps, n)          # class position of each element
    c = field.carrier
    mu = cls[c.mu[np.ix_(reps, reps)]]
    nu = cls[c.nu[np.ix_(reps, reps, reps)]]
    # representative independence
    if not (cls[c.mu] == mu[np.ix_(cls, cls)]).all():
        raise StructureError("multiplication is not constant on classes")
    if not (cls[c.nu] == nu[np.ix_(cls, cls, cls)]).all():
        raise StructureError("addition is not constant on classes")
    report = {
        "evenly_maximal": witness is None,
        "witness": witness,
        "classes": len(reps),
    }
    if witness is not None:
        raise QuotientNotFieldError(
            "quotient is not a 3-field: a proper over-ideal meets the odd part "
            f"at {witness['odd_members']}", witness)
    labels = [field.label(r) for r in reps]
    carrier = TernaryCarrier(labels, nu, mu)
    out = FiniteThreeField(carrier, cls[field.one],
                           origin={"kind": "quotient"}, check=check)
    return QuotientResult(out, labels, report)


class RetractAddition:
    """Binary addition a (+) b = a+b+c retracted from the ternary one.

    Any c works and different choices give different (isomorphic) groups, so
    the construction is not functorial; the neutral element is quer(c)."""

    def __init__(self, field, c):
        self.field = field
        self.c = int(c)
        self.table = np.asarray(field.carrier.nu[:, :, self.c])
        self.neutral = None
        idx = np.arange(field.n, dtype=np.int32)
        for cand in range(field.n):
            if (self.table[:, cand] == idx).all():
                self.neutral = cand
                break

    def at(self, a, b):
        return int(self.table[a, b])


def retract_addition(field, c):
    return RetractAddition(field, c)


def evenly_maximal_check(k0):
    """Whether the even ideal generated by 2*k0 in the integers is evenly
    maximal: true exactly when k0 is a power of two.  On failure the witness
    is constructed from the smallest odd prime divisor p of k0: the proper
    ideal pZ contains 2*k0 and meets the odd numbers at p."""
    k0 = int(k0)
    if k0 < 1:
        raise StructureError("k0 must be positive")
    m = k0
    while m % 2 == 0:
        m //= 2
    if m == 1:
        return {"evenly_maximal": True, "witness": None}
    p = 3
    while p * p <= m:
        if m % p == 0:
            break
        p += 2
    else:
        p = m
    return {
        "evenly_maximal": False,
        "witness": {"prime": p, "ideal": f"({p})", "odd_member": p,
                    "contains": f"(2*{k0})"},
    }


def embedding_criterion(field, env=None):
    """Whether the field embeds into a binary field.

    Route one scans x+y-xy = 1 inside the envelope for a solution with both
    factors different from 1; route two scans the pair part for zero
    divisors.  The two verdicts are computed independently and must agree.
    """
    env = env or build_envelope(field, check=False)
    one = env.one
    zero = env.zero
    witness = None
    for x in range(field.n):
        if x == field.one:
            continue
        for y in range(field.n):
            if y == field.one:
                continue
            s = env.add_at(env.add_at(x, y), env.neg_at(env.mul_at(x, y)))
            if s == one:
                witness = (x, y)
                break
        if witness:
            break
    zero_divisor = None
    for p in env.pair_indices():
        if p == zero:
            continue
        for q in env.pair_indices():
            if q == zero:
                continue
            if env.mul_at(p, q) == zero:
                zero_divisor = (p, q)
                break
        if zero_divisor:
            break
    if (witness is None) != (zero_divisor is None):
        raise StructureError("the two embedding criteria disagree")
    return {
        "embeds": witness is None,
        "witness": None if witness is None else tuple(field.label(v) for v in witness),
        "zero_divisor": None if zero_divisor is None
        else tuple(env.labels[v] for v in zero_divisor),
    }


def ring_isomorphism(r1, r2, constraint=None):
    """Search for a unital ring isomorphism r1 -> r2 by matching a generating
    sequence; returns a RingMorphism or None.  constraint(i, j) may veto
    candidate images (used to force parity preservation)."""
    if r1.n != r2.n:
        return None

    def close(mapping, frontier):
        """Extend mapping by ring closure; mapping: dict r1-index -> r2-index."""
        used = set(mapping.values())
        if len(used) != len(mapping):
            return None
        queue = list(frontier)
        known = sorted(mapping)
        while queue:
            a = queue.pop()
            for b in sorted(mapping):
                for op1, op2 in ((r1.add_at, r2.add_at), (r1.mul_at, r2.mul_at)):
                    for x, y in ((a, b), (b, a)):
                        s1 = op1(x, y)
                        s2 = op2(mapping[x], mapping[y])
                        if s1 in mapping:
                            if mapping[s1] != s2:
                                return None
                        else:
                            if s2 in used:
                                return None
                            mapping[s1] = s2
                            used.add(s2)
                            queue.append(s1)
        return mapping

    base = {r1.zero: r2.zero, r1.one: r2.one}
    base = close(dict(base), [r1.zero, r1.one])
    if base is None:
        return None

    def extend(mapping):
        if len(mapping) == r1.n:
            try:
                return RingMorphism(r1, r2, [mapping[i] for i in range(r1.n)])
            except StructureError:
                return None
        g = min(i for i in range(r1.n) if i not in mapping)
        used = set(mapping.values())
        for img in range(r2.n):
            if img in used:
                continue
            if constraint is not None and not constraint(g, img):
                continue
            trial = dict(mapping)
            trial[g] = img
            trial = close(trial, [g])
            if trial is None:
                continue
            out = extend(trial)
            if out is not None:
                return out
        return None

    return extend(base)


def field_isomorphism(f1, f2):
    """3-field isomorphism via a parity-preserving isomorphism of envelopes;
    returns a Morphism or None."""
    if f1.n != f2.n:
        return None
    e1 = build_envelope(f1, check=False)
    e2 = build_envelope(f2, check=False)

    def parity_ok(i, j):
        return e1.parity[i] == e2.parity[j]

    iso = ring_isomorphism(e1, e2, constraint=parity_ok)
    if iso is None:
        return None
    return Morphism(f1, f2, iso.mapping[:f1.n])
