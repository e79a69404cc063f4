"""Envelope rings for unital 3-fields.

Translations x -> x+a+b of a 3-field F form the "even part" Q(F): pairs
q_{a,b}, normalized to the standard form q_{a+b-1,1} so that a pair is
determined by the single coordinate alpha.  Adjoining them to F yields the
envelope U(F) = F + Q(F), a binary unital ring of exactly twice the size, in
which F sits as the odd part and Q(F) as an ideal.  U(F) is local: Q(F) is
its unique maximal ideal and the residue ring has two elements.  That ideal
is found as the paper characterizes it, as the set of non-units: the odd
part is units and the pairs are closed under addition, which one O(n^2)
whole-table check confirms (RingTable.maximal_ideals).  The same fact lets
an isomorphism of envelopes stand for an isomorphism of 3-fields: it maps
units to units, so it keeps the odd part in place (field_isomorphism).

Every check that a map carries one operation table onto another -- the
morphism classes, the class map of a quotient and the parity grading, the
residue map onto Z/2 -- is `ternary_kernel._map_violation`, which walks
chunks of first arguments and holds no n^3 cube.

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

from .dyadic import _val2_int
from .ternary_kernel import (
    FiniteThreeField,
    StructureError,
    TernaryCarrier,
    _TABLE_LIMIT,
    _assoc_violation,
    _first_violation,
    _identity,
    _map_violation,
    _nonperm_row,
    _refuse_size,
    _renumber,
    quer_add,
)


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
        _refuse_size(n, _TABLE_LIMIT, "ring size {size} exceeds the validation guard",
                     StructureError)
        add, mul = self.add, self.mul
        if not (add == add.T).all():
            raise StructureError("addition is not commutative")
        if _identity(add) != self.zero:
            raise StructureError("zero is not an additive neutral")
        if _nonperm_row(add) is not None:
            raise StructureError("addition rows are not permutations")
        if _assoc_violation(add) is not None:
            raise StructureError("addition is not associative")
        if _assoc_violation(mul) is not None:
            raise StructureError("multiplication is not associative")
        if _identity(mul) != self.one:
            raise StructureError("one is not a two-sided unit")
        # i*(j+k) != i*j + i*k, i*(j+k) taken C-contiguous as in _assoc_mask
        if _first_violation(n, n * n, lambda rows:
                            np.take(mul[rows], add.ravel(), axis=1).reshape(-1, n, n)
                            != add[mul[rows][:, :, None], mul[rows][:, None, :]]) is not None:
            raise StructureError("left distributivity fails")
        # (i+j)*k != i*k + j*k
        if _first_violation(n, n * n, lambda rows: mul[add[rows]]
                            != add[mul[rows][:, None, :], mul[None, :, :]]) is not None:
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
        """Additive subgroup generated by the seed indices: a membership mask
        that takes in every pairwise sum of its members, one whole-table
        gather per round, until it stops growing."""
        hit = np.zeros(self.n, dtype=bool)
        hit[np.fromiter(seed, dtype=np.intp)] = True
        hit[self.zero] = True
        members = np.flatnonzero(hit)
        while True:
            hit[self.add[np.ix_(members, members)]] = True
            grown = np.flatnonzero(hit)
            if len(grown) == len(members):
                return frozenset(members.tolist())
            members = grown

    def ideal_closure(self, generators):
        """Smallest two-sided ideal containing the generators: the sums of
        the products u*g*v (both sides at once, as the ring need not be
        commutative)."""
        hit = np.zeros(self.n, dtype=bool)
        for g in generators:
            hit[self.mul[self.mul[:, g]]] = True      # [u, v] -> (u*g)*v
        return self._additive_closure(np.flatnonzero(hit))

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
                    s = self._additive_closure(a | b)
                    if s not in found:
                        found.add(s)
                        changed = True
        self._ideals = found
        return found

    def _units(self):
        """Mask of the units: the rows of mul that reach one.  In a finite
        ring a one-sided inverse is two-sided, so a row suffices."""
        return (self.mul == self.one).any(axis=1)

    def _nonunit_ideal(self):
        """The non-units N when they are closed under addition, else None.

        Then N is the unique maximal ideal: a product with a non-unit factor
        is a non-unit (one-sided inverses are two-sided), N holds 0 and the
        negatives of its members, so closure under addition makes it an
        ideal, and a proper ideal holds no unit, so every one lies in N."""
        if self.n <= 1:
            return None
        nonunit = ~self._units()
        members = np.flatnonzero(nonunit)
        if not nonunit[self.add[np.ix_(members, members)]].all():
            return None
        return frozenset(members.tolist())

    def _maximal_ideals(self):
        """(sorted maximal ideals, "certificate" or "enumeration")."""
        local = self._nonunit_ideal()
        if local is not None:
            return [local], "certificate"
        full = frozenset(range(self.n))
        proper = [i for i in self.all_ideals() if i != full]
        maximal = [i for i in proper
                   if not any(i < j for j in proper)]
        return sorted(maximal, key=lambda s: sorted(s)), "enumeration"

    def maximal_ideals(self):
        """The maximal two-sided ideals, sorted.  A ring whose non-units are
        closed under addition is local with them as its maximal ideal, an
        O(n^2) certificate; any other ring (and the zero ring) is answered
        by enumerating every ideal."""
        return self._maximal_ideals()[0]

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
    nu = field.carrier.nu
    alpha = int(nu[a, b, field.quer(field.one)])
    if (nu[:, a, b] != nu[:, alpha, field.one]).any():
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
        # parity grading: parity is the residue map, a ring map onto Z/2
        bit = np.arange(2)
        if (_map_violation(self.parity, self.add, bit ^ bit[:, None]) is not None
                or _map_violation(self.parity, self.mul, bit & bit[:, None]) is not None):
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
    """Report the maximal ideals and the local structure: for an envelope
    ring there must be exactly one, equal to the even part, with a
    two-element residue ring.  report["method"] says how the ideals were
    found: "certificate" when the non-units are closed under addition (then
    they are the one maximal ideal), "enumeration" when every ideal had to
    be listed."""
    maximal, method = ring._maximal_ideals()
    report = {
        "maximal_ideals": [sorted(m) for m in maximal],
        "residue_sizes": [ring.n // len(m) for m in maximal],
        "is_local_with_z2_residue": len(maximal) == 1 and ring.n == 2 * len(maximal[0]),
        "method": method,
    }
    if isinstance(ring, EnvelopeRing) and len(maximal) == 1:
        report["maximal_is_pair_part"] = sorted(maximal[0]) == list(ring.pair_indices())
    return report


def units_as_3field(ring, check="auto"):
    """For a local ring with two-element residue ring, the complement of the
    maximal ideal (the units, see RingTable.maximal_ideals) with inherited
    ternary addition and multiplication."""
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
    source element.  Construction checks that the mapping covers the source
    and lands in the target; each subclass's validate checks its unit and
    operations."""

    def __init__(self, source, target, mapping, check=True):
        self.source = source
        self.target = target
        self.mapping = tuple(int(v) for v in mapping)
        if check:
            if len(self.mapping) != source.n:
                raise StructureError("mapping must cover the source")
            if not all(0 <= v < target.n for v in self.mapping):
                raise StructureError("mapping hits indices outside the target")
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
        s, t, m = self.source, self.target, self.mapping
        if m[s.one] != t.one:
            raise StructureError("unit is not preserved")
        if _map_violation(m, s.carrier.nu, t.carrier.nu) is not None:
            raise StructureError("ternary addition is not preserved")
        if _map_violation(m, s.carrier.mu, t.carrier.mu) is not None:
            raise StructureError("multiplication is not preserved")

    @classmethod
    def identity(cls, field):
        return cls(field, field, range(field.n), check=False)


class RingMorphism(_IndexMap):
    """Unital morphism between two RingTables."""

    def validate(self):
        s, t, m = self.source, self.target, self.mapping
        if m[s.one] != t.one:
            raise StructureError("one is not preserved")
        if _map_violation(m, s.add, t.add) is not None:
            raise StructureError("addition is not preserved")
        if _map_violation(m, s.mul, t.mul) is not None:
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


class ThreeRingMap(_IndexMap):
    """Map from a 3-field into a binary ring that preserves the derived
    ternary structure (sums of three, products, unit)."""

    def validate(self):
        f, r, m = self.source, self.target, self.mapping
        if m[f.one] != r.one:
            raise StructureError("unit must go to one")
        if _map_violation(m, f.carrier.mu, r.mul) is not None:
            raise StructureError("products are not preserved")
        if _map_violation(m, f.carrier.nu, r.add, r.add) is not None:   # (a+b)+c
            raise StructureError("ternary sums are not preserved")


def universal_extension(phi, env=None):
    """The unique ring morphism U(F) -> R through which a 3-map F -> R
    factors: odd part as phi, pairs q_alpha -> phi(alpha) + phi(1)."""
    if not isinstance(phi, ThreeRingMap):
        raise StructureError("universal_extension expects a ThreeRingMap")
    f, r = phi.source, phi.target
    env = env or build_envelope(f, check=False)
    m = np.asarray(phi.mapping, dtype=np.intp)
    return RingMorphism(env, r, np.concatenate([m, r.add[m, m[f.one]]]))


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
    every proper over-ideal of the envelope misses the odd part, and the
    verdict is reported.  A proper ideal holds no unit, so the condition
    holds outright when every odd element is a unit of the envelope (always,
    when the base is a 3-field); otherwise the over-ideals are enumerated and
    the smallest one meeting the odd part is the witness.  Symbolic bases
    delegate to their own quotient method."""
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
    candidates = () if env._units()[:n].all() else sorted(
        env.all_ideals(), key=lambda s: (len(s), sorted(s)))
    for cand in candidates:
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
    # representative independence: the class map carries mu and nu onto
    # the quotient's tables
    if _map_violation(cls, c.mu, mu) is not None:
        raise StructureError("multiplication is not constant on classes")
    if _map_violation(cls, c.nu, nu) is not None:
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
        self.neutral = quer_add(field.carrier, self.c)   # nu(x, quer(c), c) = x

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
    m = k0 >> _val2_int(k0)                   # the odd part
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


def _close_map(r1, r2, m):
    """Close a partial map (m[i] the image of i, -1 where unmapped; zero
    mapped to zero) under addition and multiplication, one whole-table
    gather over the mapped set per round, until a round maps nothing new.
    None as soon as a result gets two images or an image two sources.  A
    changed known image is a result with two images, as x + 0 carries the
    image of every mapped x into the results."""
    while True:
        src = np.flatnonzero(m >= 0)
        ix1, ix2 = np.ix_(src, src), np.ix_(m[src], m[src])
        s1 = np.concatenate((r1.add[ix1], r1.mul[ix1]), axis=None)
        s2 = np.concatenate((r2.add[ix2], r2.mul[ix2]), axis=None)
        grown = m.copy()
        grown[s1] = s2
        if (grown[s1] != s2).any():                # a result with two images
            return None
        images = grown[grown >= 0]
        if len(np.unique(images)) != len(images):  # an image with two sources
            return None
        if len(images) == len(src):
            return m
        m = grown


def ring_isomorphism(r1, r2):
    """Search for a unital ring isomorphism r1 -> r2; returns a RingMorphism
    or None.

    zero and one are matched, and then the least unmapped index takes each
    free image in ascending order, the partial map closed under both
    operations after every choice (_close_map).  A unital isomorphism maps
    units to units and non-units to non-units, so only images of the same
    unit status are tried; that skips branches that cannot succeed and
    leaves the first isomorphism found unchanged."""
    if r1.n != r2.n:
        return None
    units1, units2 = r1._units(), r2._units()

    def extend(m):
        if m is None:
            return None
        free = np.flatnonzero(m < 0)
        if not free.size:
            try:
                return RingMorphism(r1, r2, m)
            except StructureError:
                return None
        g = free[0]
        open_ = units2 == units1[g]
        open_[m[m >= 0]] = False
        for img in np.flatnonzero(open_):
            trial = m.copy()
            trial[g] = img
            out = extend(_close_map(r1, r2, trial))
            if out is not None:
                return out
        return None

    seed = np.full(r1.n, -1, dtype=np.intp)
    seed[[r1.zero, r1.one]] = r2.zero, r2.one
    return extend(_close_map(r1, r2, seed))


def field_isomorphism(f1, f2):
    """3-field isomorphism as an isomorphism of the envelopes restricted to
    the odd part; returns a Morphism or None.

    An envelope isomorphism must keep the odd part F in place, and it does:
    the odd part of U(F) is exactly its units (F is a 3-field and the pairs
    form the maximal ideal), and ring_isomorphism matches units with units."""
    if f1.n != f2.n:
        return None
    iso = ring_isomorphism(build_envelope(f1, check=False),
                           build_envelope(f2, check=False))
    if iso is None:
        return None
    return Morphism(f1, f2, iso.mapping[:f1.n])
