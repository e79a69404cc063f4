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

A 3-field, a ring or an envelope proves itself when first read: a 3-field
when its retract is certified and its mu is a unital monoid
(`TernaryCarrier.generators`), a ring when every ring law holds
(`RingTable._failure`, each law decided on generators), an envelope when
it is a ring graded by parity into which the base embeds
(`EnvelopeRing._envelope_failure`).  A map of groups that is additive on a
generating set is a homomorphism, so between proven sides `Morphism` and
`ThreeRingMap` decide every law, failures included, in O(n |A|),
|A| <= 1 + log2 n, instead of walking n^3 cells.  Every other check that a
map carries one operation table onto another -- a `RingMorphism`, whose
two binary tables cost less to walk than a ring proof, any map when a side
is unproven, the class map of a quotient and the parity grading, the
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

import functools
import math

import numpy as np

from .dyadic import _val2_int
from .ternary_kernel import (
    FiniteThreeField,
    StructureError,
    TernaryCarrier,
    _TABLE_LIMIT,
    _affine_on,
    _carries_on,
    _coset_form,
    _generators,
    _identity,
    _least,
    _light_associative,
    _map_violation,
    _nonperm_row,
    _table,
    _translations,
    quer_add,
)


class RingTable:
    """Finite unital binary ring given by dense addition/multiplication tables.

    The tables are read-only: the ring's proof (`_failure`) is decided on
    first read and kept.  `check` raises the first failing law at
    construction; unchecked, a ring is proved when a map first reads it."""

    def __init__(self, labels, add, mul, zero, one, check=True):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        # entries are range-checked even unchecked: every law indexes by them
        self._add = _table(add, (self.n, self.n), "add", 0)
        self._mul = _table(mul, (self.n, self.n), "mul", 0)
        self.zero = int(zero)
        self.one = int(one)
        self._ideals = None
        if check:
            self.validate_ring()

    add = property(lambda self: self._add)
    mul = property(lambda self: self._mul)

    @functools.cached_property
    def _failure(self):
        """The message of the first ring law that fails, or None: the ring's
        proof, on which maps of a 3-field into it are checked.

        Once addition is a commutative loop with neutral zero, each law is
        decided exactly on generating sets, and the first failing one is
        named in the order addition's associativity, multiplication's,
        the unit, left and right distributivity.  Light's test decides an
        associativity on any magma generating set.  A distributive law is
        every left (right) translation of mul being additive, which it is
        when additive on a generating set A of the group add.  With both
        distributive laws the associator is tri-additive, so mul is
        associative when it is on A^3; else Light's test runs on mul's own
        generators."""
        if self.n > _TABLE_LIMIT:
            return f"ring size {self.n} exceeds the validation guard"
        add, mul = self.add, self.mul
        if not (add == add.T).all():
            return "addition is not commutative"
        if _identity(add) != self.zero:
            return "zero is not an additive neutral"
        if _nonperm_row(add) is not None:
            return "addition rows are not permutations"
        a = np.array(_generators(add))
        if not _light_associative(add, a):
            return "addition is not associative"
        right, left = (_carries_on(t, add, a, add) for t in np.split(_translations(mul), 2, axis=1))
        if left and right:
            ab = mul[a[:, None], a]                     # [a, b, c]: (ab)c == a(bc)
            associative = (mul[ab[:, :, None], a] == mul[a[:, None, None], ab]).all()
        else:
            associative = _light_associative(mul, np.array(_generators(mul)))
        laws = [(associative, "multiplication is not associative"),
                (_identity(mul) == self.one, "one is not a two-sided unit"),
                (left, "left distributivity fails"), (right, "right distributivity fails")]
        return next((message for holds, message in laws if not holds), None)

    def validate_ring(self):
        """Raise StructureError naming the first ring law that fails."""
        if self._failure is not None:
            raise StructureError(self._failure)

    def add_at(self, i, j):
        return int(self.add[i, j])

    def mul_at(self, i, j):
        return int(self.mul[i, j])

    @functools.cached_property
    def neg(self):
        """The additive inverse of every element, as an index array."""
        return np.argmax(self.add == self.zero, axis=1)

    def neg_at(self, i):
        return int(self.neg[i])

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
    a * b (no terms: a carrier with its addition only).  Both tables are
    gathers over the ring's add, mul and neg tables.  `position` is the one
    map from tuples to carrier indices: a lookup in the sorted tuple codes,
    which every table and every construction over these tuples reads."""

    def __init__(self, ring, tuples, terms):
        self.ring = ring
        self.tuples = np.asarray(tuples, dtype=np.intp)
        self.n, self.width = self.tuples.shape
        self._terms = [(int(o), int(i), int(j), sign < 0)
                       for o, i, j, sign in terms]
        # a tuple's code is its value in base ring.n: int64 while every code
        # fits, Python ints beyond (a wide carrier over a small ring)
        wide = ring.n ** self.width > 2 ** 63
        self._powers = np.array([ring.n ** e for e in range(self.width)],
                                dtype=object if wide else np.int64)
        codes = self.tuples @ self._powers
        self._order = np.argsort(codes)
        self._codes = codes[self._order]

    def position(self, coords):
        """Carrier index of every tuple in a (..., width) coordinate array,
        -1 where a tuple is not in the carrier."""
        coords = np.asarray(coords)
        codes = coords @ self._powers
        pos = np.minimum(np.searchsorted(self._codes, codes), self.n - 1)
        in_range = ((coords >= 0) & (coords < self.ring.n)).all(axis=-1)
        return np.where((self._codes[pos] == codes) & in_range, self._order[pos], -1)

    def locate(self, coords, what):
        """Carrier index of every tuple in a (..., width) coordinate array;
        StructureError naming `what` when one is not in the carrier."""
        found = self.position(coords)
        if (found < 0).any():
            raise StructureError(f"{what} left the carrier")
        return found.astype(np.int32)

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

    @functools.cached_property
    def mu(self):
        """The (n, n) multiplication table, built on first use."""
        V = self.tuples
        return self.locate(self.products(V, V), "multiplication")

    def field(self, labels, one, origin, check):
        """The FiniteThreeField on these tables; one is the unit's tuple.
        Its carrier is born from the retract of the ternary addition
        a + b + c at the first carrier tuple v0: a o b = a + b - v0, by one
        lookup of n^2 tuples, and k = v0+v0+v0, so nu is never built here."""
        add, V = self.ring.add, self.tuples
        v0 = V[0]
        o = self.locate(add[add[V[:, None], V[None]], self.ring.neg[v0]], "ternary addition")
        k = int(self.locate(add[add[v0, v0], v0], "ternary addition"))
        carrier = TernaryCarrier.from_retract(labels, o, k, self.mu)
        unit = int(self.locate(np.asarray(one), "the unit"))
        return FiniteThreeField(carrier, unit, origin=origin, check=check)


class EnvelopeRing(RingTable):
    """U(F) = F + Q(F): indices 0..n-1 are the odd part (base field elements),
    n..2n-1 the pairs (index n+alpha is q_alpha).  parity[i] is 1 on the odd
    part, 0 on the even part.  Its proof is `_envelope_failure`."""

    def __init__(self, base):
        n, one, mu, nu = base.n, base.one, base.carrier.mu, base.carrier.nu_of
        m1 = quer_add(base.carrier, one)
        rows, cols = np.arange(n)[:, None], np.arange(n)
        odd_plus_pair = nu(rows, one, cols)                 # [a, beta]
        add = np.block([[n + nu(rows, cols, m1), odd_plus_pair],
                        [odd_plus_pair.T, n + nu(rows, cols, one)]])
        mul = np.block([[mu, n + nu(mu, rows, m1)],         # a*q_beta: nu(a*beta, a, m1)
                        [n + nu(mu, cols, m1),              # q_alpha*b: nu(alpha*b, b, m1)
                         n + nu(rows, cols, mu)]])
        labels = list(base.labels) + [f"q({lab})" for lab in base.labels]
        self.base = base
        self._parity = np.repeat(np.array([1, 0], dtype=np.int8), n)
        self._parity.setflags(write=False)
        super().__init__(labels, add, mul, zero=n + m1, one=one, check=False)

    parity = property(lambda self: self._parity)

    @functools.cached_property
    def _envelope_failure(self):
        """The message of the first envelope law that fails, or None: the ring
        laws (`_failure`), the base embedding as a 3-morphism, the grading."""
        if self._failure is not None:
            return self._failure
        try:
            ThreeRingMap(self.base, self, range(self.base.n))
        except StructureError as exc:
            return str(exc)
        return None if self._graded() else "parity grading broken"

    def _graded(self):
        """Whether parity is the residue map, a ring map onto Z/2."""
        bit = np.arange(2)
        return (_map_violation(self.parity, self.add, bit ^ bit[:, None]) is None
                and _map_violation(self.parity, self.mul, bit & bit[:, None]) is None)

    def validate_ring(self):
        """Raise StructureError naming the first envelope law that fails."""
        if self._envelope_failure is not None:
            raise StructureError(self._envelope_failure)

    def is_pair(self, i):
        return i >= self.base.n

    def pair_index(self, alpha):
        return self.base.n + int(alpha)

    def pair_indices(self):
        return range(self.base.n, 2 * self.base.n)

    def __repr__(self):
        return f"EnvelopeRing({self.n} elements over {self.base!r})"


def build_envelope(field, check=True):
    """The enveloping ring U(F), its proof raised when `check` is set."""
    env = EnvelopeRing(field)
    if check:
        env.validate_ring()
    return env


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


def units_as_3field(ring):
    """For a local ring with two-element residue ring, the complement of the
    maximal ideal (the units, see RingTable.maximal_ideals) with inherited
    ternary addition and multiplication."""
    maximal = ring.maximal_ideals()
    if len(maximal) != 1 or ring.n != 2 * len(maximal[0]):
        raise StructureError(
            f"not local with residue ring of two elements "
            f"({len(maximal)} maximal ideals)")
    u = np.setdiff1d(np.arange(ring.n), sorted(maximal[0]))
    return _TupleTables(ring, u[:, None], [(0, 0, 0, 1)]).field(
        [ring.labels[g] for g in u], [ring.one], {"kind": "units_of_ring"}, "auto")


class _IndexMap:
    """A map between finite structures, held as the image index of every
    source element.  Construction checks that the mapping covers the source
    and lands in the target; each subclass's validate checks its unit and
    operations."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(int(v) for v in mapping)
        if len(self.mapping) != source.n:
            raise StructureError("mapping must cover the source")
        if not all(0 <= v < target.n for v in self.mapping):
            raise StructureError("mapping hits indices outside the target")
        self.validate()

    def __call__(self, i):
        return self.mapping[i]

    def is_bijective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"


def _morphism_failure(m, s, t):
    """The message of the first 3-field morphism law that the map m from s
    to t breaks (the unit, then nu, then mu), or None.  Between carriers
    with certified retracts and monoid products the generators decide each
    law, and m may be a stack of maps, one per column, which fails when
    one of them does; else m must be one map, and each law is walked."""
    gens = s.carrier.generators
    proven = gens and t.carrier.generators
    if m.ndim > 1 and not proven:
        raise StructureError("a stack of maps needs certified retracts and monoid products")
    if (m[s.one] != t.one).any():
        return "unit is not preserved"
    if not (_affine_on(m, s.carrier.retract, gens[0], *t.carrier.retract) if proven
            else _map_violation(m, s.carrier.nu_of, t.carrier.nu) is None):
        return "ternary addition is not preserved"
    if not (_carries_on(m, s.carrier.mu, gens[1], t.carrier.mu) if proven
            else _map_violation(m, s.carrier.mu, t.carrier.mu) is None):
        return "multiplication is not preserved"
    return None


class Morphism(_IndexMap):
    """Structure-preserving map between two unital 3-fields."""

    def validate(self):
        failure = _morphism_failure(np.asarray(self.mapping), self.source, self.target)
        if failure is not None:
            raise StructureError(failure)


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


def lift_morphism(phi):
    """Extend a 3-field morphism to the envelopes: identical on the odd part,
    q_alpha -> q_{phi(alpha)} on the pairs."""
    mapping = list(phi.mapping) + [phi.target.n + v for v in phi.mapping]
    return RingMorphism(EnvelopeRing(phi.source), EnvelopeRing(phi.target), mapping)


class ThreeRingMap(_IndexMap):
    """Map from a 3-field into a binary ring that preserves the derived
    ternary structure (sums of three, products, unit)."""

    def validate(self):
        f, r = self.source, self.target
        m = np.asarray(self.mapping)
        if m[f.one] != r.one:
            raise StructureError("unit must go to one")
        # the route of Morphism, into the ring's x+y+z (k = zero)
        gens = f.carrier.generators
        proven = gens and r._failure is None
        if not (_carries_on(m, f.carrier.mu, gens[1], r.mul) if proven
                else _map_violation(m, f.carrier.mu, r.mul) is None):
            raise StructureError("products are not preserved")
        if not (_affine_on(m, f.carrier.retract, gens[0], r.add, r.zero, r.zero) if proven
                else _map_violation(m, f.carrier.nu_of, r.add, r.add) is None):   # (a+b)+c
            raise StructureError("ternary sums are not preserved")


def universal_extension(phi):
    """The unique ring morphism U(F) -> R through which a 3-map F -> R
    factors: odd part as phi, pairs q_alpha -> phi(alpha) + phi(1)."""
    if not isinstance(phi, ThreeRingMap):
        raise StructureError("universal_extension expects a ThreeRingMap")
    f, r = phi.source, phi.target
    m = np.asarray(phi.mapping, dtype=np.intp)
    return RingMorphism(EnvelopeRing(f), r, np.concatenate([m, r.add[m, m[f.one]]]))


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


def quotient_by_ideal(field, ideal):
    """Quotient of a 3-field by an ideal of its envelope: classes r1 ~ r2 iff
    r1 + q = r2 for some q in the ideal.  The result is a 3-field exactly when
    every proper over-ideal of the envelope misses the odd part, and the
    verdict is reported.  A proper ideal holds no unit, so the condition
    holds outright when every odd element is a unit of the envelope (always,
    when the base is a 3-field); otherwise the over-ideals are enumerated and
    the smallest one meeting the odd part is the witness.  The quotient is
    born from its retract (`FiniteThreeField._restriction`), with no cube."""
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
    reps, cls = np.unique(class_of, return_inverse=True)    # cls: each element's class
    o, k, mu = field._restriction(reps, cls)
    # representative independence: the class map carries mu onto the
    # quotient's mu, and nu onto its coset form F[o], F = `_coset_form`
    if _map_violation(cls, field.carrier.mu, mu) is not None:
        raise StructureError("multiplication is not constant on classes")
    if _map_violation(cls, field.carrier.nu_of, o, _coset_form(o, k)) is not None:
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
    carrier = TernaryCarrier.from_retract(labels, o, k, mu)
    out = FiniteThreeField(carrier, cls[field.one], origin={"kind": "quotient"})
    return QuotientResult(out, labels, report)


class RetractAddition:
    """Binary addition a (+) b = a+b+c retracted from the ternary one.

    Any c works and different choices give different (isomorphic) groups, so
    the construction is not functorial; the neutral element is quer(c)."""

    def __init__(self, field, c):
        self.field = field
        self.c = int(c)
        rows = np.arange(field.n)
        self.table = field.carrier.nu_of(rows[:, None], rows, self.c)
        self.neutral = quer_add(field.carrier, self.c)   # nu(x, quer(c), c) = x


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
    p = next((p for p in range(3, math.isqrt(m) + 1, 2) if m % p == 0), m)
    return {
        "evenly_maximal": False,
        "witness": {"prime": p, "ideal": f"({p})", "odd_member": p,
                    "contains": f"(2*{k0})"},
    }


def embedding_criterion(field):
    """Whether the field embeds into a binary field.

    Route one finds the least solution of x+y-xy = 1 inside the envelope
    with both factors different from 1; route two the least pair of zero
    divisors in the pair part (indices n..2n-1), each as one mask over the
    whole table.  The two verdicts are computed independently and must
    agree.
    """
    env = EnvelopeRing(field)
    n, add, mul = field.n, env.add, env.mul
    solved = add[add[:n, :n], env.neg[mul[:n, :n]]] == env.one     # [x, y]
    solved[field.one] = solved[:, field.one] = False
    witness = _least(solved) if solved.any() else None
    divides = mul[n:, n:] == env.zero                             # [p - n, q - n]
    divides[env.zero - n] = divides[:, env.zero - n] = False
    zero_divisor = tuple(n + v for v in _least(divides)) if divides.any() else None
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
    leaves the first isomorphism found unchanged.  The trials are a stack, so
    no recursive closure leaves a reference cycle holding the rings."""
    if r1.n != r2.n:
        return None
    units1, units2 = r1._units(), r2._units()
    seed = np.full(r1.n, -1, dtype=np.intp)
    seed[[r1.zero, r1.one]] = r2.zero, r2.one
    trials = [seed]                             # depth first, least image on top
    while trials:
        m = _close_map(r1, r2, trials.pop())
        if m is None:
            continue
        free = np.flatnonzero(m < 0)
        if not free.size:
            try:
                return RingMorphism(r1, r2, m)
            except StructureError:
                continue
        open_ = units2 == units1[free[0]]
        open_[m[m >= 0]] = False
        for img in np.flatnonzero(open_)[::-1]:
            trial = m.copy()
            trial[free[0]] = img
            trials.append(trial)
    return None


def field_isomorphism(f1, f2):
    """3-field isomorphism as an isomorphism of the envelopes restricted to
    the odd part; returns a Morphism or None.

    An envelope isomorphism must keep the odd part F in place, and it does:
    the odd part of U(F) is exactly its units (F is a 3-field and the pairs
    form the maximal ideal), and ring_isomorphism matches units with units."""
    if f1.n != f2.n:
        return None
    iso = ring_isomorphism(EnvelopeRing(f1), EnvelopeRing(f2))
    if iso is None:
        return None
    return Morphism(f1, f2, iso.mapping[:f1.n])
