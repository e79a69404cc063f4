"""Carriers for 3-rings/3-fields and exact verification of their axioms.

A carrier is a finite ordered set of elements (identified by index) together
with operation tables: a ternary addition nu and, usually, a
multiplication mu.  mu is binary, (n,n) with the derived ternary product
mu(mu(x,y),z), or genuinely ternary, (n,n,n) on a ProperThreeThreeField;
every fork on the kind of product reads mu.ndim.  nu is given as its
dense (n,n,n) cube (user tables, JSON), or, by every builder, as the
retract (o, k) whose coset form it is (`TernaryCarrier.from_retract`), in
n^2 entries; the cube is then built only when something reads it, and
every reader that needs n^2 or fewer entries of nu reads them through
`TernaryCarrier.nu_of`.  Tables are immutable after construction and all
verdicts are deterministic: every failure reports the lexicographically
least witness.

`check_ternary_group` and `check_distributivity` reach a verdict in four
steps, and the Verdict's `method` records which step decided it:

1. cheap invariants, O(n^3) or less: closure, commutativity and unique
   solvability of nu, associativity of a binary mu ("cheap");
2. the size gate: carriers above `check_limit()` raise CarrierSizeError;
3. an exact certificate: by the Hosszu-Gluskin theorem a commutative
   ternary group is nu(x,y,z) = x+y+z+k over an abelian group.  That form
   is written once, `_coset_form`.  A builder's carrier is born from its
   retract (o, k), so its nu is that form by construction and it is
   certified on o alone: the group checks and Light's test of
   `_retract_certificate`, O(n^2 |A|).  A dense carrier, or a builder's
   whose o fails those checks, is certified on the cube by
   `_coset_retract`, which reads the form back in O(n^3).  Either yields
   the retract (o, k), cached per carrier as `TernaryCarrier.retract`
   beside its generators A; then `_distrib_certificate` tests every
   translation of mu, binary or ternary, as affine for o on A, in
   O(n^2 |A|) for a binary mu.  A passing certificate is a PASS
   ("certificate");
4. otherwise the O(n^5) scan, the only witness locator ("scan").  A
   certificate can fail on a binary mu the scan passes, so a failed
   certificate decides nothing by itself.

Each cheap law of step 1 (the closure of nu and of mu, the nu invariants
and the invariants of a binary mu) is decided once per carrier and cached
on it like the retract; `_first_failure` reads them in its caller's order.
The invariants are decided certificate first: the nu invariants pass when
the retract is certified, which also proves them, and those of a binary mu
by Light's test on mu's generators.  Only when that fails does the O(n^3)
walk run, to name the least witness, so a carrier that passes step 1 has
its retract certified before the checkers read it.  A builder's carrier
passes step 1 in O(n^2 |A|) with no cube built: the closure of its nu is
that of its validated o, and its certificate checks o alone.
`FiniteThreeField` and `ProperThreeThreeField` (itself a carrier) read
them the same way and decide associativity and distributivity with the
two checkers, so `field check` decides each law once.

The scans walk the quintuples in row-major order, in blocks of consecutive
(a, b, c) triples that grow from one triple, an (n, n) slab over (d, e), to
about _BLOCK_ENTRIES entries, so an early witness costs one n^2 slab and no
array a scan allocates holds more than max(n^2, _BLOCK_ENTRIES) entries.
`check_distributivity` still builds the derived product mu[mu], an n^3
table, for a binary mu; the bound is on the scan's own arrays.  Every other
O(n^3) law check, here and on ring and group tables, walks chunks of its
first index of about _BLOCK_ENTRIES entries (`_first_violation`), and so
does every check that a map carries one operation table onto another
(`_map_violation`), so none holds an n^3 cube.

Where the groups are proved, laws and maps are decided on a generating set
A instead (`_generators`, |A| <= 1 + log2 n on a group): associativity by
Light's test (`_light_associative`, O(n^2 |A|)), and a map or a stack of
maps by its law on A (`_carries_on`, `_affine_on`, O(n |A|) per map).
These decide passes only; a failure is named by the walk.  The generating
sets are found once per carrier: o's by the certificate, mu's by its
invariants law.  A map reads them through `TernaryCarrier.generators`,
which decides those laws on first read, so its route depends only on the
tables, not on which checks ran before.
"""

import functools
import json
import math
import os

import numpy as np

# Exhaustive O(n^5) checks are size-gated; the built-in exhibits fit in 32.
DEFAULT_CHECK_LIMIT = 32
# The largest carrier given dense tables: builders refuse larger ones, and
# so do the O(n^3) checks of fields and rings.
_TABLE_LIMIT = 512
# Entries in a block of the O(n^5) scans and in a chunk of the O(n^3)
# invariants: each array they hold at once stays about a MiB.
_BLOCK_ENTRIES = 2 ** 18

FOREIGN = -1  # table entry for a result that falls outside the carrier


def kernel_backend():
    """Name of the scan backend; the scans are NumPy only."""
    return "numpy"


def check_limit(limit=None):
    """Resolve the exhaustive-check size gate (TERNARY_MAX_CARRIER overrides)."""
    if limit is not None:
        return int(limit)
    env = os.environ.get("TERNARY_MAX_CARRIER")
    try:
        return int(env) if env else DEFAULT_CHECK_LIMIT
    except ValueError:
        raise CarrierSizeError(f"TERNARY_MAX_CARRIER={env!r} is not an integer") from None


class StructureError(ValueError):
    """An algebraic invariant failed during construction or lookup."""


class CarrierSizeError(ValueError):
    """Carrier exceeds the size gate for an exhaustive check."""


def _refuse_size(size, limit, message):
    """Raise CarrierSizeError when size > limit, with `message` formatted on
    the size and the limit.  A size too long for Python's int-to-str
    conversion is written as a power of two."""
    if size > limit:
        try:
            text = str(size)
        except ValueError:
            e = size.bit_length() - 1
            text = f"2^{e}" if size == 1 << e else f"more than 2^{e}"
        raise CarrierSizeError(message.format(size=text, limit=limit))


class Verdict:
    """Outcome of an axiom check; falsy iff some axiom failed.

    axiom: short name of the first failing axiom, witness: the least
    counterexample tuple (element indices), detail: human-readable account,
    method: how the verdict was reached -- "cheap" (an O(n^3) invariant),
    "certificate" (an exact O(n^3) sufficient condition) or "scan" (the
    exhaustive O(n^5) scan).
    """

    __slots__ = ("ok", "axiom", "witness", "detail", "method")

    def __init__(self, ok, axiom=None, witness=None, detail=None, method=None):
        self.ok = bool(ok)
        self.axiom = axiom
        self.witness = witness
        self.detail = detail
        self.method = method

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(pass)"
        return f"Verdict(fail: {self.axiom} at {self.witness}: {self.detail})"


def _table(data, shape, what, least=FOREIGN, exact=False):
    """A read-only int32 table of the given shape whose entries lie in
    [least, n), n = shape[0]; StructureError otherwise.  Entries are
    range-checked before the cast, and floats must be integral, so no entry
    is truncated or wrapped into range.  Data of the right size is reshaped
    (a flat table is read row by row), unless `exact` asks for the shape
    itself."""
    try:
        arr = np.asarray(data)
    except ValueError:                       # nested rows of different lengths
        raise StructureError(f"{what} table is ragged: its rows differ in length") from None
    if arr.dtype.kind not in "biuf" or (arr.dtype.kind == "f" and arr.size
                                        and not (np.floor(arr) == arr).all()):
        raise StructureError(f"{what} table entries must be integers")
    if arr.size != math.prod(shape):
        raise StructureError(f"{what} table must have shape {shape}: got {arr.size} entries")
    if exact and arr.size and arr.shape != tuple(shape):
        raise StructureError(f"{what} table must have shape {shape}: got shape {arr.shape}")
    n = shape[0]
    if arr.size and (arr.max() >= n or arr.min() < least):
        raise StructureError(f"{what} table entries must lie in [{least}, {n})")
    arr = np.ascontiguousarray(arr, dtype=np.int32).reshape(shape)
    arr.setflags(write=False)
    return arr


class TernaryCarrier:
    """Finite ordered carrier with table-backed operations.

    labels: element names in canonical order.
    nu: (n,n,n) index table for the ternary addition.
    mu: optional index table for the multiplication, with `product_axes`
    axes: (n,n), binary, on this class.
    FOREIGN (-1) entries mark results outside the carrier, reported as "?".

    A carrier is dense, given the cube nu, or retract-born
    (`from_retract`), given the retract (o, k) whose coset form is nu.  A
    retract-born carrier builds its cube `nu` only when something reads it;
    `nu_of` reads nu from (o, k) on it and from the cube otherwise, and its
    certificate is the group checks on o alone.
    """

    product_axes = 2
    _born_from = None       # the retract (o, k) of a retract-born carrier

    def __init__(self, labels, nu, mu=None):
        self._label(labels)
        self.nu = _table(nu, (self.n, self.n, self.n), "nu")
        self.mu = None if mu is None else _table(mu, (self.n,) * self.product_axes, "mu")

    @classmethod
    def from_retract(cls, labels, o, k, mu):
        """The carrier whose nu is the coset form ((x o y) o z) o k of the
        retract (o, k): o an (n,n) table with entries in the carrier, k an
        element.  It holds o and k, n^2 entries, and builds the cube nu on
        its first read; every builder, sub-carrier and quotient is made so."""
        carrier = cls.__new__(cls)
        carrier._label(labels)
        n = carrier.n
        if not 0 <= k < n:
            raise StructureError(f"k = {k} is not an element of the {n}-element carrier")
        carrier._born_from = _table(o, (n, n), "retract", 0), int(k)
        carrier.mu = _table(mu, (n,) * cls.product_axes, "mu")
        return carrier

    def _label(self, labels):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        if self.n < 1:
            raise StructureError("carrier must have at least one element")
        if len(set(self.labels)) != self.n:
            raise StructureError("carrier labels must be distinct")
        self._verdicts = {}             # cheap law -> Verdict or None, see _first_failure

    @functools.cached_property
    def nu(self):
        """The (n,n,n) table of a retract-born carrier, its retract's coset
        form, built on first read and read-only (a dense carrier's nu is set
        when it is made)."""
        nu = self._form[self._born_from[0]]
        nu.setflags(write=False)
        return nu

    @functools.cached_property
    def _form(self):
        """F = `_coset_form(o, k)` of a retract-born carrier: nu is F[o]."""
        return _coset_form(*self._born_from)

    def nu_of(self, x, y=slice(None), z=slice(None)):
        """nu[x, y, z], for indices or index arrays broadcast together; x may
        also be a slice of first arguments, and y and z default to whole
        axes, so nu_of(rows) is nu[rows].  A retract-born carrier reads it
        as F[x o y, z] from its (o, k), with no cube built; a dense one
        reads the cube.  Every consumer of nu reads it here, except
        `to_json` and the routes a builder's valid carrier never takes,
        which read the cube: the certificate of a cube, the walks that name
        a failure, the O(n^5) scans and the target of an unproven map."""
        if self._born_from is None:
            return self.nu[x, y, z]
        xy = self._born_from[0][x, y]
        if (isinstance(z, np.ndarray) and 1 <= z.ndim <= xy.ndim and xy.shape[-1] == 1
                and z.size == z.shape[-1]):
            # a grid whose last axis is z's alone, as np.ix_ makes it: rows
            # of F[:, z] taken whole, several times faster than a gather
            # of every cell
            return np.take(self._form[:, z.ravel()], xy[..., 0], axis=0)
        return self._form[xy, z]

    @functools.cached_property
    def _certificate(self):
        """(o, k, generators of o) when nu's retract is certified, else None.
        A retract-born carrier's nu is the coset form of its (o, k), so the
        group checks on o decide it (`_retract_certificate`); a dense one,
        or one whose o fails them, is decided on the cube by
        `_coset_retract`, which names the same retract whichever carrier
        holds the tables.  The tables are read-only, so it is decided once
        per carrier."""
        if self._born_from is not None:
            cert = _retract_certificate(*self._born_from)
            if cert is not None:
                return cert
        return _coset_retract(self.nu)

    @functools.cached_property
    def retract(self):
        """The certified retract (o, k) of nu, or None."""
        cert = self._certificate
        return None if cert is None else cert[:2]

    @functools.cached_property
    def retract_generators(self):
        """The index array generating the certified retract's o on which
        the certificate ran Light's test (`_generators`)."""
        return self._certificate[2]

    @functools.cached_property
    def mu_generators(self):
        """An index array generating the closed binary mu (`_generators`),
        on which the "mu invariants" law runs Light's test."""
        return np.array(_generators(self.mu))

    @functools.cached_property
    def unit(self):
        """The two-sided identity of a binary mu, or None: see `_identity`."""
        return _identity(self.mu) if self.mu is not None and self.mu.ndim == 2 else None

    @functools.cached_property
    def generators(self):
        """(generators of o, generators of mu), the sets the certificate and
        the "mu invariants" law ran Light's test on, when nu's retract (o, k)
        is certified and mu is binary, closed, associative and unital, else
        None; a map of such carriers is a morphism when it is one on these
        sets.  Decided on first read, from the laws the carrier caches."""
        if (self.mu is None or self.mu.ndim != 2 or self.retract is None
                or _first_failure(self, "mu closure", "mu invariants") is not None
                or self.unit is None):
            return None
        return self.retract_generators, self.mu_generators

    def index(self, lab):
        try:
            return self.labels.index(lab)
        except ValueError:
            raise StructureError(f"no element labeled {lab!r}") from None

    def label(self, i):
        return self.labels[i]

    def to_json(self, one=None):
        doc = {
            "elements": list(self.labels),
            "nu": [int(v) for v in self.nu.reshape(-1)],
            "mu": None if self.mu is None else [int(v) for v in self.mu.reshape(-1)],
            "one": one,
        }
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(doc["elements"], doc["nu"], doc.get("mu"))

    def __repr__(self):
        return f"TernaryCarrier({self.n} elements)"


def _least(mask):
    """Index tuple of the first True entry of a boolean array, row-major."""
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(mask)), mask.shape))


def _positions(subset, n):
    """The position in `subset` of each of n elements, FOREIGN outside it:
    indexing it with a table gathered over the subset renumbers the table."""
    back = np.full(n, FOREIGN, dtype=np.int32)
    back[subset] = np.arange(len(subset), dtype=np.int32)
    return back


def _closed(o, k, mu):
    """Whether the tables of `FiniteThreeField._restriction` stay in its subset."""
    return FOREIGN not in (k, o.min(), mu.min())


def _closure(table, labels, opname):
    """Closure of an operation table: a failing Verdict at the least entry
    that leaves the carrier, or None when the table is closed."""
    if table.min() >= 0:               # no n^3 mask for a closed table
        return None
    idx = _least(table < 0)
    args = ",".join(labels[v] for v in idx)
    return Verdict(False, "closure", idx,
                   f"{opname}({args}) = ? not in carrier", method="cheap")


def _first_violation(n, width, bad):
    """Least row-major index where the mask `bad(rows)` is True, or None.
    `rows` walks slices of about _BLOCK_ENTRIES // `width` first indices in
    order, so the first chunk with a violation holds the least one."""
    step = max(1, _BLOCK_ENTRIES // width)
    for start in range(0, n, step):
        mask = bad(slice(start, start + step))
        if mask.any():
            first, *rest = _least(mask)
            return (start + first, *rest)
    return None


def _map_violation(m, src, *image):
    """Least argument tuple x, row-major, where m(src(x)) != image(m(x)), or
    None: whether the map m (an image index per element) carries the table
    src onto `image`.  src is a table, or a reader of one's rows such as
    `TernaryCarrier.nu_of`, which then builds no cube.  `image` is one
    target table, or tables nested on the left, so that (add, add) is the
    ternary sum add(add(a, b), c).  Chunks as in `_first_violation`; per
    chunk the image is t[m[rows]], then m taken along each further axis."""
    m = np.asarray(m, dtype=np.int32)
    read = src if callable(src) else src.__getitem__

    def bad(rows):
        out = m[rows]
        for t in image:
            out = t[out]
            for axis in range(out.ndim - t.ndim + 1, out.ndim):
                out = np.take(out, m, axis=axis)
        return m[read(rows)] != out
    return _first_violation(len(m), read(0).size, bad)


def _assoc_violation(t):
    """Least (i, j, k) where closed binary t is not associative, or None."""
    n = len(t)

    def bad(rows):                      # [i,j,k] -> t[t[i,j],k] != t[i,t[j,k]]
        part = t[rows]
        # t[i,t[j,k]] by np.take: part[:, t] has its first axis innermost in
        # memory, which makes the comparison several times slower
        return t[part] != np.take(part, t.ravel(), axis=1).reshape(-1, n, n)
    return _first_violation(n, n * n, bad)


def _generators(t):
    """A generating set of the closed binary table t: each next generator
    is the first element, in the order 1, ..., n-1, 0, that is not yet a
    left-normed product (..((a1 a2) a3)..) of the earlier ones.  So every
    element is a left-normed product of the set, and the set generates t
    as a magma, and as a semigroup when t is associative.  Index 0, the
    identity of every certified retract o (and of mu where the unit is 0),
    comes last, so it is taken only when nothing else reaches it.  Each element is reached once and
    then multiplied by every generator once, O(n |A|) table reads; on a
    group |A| <= 1 + log2 n, as each generator after the first at least
    doubles the subgroup, and |A| <= log2 n when the identity is 0 and
    n > 1, as the first generator is then not the identity."""
    read = t.item
    reached = bytearray(len(t))
    gens = []
    for a in (*range(1, len(t)), 0):
        if reached[a]:
            continue
        gens.append(a)
        # the new products: a, and every earlier product times a, closed
        # under multiplication by every generator
        todo = [a] + [read(p, a) for p in range(len(t)) if reached[p]]
        while todo:
            x = todo.pop()
            if not reached[x]:
                reached[x] = 1
                todo.extend(read(x, g) for g in gens)
    return gens


def _light_associative(t, gens):
    """Light's test: whether (x a) y == x (a y) for all x, y and every a in
    the index array gens, t closed and binary.  The elements a that pass
    are closed under products, so when gens generates t as a magma
    (`_generators`) this is the associativity of t, in O(n^2 |A|) instead
    of O(n^3).  Generators are taken in chunks of about _BLOCK_ENTRIES
    entries."""
    step = max(1, _BLOCK_ENTRIES // t.size)
    return all((t[t[:, a]] == t[:, t[a]]).all()          # [x, a, y]
               for a in (gens[i:i + step] for i in range(0, len(gens), step)))


def _carries_on(m, src, gens, image):
    """Whether m(src(x, a)) == image(m(x), m(a)) for every x and every a in
    gens: the map law of `_map_violation`, for binary tables, on generators
    only.  m is one map (an image index per element) or a stack of them,
    one per column, taken in chunks of about _BLOCK_ENTRIES entries.  A map
    of groups that passes on a generating set is a homomorphism, the
    elements a that pass being closed under the product."""
    args = src[:, gens]
    step = max(1, _BLOCK_ENTRIES // args.size)
    if m.ndim == 2 and m.shape[1] > step:
        return all(_carries_on(m[:, i:i + step], src, gens, image)
                   for i in range(0, m.shape[1], step))
    return bool((m[args] == image[m[:, None], m[gens][None]]).all())


def _affine_on(m, retract, gens, o, k, zero=0):
    """Whether the map m carries nu = x+y+z+k' over the certified source
    retract (o', k') onto x+y+z+k over the abelian group o with identity
    `zero`, given that gens generates o': with c = m(0), g = m - c must be
    additive on gens with g(k') = c+c+k.  m is one map or a stack of them,
    one per column, as in `_carries_on`: O(n |A|) per map."""
    src, k_src = retract
    c = m[0]
    g = o[m, (o[c] == zero).argmax(axis=-1)]            # g(x) = m(x) - c
    return bool((g[k_src] == o[o[c, c], k]).all()) and _carries_on(g, src, gens, o)


def _translations(mu):
    """Every translation of the product mu, one map per column: x in each
    argument place in turn, the others fixed (n or n^2 maps per place)."""
    return np.concatenate([mu.swapaxes(0, a).reshape(len(mu), -1)
                           for a in range(mu.ndim)], axis=1)


def _nonperm_row(t):
    """Least index of a row t[i, ..., :] that is no permutation of range(n), or None."""
    idx = np.arange(len(t), dtype=t.dtype)
    return _first_violation(len(t), t[0].size,
                            lambda rows: (np.sort(t[rows], axis=-1) != idx).any(axis=-1))


def _identity(t):
    """The two-sided identity of the binary table t (there is at most one), or None."""
    idx = np.arange(len(t), dtype=t.dtype)
    e = np.flatnonzero((t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0))
    return int(e[0]) if e.size else None


def _element_orders(t, e):
    """The order of each element of the group table t with identity e, the
    least m >= 1 with x^m = e: every x^m at once, one gather of n entries
    per round, for as many rounds as the largest order (at most n)."""
    n = len(t)
    step = t.copy()
    step[e] = e                                 # a power that reaches e stays
    orders = np.ones(n, dtype=np.int64)
    power = idx = np.arange(n)
    for _ in range(n):
        alive = power != e
        if not alive.any():
            break
        orders += alive
        power = step[power, idx]                # x^(m+1) = x^m x
    return orders


def _nu_invariants(nu, labels):
    """Commutativity, then unique solvability of nu(a,b,x) = c, for a closed
    nu: the first failing Verdict at its least witness, or None."""
    n = len(nu)
    # all argument permutations: two transpositions generate S3
    w = _first_violation(n, n * n, lambda rows: (nu[rows] != nu[:, rows].transpose(1, 0, 2))
                         | (nu[rows] != nu[rows].transpose(0, 2, 1)))
    if w is not None:
        i, j, k = w
        return Verdict(False, "commutativity", w,
                       f"nu is not symmetric at ({labels[i]},{labels[j]},{labels[k]})",
                       method="cheap")
    w = _nonperm_row(nu)
    if w is not None:
        a, b = w
        return Verdict(False, "solvability", w, f"nu({labels[a]},{labels[b]},x) does "
                       "not reach every element exactly once", method="cheap")
    return None


def _mu_invariants(mu, labels):
    """Associativity of a closed binary mu: the failing Verdict at the least
    witness, or None."""
    w = _assoc_violation(mu)
    if w is not None:
        i, j, k = w
        return Verdict(False, "mu-associativity", w,
                       f"mu is not associative at ({labels[i]},{labels[j]},{labels[k]})",
                       method="cheap")
    return None


# The cheap laws of a carrier, each a failing Verdict at its least witness
# or None.  An invariant assumes its table closed; a ternary mu has no mu
# invariants.  The invariants pass by the certified retract and by Light's
# test; only a failure walks the table, to name its least witness.
_CHEAP_LAWS = {
    "nu closure": lambda c: (None if c._born_from is not None       # o is closed
                             else _closure(c.nu, c.labels, "nu")),
    "mu closure": lambda c: _closure(c.mu, c.labels, "mu"),
    "nu invariants": lambda c: (None if c.retract is not None
                                else _nu_invariants(c.nu, c.labels)),
    "mu invariants": lambda c: (None if c.mu.ndim == 3
                                or _light_associative(c.mu, c.mu_generators)
                                else _mu_invariants(c.mu, c.labels)),
}


def _require(v, what=None):
    """StructureError with a failing Verdict's detail, after "what: " if given."""
    if v is not None and not v:
        raise StructureError(v.detail if what is None else f"{what}: {v.detail}")


def _first_failure(carrier, *laws):
    """The first failing Verdict of the named cheap laws, in the given
    order, or None.  The tables are read-only, so each law is decided once
    per carrier and its verdict kept on it."""
    for law in laws:
        if law not in carrier._verdicts:
            carrier._verdicts[law] = _CHEAP_LAWS[law](carrier)
        if carrier._verdicts[law] is not None:
            return carrier._verdicts[law]
    return None


def _ternary_units(t):
    """Indices e with t(e,e,x) = x for all x, ascending: the units of a
    ternary product."""
    idx = np.arange(len(t), dtype=t.dtype)
    return np.flatnonzero((t[idx, idx] == idx).all(axis=1)).tolist()   # [e,x] -> t(e,e,x)


def _zero_element(c, unit):
    """The least z other than `unit` that is additively neutral
    (nu(z,z,x) = x) and absorbs the ternary product of the carrier's closed
    mu, or None.  The neutral elements are read from the n^2 entries
    nu(z,z,x) (`TernaryCarrier.nu_of`), and row z of a binary mu's product
    mu(mu(x,y),z) as mu[mu[z]], so no n^3 cube is built."""
    mu, idx = c.mu, np.arange(c.n)
    neutral = np.flatnonzero((c.nu_of(idx[:, None], idx[:, None], idx) == idx).all(axis=1))
    return next((z for z in neutral.tolist() if z != unit
                 and ((mu[z] if mu.ndim == 3 else mu[mu[z]]) == z).all()), None)


def _retract_certificate(o, k):
    """Exact O(n^2 |A|) certificate that the retract (o, k) is an abelian
    group with identity 0: (o, k, A), A a generating set of o
    (`_generators`, an index array), or None when a check fails.  The
    checks, cheapest first: o is closed, has identity 0, is commutative
    and has 0 in every row (so every element has an inverse), all O(n^2);
    then o is associative by Light's test on A.  Then the coset form of
    (o, k) is a commutative ternary group (see `_coset_retract`), so this
    alone certifies a retract-born carrier, whose nu is that form."""
    if not (o.min() >= 0 and _identity(o) == 0 and (o == o.T).all()
            and (o == 0).any(axis=1).all()):
        return None
    gens = np.array(_generators(o))
    return (o, k, gens) if _light_associative(o, gens) else None


def _coset_retract(nu):
    """Exact O(n^3) certificate that the cube nu is x+y+z+k over an abelian
    group: (o, k, A), the retract (o, k) and a generating set A of o, or
    None when the check fails.

    o is x o y = nu(x, e, y), e the unique t having nu(0,0,t) = 0, and
    k = nu(0,0,0).  The check: the group checks on (o, k)
    (`_retract_certificate`), then nu(x,y,z) = ((x o y) o z) o k on the
    whole table (`_is_coset_form`).  Sufficient for total associativity:
    all three regroupings of nu(nu(a,b,c),d,e) equal
    a o b o c o d o e o k o k.  Sufficient too for the commutativity and
    unique solvability of nu, as the form is symmetric and z -> x+y+z+k is
    a bijection.  Passes on every commutative ternary group: by the
    Hosszu-Gluskin theorem nu(x,y,z) = x+y+z+k over the retract (G,+) at
    0, whose identity is 0 because e is the querelement of 0, and then
    x o y = x+y.  A retract-born carrier whose o passes the group checks
    needs no cube: its nu is the coset form of its (o, k), and this would
    read back that same retract.
    """
    sols = np.flatnonzero(nu[0, 0] == 0)
    if len(sols) != 1:
        return None
    o, k = np.ascontiguousarray(nu[:, int(sols[0]), :]), int(nu[0, 0, 0])
    o.setflags(write=False)                  # cached on the carrier
    # every value the form compares nu with comes from o, so a closed o
    # leaves no FOREIGN entry of nu unnoticed
    cert = _retract_certificate(o, k)
    return cert if cert is not None and _is_coset_form(nu, o, k) else None


def _coset_form(o, k):
    """The table F[a, z] = (a o z) o k of the coset form
    nu(x, y, z) = ((x o y) o z) o k of the retract (o, k): nu is F[o], and
    its rows x in `rows` are F[o[rows]].  The one place nu's form is
    written: a retract-born carrier reads nu from it
    (`TernaryCarrier.nu_of`) and builds its cube from it, and the
    certificate of a dense carrier reads it back (`_is_coset_form`)."""
    return o[o, k]


def _is_coset_form(nu, o, k):
    """Whether the cube nu is the coset form of (o, k) everywhere: one
    O(n^3) comparison in chunks, run only on a dense carrier (a
    retract-born one is that form by construction)."""
    n = len(o)
    form = _coset_form(o, k)
    return _first_violation(n, n * n, lambda rows: form[o[rows]] != nu[rows]) is None


def _distrib_certificate(carrier):
    """Sufficient condition for the three ternary distributivity laws of
    mu over nu = x+y+z+k, (o, k) the carrier's certified retract: every
    translation f of mu is affine for o, by `_affine_on` on o's generators
    A, O(n^2 |A|) for a binary mu.  With c = f(0) and g = f - c additive,
    g(k) = c+c+k gives f(x+y+z+k) = g(x)+g(y)+g(z)+(c+c+k)+c
    = f(x)+f(y)+f(z)+k, and every endomorphism of nu has this form (put
    y = z = 0, then x = 0).  A ternary mu's laws say exactly that its
    translations are endomorphisms.  A binary mu's ternary product has
    their composites: law 1 is R_e R_d, law 2 is R_e L_a and law 3 is
    L_mu(a,b), and a field's unit makes every translation one.
    """
    r = carrier.retract
    return _affine_on(_translations(carrier.mu), r, carrier.retract_generators, *r)


def _scan_blocks(n):
    """(a, b0, b1, c0, c1) for each block of the O(n^5) scans: the (a, b, c)
    triples with b0 <= b < b1 and c0 <= c < c1, consecutive in row-major
    order.  Blocks are counted in triples, up to cap = max(1, _BLOCK_ENTRIES
    // n^2): the first is one triple and each next one twice as many.  A
    block smaller than a pair is a range of c inside one pair, the last one
    cut at the pair's end; a pair cut so counts as one block of n triples.
    A block of n triples or more is a run of whole pairs inside one a.  So
    an early witness costs one (n, n) slab, and a passing scan soon runs on
    cache-sized blocks of whole pairs where n^3 fits the budget."""
    cap = max(1, _BLOCK_ENTRIES // n ** 2)
    r = 1
    for a in range(n):
        b = 0
        while b < n:
            if r < n:
                c = 0
                while c < n:
                    c1 = min(n, c + r)
                    yield a, b, b + 1, c, c1
                    c, r = c1, min(2 * r, cap)
                b, r = b + 1, min(2 * n, cap)
            else:
                b1 = min(n, b + r // n)
                yield a, b, b1, 0, n
                b, r = b1, min(2 * r, cap)


def _assoc_scan(t):
    """First (a,b,c,d,e), row-major, where the three regroupings of the
    ternary operation t disagree, or None if t is totally associative.

    The quintuples are compared in the blocks of `_scan_blocks`, each an
    (rb,rc,n,n) array over (b,c,d,e) read from the rectangle t[a, b0:b1,
    c0:c1]; the first block that holds a violation holds the least one,
    and no array is larger than a block."""
    for a, b0, b1, c0, c1 in _scan_blocks(len(t)):
        ta = t[a]
        tb = ta[b0:b1]
        v1 = np.take(t, tb[:, c0:c1], axis=0)         # [b,c,d,e] = t[t[a,b,c],d,e]
        v2 = np.take(ta, t[b0:b1, c0:c1], axis=0)     # [b,c,d,e] = t[a,t[b,c,d],e]
        v3 = np.take(tb, t[c0:c1], axis=1)            # [b,c,d,e] = t[a,b,t[c,d,e]]
        if not (np.array_equal(v1, v2) and np.array_equal(v1, v3)):
            b, c, d, e = _least((v1 != v2) | (v1 != v3))
            return (a, b0 + b, c0 + c, d, e)
    return None


def _distrib_scan(s, m):
    """First (law, a, b, c, d, e) violating a ternary distributivity law of
    m over s, or None; quintuples row-major, laws 1, 2, 3 at each:

    law 1: m(s(a,b,c), d, e) = s(m(a,d,e), m(b,d,e), m(c,d,e))
    law 2: m(a, s(b,c,d), e) = s(m(a,b,e), m(a,c,e), m(a,d,e))
    law 3: m(a, b, s(c,d,e)) = s(m(a,b,c), m(a,b,d), m(a,b,e))

    Blocks as in `_assoc_scan`.  The right-hand sides are read from the
    flattened s at x*n^2 + y*n + z, with the terms that depend only on a
    and the range of c summed once per (a, c0, c1), so once per a on blocks
    of whole pairs.  Those indices are int32 like the tables: `_gate` keeps
    n at most _TABLE_LIMIT, so n^3 stays below 2^31.
    """
    n = len(s)
    flat = s.ravel()
    key = None
    for a, b0, b1, c0, c1 in _scan_blocks(n):
        if key != (a, c0, c1):
            key = a, c0, c1
            ma = m[a]
            ma1 = ma * n
            ma2 = ma1 * n
            p1 = ma2 + m[c0:c1]                            # [c,d,e] -> m(a,d,e) n^2 + m(c,d,e)
            p2 = ma1[c0:c1, None, :] + ma[None, :, :]      # [c,d,e] -> m(a,c,e) n + m(a,d,e)
        mb = ma[b0:b1]
        lhs1 = np.take(m, s[a, b0:b1, c0:c1], axis=0)
        rhs1 = np.take(flat, p1 + m[b0:b1, None] * n)
        lhs2 = np.take(ma, s[b0:b1, c0:c1], axis=0)
        rhs2 = np.take(flat, p2 + ma2[b0:b1, None, None, :])
        lhs3 = np.take(mb, s[c0:c1], axis=1)
        rhs3 = np.take(flat, (ma2[b0:b1, c0:c1, None] + ma1[b0:b1, None, :])[..., None]
                       + mb[:, None, None, :])
        if not (np.array_equal(lhs1, rhs1) and np.array_equal(lhs2, rhs2)
                and np.array_equal(lhs3, rhs3)):
            bad1, bad2 = lhs1 != rhs1, lhs2 != rhs2
            w = _least(bad1 | bad2 | (lhs3 != rhs3))
            law = 1 if bad1[w] else 2 if bad2[w] else 3
            return (law, a, b0 + w[0], c0 + w[1], *w[2:])
    return None


def _gate(n, limit):
    """Raise CarrierSizeError unless an n-element carrier may be decided:
    the O(n^3) guard, then the exhaustive-check gate."""
    _refuse_size(n, _TABLE_LIMIT, "carrier size {size} exceeds the O(n^3) guard")
    gate = check_limit(limit)
    if n > gate:
        raise CarrierSizeError(
            f"carrier size {n} exceeds the exhaustive-check gate {gate} "
            "(raise it via the limit argument or TERNARY_MAX_CARRIER)")


def check_ternary_group(carrier, limit=None):
    """Verify the additive axioms: closure, full commutativity, unique
    solvability of nu(a,b,x)=c, and total associativity (checked in that
    order, cheapest first).  Returns a Verdict with the least witness.

    Associativity is decided by the carrier's certified retract when it
    has one, and by the O(n^5) scan otherwise.  The invariants of nu pass
    by the same retract, so a carrier whose invariants passed has it
    already."""
    v = _first_failure(carrier, "nu closure", "nu invariants")
    if v is not None:
        return v
    _gate(carrier.n, limit)
    if carrier.retract is not None:
        return Verdict(True, method="certificate")
    w = _assoc_scan(carrier.nu)
    if w is not None:
        return Verdict(False, "associativity", w, "the regroupings of nu disagree "
                       f"at ({','.join(carrier.labels[v] for v in w)})", method="scan")
    return Verdict(True, method="scan")


def check_distributivity(carrier, limit=None):
    """Verify multiplication: closure, associativity, and the three ternary
    distributivity laws over nu, of a binary mu (derived ternary product)
    or a genuinely ternary one (ProperThreeThreeField).

    The laws are decided by `_distrib_certificate` (mu's translations
    affine on the retract's generators) when the carrier has a certified
    retract and it passes, and by the O(n^5) scan otherwise."""
    v = _first_failure(carrier, "nu closure")
    if v is not None:
        return v
    mu = carrier.mu
    if mu is None:
        raise StructureError("carrier has no multiplication to check")
    v = _first_failure(carrier, "mu closure", "mu invariants")
    if v is not None:
        return v
    _gate(carrier.n, limit)
    if carrier.retract is not None and _distrib_certificate(carrier):
        return Verdict(True, method="certificate")
    w = _distrib_scan(carrier.nu, mu if mu.ndim == 3 else mu[mu])   # [i,j,k] -> mu[mu[i,j],k]
    if w is not None:
        law, *abcde = w
        return Verdict(False, f"distributivity-law-{law}", tuple(abcde), f"law {law} "
                       f"fails at ({','.join(carrier.labels[v] for v in abcde)})",
                       method="scan")
    return Verdict(True, method="scan")


def quer_add(carrier, x):
    """The additive querelement: unique t with nu(x,x,t) = x."""
    row = carrier.nu_of(x, x)
    sols = np.flatnonzero(row == x)
    if len(sols) != 1:
        raise StructureError(
            f"nu({carrier.labels[x]},{carrier.labels[x]},t)={carrier.labels[x]} "
            f"has {len(sols)} solutions; not a ternary group")
    return int(sols[0])


def detect_derived_structure(obj):
    """Report a multiplicative unit and/or a zero element, if present.

    The unit of a binary-backed carrier is the (unique) two-sided identity of
    mu; for a genuinely ternary product, any e with mu(e,e,x)=x qualifies and
    the least one is reported.  A zero must be additively neutral
    (nu(z,z,x)=x for all x), multiplicatively absorbing (ternary product
    mu(z,x,y)=z for all x,y), and distinct from the unit; a carrier with
    such a zero has operations derived from ordinary binary ones.
    """
    mu = obj.mu
    if mu is None or mu.min() < 0:
        return {"unit": None, "zero": None}
    if mu.ndim == 3:
        units = _ternary_units(mu)
        unit = units[0] if units else None
    else:
        unit = obj.unit
    return {"unit": unit, "zero": _zero_element(obj, unit)}


class FiniteThreeField:
    """Finite unital 3-field: a carrier whose multiplication is a group with
    identity `one` and whose ternary addition has no zero element.

    check: "auto" decides the axioms when the carrier is within the gate
    `check_limit()` and skips that above it (the checkers' `limit=` decides
    them at any size), "light" runs only the cheap invariants, False raises
    nothing at construction; any other value raises ValueError.  The cheap invariants
    pass by the certified retract of nu and Light's test on mu.  Whatever
    `check` was, the carrier decides those laws once, when they are first
    read, so maps of fields that satisfy them are decided on generators.
    """

    algebra = None      # a quotient field's QuotientAlgebra, set by its builder

    def __init__(self, carrier, one, origin=None, check="auto"):
        if not (check is False or check in ("light", "auto")):
            raise ValueError(f"check must be False, 'light' or 'auto', not {check!r}")
        self.carrier = carrier
        self.one = int(one)
        self.origin = dict(origin) if origin else {}
        if not (0 <= self.one < carrier.n):
            raise StructureError("unit index out of range")
        if check:
            self._validate(check)

    # -- table access -------------------------------------------------------

    @property
    def n(self):
        return self.carrier.n

    @property
    def labels(self):
        return self.carrier.labels

    def nu(self, i, j, k):
        return int(self.carrier.nu_of(i, j, k))

    def mu(self, i, j):
        return int(self.carrier.mu[i, j])

    def label(self, i):
        return self.carrier.labels[i]

    def index(self, lab):
        return self.carrier.index(lab)

    def elements(self):
        return range(self.carrier.n)

    def inv(self, i):
        return int(self._inv[i])

    def quer(self, i):
        return quer_add(self.carrier, i)

    # -- invariants ----------------------------------------------------------

    @functools.cached_property
    def _inv(self):
        """The two-sided inverse of every element: StructureError when some
        element has none, raised at construction unless check is False."""
        mu = self.carrier.mu
        n = self.carrier.n
        pos = mu == self.one
        if not pos.any(axis=1).all():
            x = int(np.argmax(~pos.any(axis=1)))
            raise StructureError(f"element {self.labels[x]} has no right inverse")
        inv = np.argmax(pos, axis=1)
        if not (mu[inv, np.arange(n)] == self.one).all():
            x = int(np.argmax(mu[inv, np.arange(n)] != self.one))
            raise StructureError(f"element {self.labels[x]} has no two-sided inverse")
        return inv

    def _validate(self, check):
        c = self.carrier
        if c.mu is None or c.mu.ndim != 2:
            raise StructureError("a 3-field needs a binary multiplication")
        _require(_first_failure(c, "nu closure", "mu closure"), "field operations must be closed")
        if c.unit != self.one:
            raise StructureError(f"{self.label(self.one)} is not a two-sided unit")
        self._inv                       # raises unless every element has an inverse
        _require(_first_failure(c, "nu invariants", "mu invariants"))
        # no zero check: with a two-sided unit, inverses and an associative
        # mu, mu(mu(z,1),z^-1) = 1, so no z other than the unit absorbs tmu
        if check == "light" or c.n > check_limit():
            return
        _require(check_ternary_group(c), "additive axioms fail")
        _require(check_distributivity(c), "distributivity fails")

    # -- derived views -------------------------------------------------------

    def _indices(self, indices, what="index"):
        """The indices as an index array, refused unless each is an element."""
        s = np.array([int(i) for i in indices], dtype=np.intp)
        bad = s[(s < 0) | (s >= self.n)]
        if bad.size:
            raise StructureError(f"{what} {bad[0]} is not an element of the {self.n}-element field")
        return s

    def _restriction(self, reps, pos):
        """The retract (o, k) of nu re-based at b = reps[0], and mu, read on
        `reps` and renumbered by `pos` (a position per element, FOREIGN
        outside): x o y = nu(x, quer(b), y) and k = nu(b, b, b).  As nu is
        x+y+z+k over its certified retract (`_coset_retract`), its coset form
        is nu on `reps`, and `reps` is closed under nu iff o and k stay in it
        (`_closed`).  O(m^2) reads and no cube; needs a certified retract."""
        c = self.carrier
        if c.retract is None:
            raise StructureError("a restriction needs a certified retract of nu")
        b = int(reps[0])
        o = pos[c.nu_of(reps[:, None], quer_add(c, b), reps)]
        return o, int(pos[c.nu_of(b, b, b)]), pos[c.mu[np.ix_(reps, reps)]]

    def subset_carrier(self, indices):
        """The carrier of a subset closed under nu and mu, in the given order,
        born from the retract at its first element (`_restriction`)."""
        s = self._indices(indices)
        if not len(s):
            raise StructureError("carrier must have at least one element")
        o, k, mu = self._restriction(s, _positions(s, self.n))
        if not _closed(o, k, mu):
            raise StructureError("the subset is not closed under nu and mu")
        return TernaryCarrier.from_retract([self.label(g) for g in s], o, k, mu)

    def is_subfield(self, indices):
        """Whether the subset holds the unit and its inverses and is closed
        under mu and nu, decided on its tables from `_restriction`."""
        s = np.unique(self._indices(indices))
        pos = _positions(s, self.n)
        return (self.one in s and FOREIGN not in pos[self._inv[s]]
                and _closed(*self._restriction(s, pos)))

    def to_json(self):
        doc = self.carrier.to_json(one=self.one)
        if self.origin:
            doc["origin"] = self.origin
        return doc

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    def __repr__(self):
        kind = self.origin.get("kind", "table")
        return f"FiniteThreeField({self.n} elements, {kind})"


class ProperThreeThreeField(TernaryCarrier):
    """(3,3)-field with a genuinely ternary multiplication and no unit: a
    carrier whose mu is the (n,n,n) product table.  Validated when built,
    under the default gate: the total associativity of mu by mu's own coset
    retract (`_coset_retract`), with the O(n^5) scan only when that fails,
    and distributivity by mu's 3n^2 translations on o's generators."""

    product_axes = 3

    def __init__(self, labels, nu, mu):
        super().__init__(labels, nu, mu)
        if self.mu is None:
            raise StructureError("a proper (3,3)-field needs a ternary multiplication")
        _require(_first_failure(self, "nu closure", "mu closure"), "operations must be closed")
        _require(check_ternary_group(self), "additive axioms fail")
        units = _ternary_units(self.mu)
        if units:
            raise StructureError(f"multiplicative unit {self.labels[units[0]]} found; "
                                 "not a proper (3,3)-field")
        w = None if _coset_retract(self.mu) is not None else _assoc_scan(self.mu)
        if w is not None:
            raise StructureError(f"ternary multiplication not associative at {w}")
        _require(check_distributivity(self), "distributivity fails")

    def __repr__(self):
        return f"ProperThreeThreeField({self.n} elements)"


def twisted_coset(field, subfield_indices, t):
    """The coset t*F1 of a unital 3-subfield F1, for t outside F1 with t*t in
    F1: a proper (3,3)-field with inherited nu and the genuine ternary product.

    Raises StructureError if the preconditions fail, if the coset is not
    closed, or if the result has a multiplicative unit (properness).
    """
    f1 = sorted(int(i) for i in subfield_indices)
    t = int(field._indices([t])[0])
    if not field.is_subfield(f1):
        raise StructureError("given subset is not a unital 3-subfield")
    if t in f1:
        raise StructureError("t must lie outside the subfield")
    if field.mu(t, t) not in set(f1):
        raise StructureError("t*t must lie in the subfield")
    mu = field.carrier.mu
    coset = np.unique(mu[t, f1])
    full = field.carrier.nu_of(*np.ix_(coset, coset, coset))
    back = _positions(coset, field.n)
    # mu(mu(a,b),c) over the coset only, never the whole-field mu[mu] cube
    nu, tmu = back[full], back[mu[mu[np.ix_(coset, coset)][:, :, None], coset]]
    bad = (nu == FOREIGN) | (tmu == FOREIGN)
    if bad.any():
        w = _least(bad)
        a, b, c = (field.label(coset[i]) for i in w)
        if nu[w] == FOREIGN:
            raise StructureError(f"coset not closed under nu: "
                                 f"nu({a},{b},{c}) = {field.label(full[w])}")
        raise StructureError(
            f"coset not closed under the ternary product at ({a},{b},{c})")
    return ProperThreeThreeField([field.label(g) for g in coset], nu, tmu)


def odd_residue_field(modulus, check="auto"):
    """(Z/2^n Z)^odd: the odd residues mod a power of two, with ternary
    addition x+y+z and ordinary multiplication."""
    m = int(modulus)
    if m < 2 or m & (m - 1):
        raise StructureError("modulus must be a power of two, at least 2")
    _refuse_size(m // 2, _TABLE_LIMIT, "carrier of size {size} exceeds the build limit {limit}")
    # index i is the residue 2i+1: the retract at 1 is x + y - 1, index
    # i + j, with k = 1 + 1 + 1, index 1; and (2i+1)(2j+1) = 2((2i+1)j+i)+1
    n = m // 2
    i = np.arange(n, dtype=np.int32)
    o = np.remainder(i[:, None] + i, n)
    mu = (2 * i[:, None] + 1) * i + i[:, None]
    np.remainder(mu, n, out=mu)
    carrier = TernaryCarrier.from_retract([str(2 * v + 1) for v in range(n)], o, 1 % n, mu)
    return FiniteThreeField(carrier, 0, origin={"kind": "odd_residue", "modulus": m},
                            check=check)
