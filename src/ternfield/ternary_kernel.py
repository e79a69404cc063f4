"""Carriers for 3-rings/3-fields and exact verification of their axioms.

A carrier is a finite ordered set of elements (identified by index) together
with dense operation tables: a ternary addition nu and, usually, a binary
multiplication mu whose derived ternary product is mu(mu(x,y),z).  Tables are
immutable after construction and all verdicts are deterministic: every
failure reports the lexicographically least witness.

`check_ternary_group` and `check_distributivity` reach a verdict in four
steps, and the Verdict's `method` records which step decided it:

1. cheap invariants, O(n^3) or less: closure, commutativity and unique
   solvability of nu, associativity of mu ("cheap");
2. the size gate: carriers above `check_limit()` raise CarrierSizeError;
3. an exact O(n^3) certificate: by the Hosszu-Gluskin theorem a
   commutative ternary group is nu(x,y,z) = x+y+z+k over an abelian group.
   One certificate (`_coset_retract`) checks that form and yields the
   retract (o, k); it is computed once per carrier and cached as
   `TernaryCarrier.retract`, so both checkers share it.  For mu,
   `_distrib_certificate` then checks on that retract that every
   translation is affine; a passing certificate is a PASS ("certificate");
4. otherwise the O(n^5) scan, the only witness locator ("scan").  A
   certificate can fail on a table the scan passes, so a failed
   certificate decides nothing by itself.

Steps 2-4 are the "decision" (`_decide_associativity`,
`_decide_distributivity`, each taking the carrier).  `FiniteThreeField` and
`ProperThreeThreeField` (itself a carrier) validate themselves with the
same invariant and decision functions, so each invariant has one
implementation and runs once per construction.  The scans
walk the quintuples in row-major order, in blocks of consecutive (a, b)
pairs that grow from one pair to about _BLOCK_ENTRIES entries, so an early
witness costs one n^3 block and no array a scan allocates holds more than
max(n^3, _BLOCK_ENTRIES) entries.  Every other O(n^3) law check, here and
on ring and group tables, walks chunks of its first index of about
_BLOCK_ENTRIES entries (`_first_violation`), and so does every check that a
map carries one operation table onto another (`_map_violation`), so none
holds an n^3 cube.
"""

import functools
import json
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


def _refuse_size(size, limit, message, error=CarrierSizeError):
    """Raise `error` when size > limit, with `message` formatted on the
    size and the limit.  A size too long for Python's int-to-str conversion
    is written as a power of two."""
    if size > limit:
        try:
            text = str(size)
        except ValueError:
            e = size.bit_length() - 1
            text = f"2^{e}" if size == 1 << e else f"more than 2^{e}"
        raise error(message.format(size=text, limit=limit))


class Verdict:
    """Outcome of an axiom check; falsy iff some axiom failed.

    axiom: short name of the first failing axiom, witness: the least
    counterexample tuple (element indices), detail: human-readable account,
    method: how the verdict was reached -- "cheap" (an O(n^3) invariant),
    "certificate" (an exact O(n^3) sufficient condition) or "scan" (the
    exhaustive O(n^5) scan); not part of `as_dict`.
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

    def as_dict(self):
        return {
            "ok": self.ok,
            "axiom": self.axiom,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


def _table(data, shape, what, least=FOREIGN):
    """A read-only int32 table of the given shape whose entries lie in
    [least, n), n = shape[0]; StructureError otherwise."""
    arr = np.ascontiguousarray(data, dtype=np.int32).reshape(shape)
    n = shape[0]
    if arr.size and (arr.max() >= n or arr.min() < least):
        raise StructureError(f"{what} table entries must lie in [{least}, {n})")
    arr.setflags(write=False)
    return arr


class TernaryCarrier:
    """Finite ordered carrier with table-backed operations.

    labels: element names in canonical order.
    nu: (n,n,n) index table for the ternary addition.
    mu: optional (n,n) index table for the binary multiplication.
    Entries equal to FOREIGN (-1) mark results that leave the carrier; the
    *_foreign dicts map the offending argument tuples to a label of the
    outside value, for witness reporting.
    """

    def __init__(self, labels, nu, mu=None, nu_foreign=None, mu_foreign=None):
        self.labels = tuple(str(x) for x in labels)
        self.n = len(self.labels)
        if self.n < 1:
            raise StructureError("carrier must have at least one element")
        if len(set(self.labels)) != self.n:
            raise StructureError("carrier labels must be distinct")
        self.nu = _table(nu, (self.n, self.n, self.n), "nu")
        self.mu = None if mu is None else _table(mu, (self.n, self.n), "mu")
        self.nu_foreign = dict(nu_foreign or {})
        self.mu_foreign = dict(mu_foreign or {})

    @functools.cached_property
    def retract(self):
        """The certified retract (o, k) of nu, or None: see `_coset_retract`.
        The tables are read-only, so it is computed once per carrier."""
        return _coset_retract(self.nu)

    def derived_ternary_mu(self):
        """Dense table of the derived ternary product mu(mu(x,y),z)."""
        if self.mu is None:
            raise StructureError("carrier has no binary multiplication")
        if (self.mu < 0).any():
            raise StructureError("mu is not closed; no derived ternary product")
        return self.mu[self.mu]  # [i,j,k] -> mu[mu[i,j],k]

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
        labels = doc["elements"]
        n = len(labels)
        nu = np.asarray(doc["nu"], dtype=np.int32).reshape(n, n, n)
        mu = doc.get("mu")
        if mu is not None:
            mu = np.asarray(mu, dtype=np.int32).reshape(n, n)
        return cls(labels, nu, mu)

    def dumps(self, one=None):
        return json.dumps(self.to_json(one), indent=2, sort_keys=False)

    def __repr__(self):
        return f"TernaryCarrier({self.n} elements)"


def _least(mask):
    """Index tuple of the first True entry of a boolean array, row-major."""
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(mask)), mask.shape))


def _renumber(table, subset, n):
    """Positions in `subset` of the indices in `table`, a table of an
    n-element parent already gathered over the subset with np.ix_; FOREIGN
    where a result lies outside the subset."""
    back = np.full(n, FOREIGN, dtype=np.int32)
    back[subset] = np.arange(len(subset), dtype=np.int32)
    return back[table]


def _closure(table, foreign_map, labels, opname):
    """Closure of an operation table: a failing Verdict at the least entry
    that leaves the carrier, or None when the table is closed."""
    if table.min() >= 0:               # no n^3 mask for a closed table
        return None
    idx = _least(table < 0)
    outside = foreign_map.get(idx, "?")
    args = ",".join(labels[v] for v in idx)
    return Verdict(False, "closure", idx,
                   f"{opname}({args}) = {outside} not in carrier", method="cheap")


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
    src onto `image`.  `image` is one target table, or tables nested on the
    left, so that (add, add) is the ternary sum add(add(a, b), c).  Chunks
    as in `_first_violation`; per chunk the image is t[m[rows]], then m
    taken along each further axis."""
    m = np.asarray(m, dtype=np.int32)

    def bad(rows):
        out = m[rows]
        for t in image:
            out = t[out]
            for axis in range(out.ndim - t.ndim + 1, out.ndim):
                out = np.take(out, m, axis=axis)
        return m[src[rows]] != out
    return _first_violation(len(src), src[0].size, bad)


def _assoc_mask(t, rows):
    """[i,j,k] -> t[t[i,j],k] != t[i,t[j,k]] for i in `rows`, t closed and binary."""
    n = len(t)
    part = t[rows]
    # t[i,t[j,k]] by np.take: part[:, t] has its first axis innermost in
    # memory, which makes the comparison several times slower
    return t[part] != np.take(part, t.ravel(), axis=1).reshape(-1, n, n)


def _assoc_violation(t):
    """Least (i, j, k) where closed binary t is not associative, or None."""
    n = len(t)
    return _first_violation(n, n * n, lambda rows: _assoc_mask(t, rows))


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


def _ternary_units(t):
    """Indices e with t(e,e,x) = x for all x, ascending: the units of a
    ternary product, or the additively neutral elements of nu."""
    idx = np.arange(len(t), dtype=t.dtype)
    return np.flatnonzero((t[idx, idx] == idx).all(axis=1)).tolist()   # [e,x] -> t(e,e,x)


def _zero_element(nu, mul, unit):
    """The least z other than `unit` that is additively neutral
    (nu(z,z,x) = x) and absorbs the ternary product of mul, or None.  mul is
    a genuine (n,n,n) product or a binary mu, whose row z of mu(mu(x,y),z)
    is read as mu[mu[z]], so no n^3 cube is built."""
    return next((z for z in _ternary_units(nu) if z != unit
                 and ((mul[z] if mul.ndim == 3 else mul[mul[z]]) == z).all()), None)


def _coset_retract(nu):
    """Exact O(n^3) certificate that nu is x+y+z+k over an abelian group:
    the retract (o, k), or None when the check fails.

    o is x o y = nu(x, e, y), e the unique t having nu(0,0,t) = 0, and
    k = nu(0,0,0).  The check: o is closed and commutative, has identity 0,
    every row of o contains 0 (so every element has an inverse), o is
    associative and nu(x,y,z) = ((x o y) o z) o k on the whole table.
    Sufficient for total associativity: all three regroupings of
    nu(nu(a,b,c),d,e) equal a o b o c o d o e o k o k.  Passes on every
    commutative ternary group: by the Hosszu-Gluskin theorem
    nu(x,y,z) = x+y+z+k over the retract (G,+) at 0, whose identity is 0
    because e is the querelement of 0, and then x o y = x+y.
    """
    sols = np.flatnonzero(nu[0, 0] == 0)
    if len(sols) != 1:
        return None
    o, k = np.ascontiguousarray(nu[:, int(sols[0]), :]), int(nu[0, 0, 0])
    o.setflags(write=False)                  # cached on the carrier
    # every value the form compares nu with comes from o, so a closed o
    # leaves no FOREIGN entry of nu unnoticed
    if (o.min() >= 0 and _identity(o) == 0 and (o == o.T).all()
            and (o == 0).any(axis=1).all() and _is_coset_form(nu, o, k)):
        return o, k
    return None


def _is_coset_form(nu, o, k):
    """Whether o is associative and nu(x,y,z) = ((x o y) o z) o k everywhere."""
    n = len(o)
    # where o is associative, ((x o y) o z) o k = x o (y o (z o k)), read
    # from inner[y,z] = y o (z o k) with one gather per chunk
    inner = o[:, o[:, k]].ravel()
    return _first_violation(n, n * n, lambda rows: _assoc_mask(o, rows)
                            | (np.take(o[rows], inner, axis=1).reshape(-1, n, n)
                               != nu[rows])) is None


def _distrib_certificate(retract, mu):
    """Exact O(n^3) sufficient condition for the three ternary
    distributivity laws of mu(mu(x,y),z) over nu = x+y+z+k, for a binary
    mu, given the retract (o, k) that `_coset_retract` accepted for nu.

    For every left translation x -> mu(w,x) and right translation
    x -> mu(x,w), call it f, with c = f(0) and g(x) = f(x) - c: g must be
    a homomorphism of o with g(k) = c+c+k.  Then
    f(x+y+z+k) = g(x)+g(y)+g(z)+(c+c+k)+c = f(x)+f(y)+f(z)+k, so every
    translation is an endomorphism of nu, and so are their composites:
    law 1 is R_e R_d, law 2 is R_e L_a and law 3 is L_mu(a,b).  Passes on
    every field with a unit: the unit in laws 1 and 3 makes every
    translation an endomorphism of nu, and an endomorphism f of
    x+y+z+k has exactly this form (put y = z = 0, then x = 0).
    """
    o, k = retract
    n = len(o)
    neg = np.argmax(o == 0, axis=1)          # x o neg[x] = 0
    trans = np.concatenate([mu, mu.T])       # rows: x -> mu(w,x), x -> mu(x,w)
    c = trans[:, 0]
    g = o[trans, neg[c][:, None]]
    if not (g[:, k] == o[o[c, c], k]).all():
        return False
    # [f,x,y] -> g_f(x o y) != g_f(x) o g_f(y)
    return _first_violation(2 * n, n * n, lambda rows: g[rows][:, o]
                            != o[g[rows][:, :, None], g[rows][:, None, :]]) is None


def _scan_blocks(n):
    """(a, b0, b1) for each block of the O(n^5) scans: the (a, b) pairs with
    b0 <= b < b1, consecutive in row-major order and inside one a.  The first
    block is one pair and each next one twice as many, up to
    max(1, min(n, _BLOCK_ENTRIES // n^3)) pairs, so an early witness costs
    one n^3 block and a passing scan soon runs on cache-sized ones."""
    cap = max(1, min(n, _BLOCK_ENTRIES // n ** 3))
    r = 1
    for a in range(n):
        b0 = 0
        while b0 < n:
            b1 = min(n, b0 + r)
            yield a, b0, b1
            b0, r = b1, min(2 * r, cap)


def _assoc_scan(t):
    """First (a,b,c,d,e), row-major, where the three regroupings of the
    ternary operation t disagree, or None if t is totally associative.

    The quintuples are compared in the blocks of `_scan_blocks`, each an
    (r,n,n,n) array over (b,c,d,e); the first block that holds a violation
    holds the least one, and no array is larger than a block."""
    for a, b0, b1 in _scan_blocks(len(t)):
        ta = t[a]
        tb = ta[b0:b1]
        v1 = np.take(t, tb, axis=0)           # [b,c,d,e] = t[t[a,b,c],d,e]
        v2 = np.take(ta, t[b0:b1], axis=0)    # [b,c,d,e] = t[a,t[b,c,d],e]
        v3 = np.take(tb, t, axis=1)           # [b,c,d,e] = t[a,b,t[c,d,e]]
        if not (np.array_equal(v1, v2) and np.array_equal(v1, v3)):
            b, *cde = _least((v1 != v2) | (v1 != v3))
            return (a, b0 + b, *cde)
    return None


def _distrib_scan(s, m):
    """First (law, a, b, c, d, e) violating a ternary distributivity law of
    m over s, or None; quintuples row-major, laws 1, 2, 3 at each:

    law 1: m(s(a,b,c), d, e) = s(m(a,d,e), m(b,d,e), m(c,d,e))
    law 2: m(a, s(b,c,d), e) = s(m(a,b,e), m(a,c,e), m(a,d,e))
    law 3: m(a, b, s(c,d,e)) = s(m(a,b,c), m(a,b,d), m(a,b,e))

    Blocks as in `_assoc_scan`.  The right-hand sides are read from the
    flattened s at x*n^2 + y*n + z, with the terms that depend on a only
    summed once per a.  Those indices are int32 like the tables: `_gate`
    keeps n at most _TABLE_LIMIT, so n^3 stays below 2^31.
    """
    n = len(s)
    flat = s.ravel()
    m1 = m * n
    for a, b0, b1 in _scan_blocks(n):
        if b0 == 0:
            ma = m[a]
            ma1 = ma * n
            ma2 = ma1 * n
            p1 = ma2 + m                           # [c,d,e] -> m(a,d,e) n^2 + m(c,d,e)
            p2 = ma1[:, None, :] + ma[None, :, :]  # [c,d,e] -> m(a,c,e) n + m(a,d,e)
        mb = ma[b0:b1]
        lhs1 = np.take(m, s[a, b0:b1], axis=0)
        rhs1 = np.take(flat, p1 + m1[b0:b1, None])
        lhs2 = np.take(ma, s[b0:b1], axis=0)
        rhs2 = np.take(flat, p2 + ma2[b0:b1, None, None, :])
        lhs3 = np.take(mb, s, axis=1)
        rhs3 = np.take(flat, (ma2[b0:b1, :, None] + ma1[b0:b1, None, :])[..., None]
                       + mb[:, None, None, :])
        if not (np.array_equal(lhs1, rhs1) and np.array_equal(lhs2, rhs2)
                and np.array_equal(lhs3, rhs3)):
            bad1, bad2 = lhs1 != rhs1, lhs2 != rhs2
            w = _least(bad1 | bad2 | (lhs3 != rhs3))
            law = 1 if bad1[w] else 2 if bad2[w] else 3
            return (law, a, b0 + w[0], *w[1:])
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


def _decide_associativity(c, limit):
    """Total associativity of a carrier whose nu passed `_nu_invariants`:
    the gate, then the certified retract, then the scan."""
    _gate(c.n, limit)
    if c.retract is not None:
        return Verdict(True, method="certificate")
    w = _assoc_scan(c.nu)
    if w is not None:
        return Verdict(False, "associativity", w, "the regroupings of nu disagree "
                       f"at ({','.join(c.labels[v] for v in w)})", method="scan")
    return Verdict(True, method="scan")


def _decide_distributivity(c, mul, limit):
    """The three distributivity laws over the carrier's nu of the ternary
    product given by mul: a binary (n,n) mu, whose product is mu(mu(x,y),z),
    or a genuine (n,n,n) ternary product.  The gate, then
    `_distrib_certificate` on the certified retract for a binary mu, then
    the scan; the derived product is built only for the scan."""
    _gate(c.n, limit)
    if mul.ndim == 2:
        if c.retract is not None and _distrib_certificate(c.retract, mul):
            return Verdict(True, method="certificate")
        mul = mul[mul]                     # [i,j,k] -> mu[mu[i,j],k]
    w = _distrib_scan(c.nu, mul)
    if w is not None:
        law, *abcde = w
        return Verdict(False, f"distributivity-law-{law}", tuple(abcde), f"law {law} "
                       f"fails at ({','.join(c.labels[v] for v in abcde)})", method="scan")
    return Verdict(True, method="scan")


def check_ternary_group(carrier, limit=None):
    """Verify the additive axioms: closure, full commutativity, unique
    solvability of nu(a,b,x)=c, and total associativity (checked in that
    order, cheapest first).  Returns a Verdict with the least witness.

    Associativity is decided by the carrier's certified retract when it
    has one, and by the O(n^5) scan otherwise."""
    nu, labels = carrier.nu, carrier.labels
    v = _closure(nu, carrier.nu_foreign, labels, "nu")
    if v is None:
        v = _nu_invariants(nu, labels)
    if v is not None:
        return v
    return _decide_associativity(carrier, limit)


def check_distributivity(carrier, limit=None):
    """Verify multiplication: closure, associativity, and the three ternary
    distributivity laws over nu.  Accepts a TernaryCarrier (derived ternary
    product) or a ProperThreeThreeField (genuine ternary product).

    For a binary mu the laws are decided by `_distrib_certificate` when the
    carrier has a certified retract and the certificate passes, and by the
    O(n^5) scan otherwise; a genuine ternary product is always scanned."""
    labels = carrier.labels
    v = _closure(carrier.nu, carrier.nu_foreign, labels, "nu")
    if v is not None:
        return v
    proper = isinstance(carrier, ProperThreeThreeField)
    mul = carrier.ternary_mu if proper else carrier.mu
    if mul is None:
        raise StructureError("carrier has no multiplication to check")
    v = _closure(mul, carrier.mu_foreign, labels, "mu")
    if v is None and not proper:
        v = _mu_invariants(mul, labels)
    if v is not None:
        return v
    return _decide_distributivity(carrier, mul, limit)


def quer_add(carrier, x):
    """The additive querelement: unique t with nu(x,x,t) = x."""
    row = carrier.nu[x, x]
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
    if isinstance(obj, ProperThreeThreeField):
        mul = obj.ternary_mu
        units = _ternary_units(mul)
        unit = units[0] if units else None
    else:
        unit = mul = None
        if obj.mu is not None and (obj.mu >= 0).all():
            mul = obj.mu
            unit = _identity(mul)
    zero = None if mul is None else _zero_element(obj.nu, mul, unit)
    return {"unit": unit, "zero": zero}


class FiniteThreeField:
    """Finite unital 3-field: a carrier whose multiplication is a group with
    identity `one` and whose ternary addition has no zero element.

    check: "auto" decides the axioms when the carrier is within the gate
    (`limit`, or `check_limit()` when it is None) and skips that above it,
    "light" runs only the cheap invariants, False trusts the caller; any
    other value raises ValueError.
    """

    algebra = None      # a quotient field's QuotientAlgebra, set by its builder

    def __init__(self, carrier, one, origin=None, check="auto", limit=None):
        if not (check is False or check in ("light", "auto")):
            raise ValueError(f"check must be False, 'light' or 'auto', not {check!r}")
        self.carrier = carrier
        self.one = int(one)
        self.origin = dict(origin) if origin else {}
        self._inv = None
        if not (0 <= self.one < carrier.n):
            raise StructureError("unit index out of range")
        if check:
            self._validate(check, limit)

    # -- table access -------------------------------------------------------

    @property
    def n(self):
        return self.carrier.n

    @property
    def labels(self):
        return self.carrier.labels

    def nu(self, i, j, k):
        return int(self.carrier.nu[i, j, k])

    def mu(self, i, j):
        return int(self.carrier.mu[i, j])

    def label(self, i):
        return self.carrier.labels[i]

    def index(self, lab):
        return self.carrier.index(lab)

    def elements(self):
        return range(self.carrier.n)

    def inv(self, i):
        if self._inv is None:
            self._inv = self._inverse_table()
        return int(self._inv[i])

    def quer(self, i):
        return quer_add(self.carrier, i)

    def power(self, i, k):
        """k-th multiplicative power, k >= 0 (0 gives the unit)."""
        acc = self.one
        base = i
        k = int(k)
        if k < 0:
            base, k = self.inv(i), -k
        while k:
            if k & 1:
                acc = self.mu(acc, base)
            base = self.mu(base, base)
            k >>= 1
        return acc

    # -- invariants ----------------------------------------------------------

    def _inverse_table(self):
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

    def _validate(self, check, limit):
        c = self.carrier
        if c.mu is None:
            raise StructureError("a 3-field needs a binary multiplication")
        v = _closure(c.nu, c.nu_foreign, c.labels, "nu")
        if v is None:
            v = _closure(c.mu, c.mu_foreign, c.labels, "mu")
        if v is not None:
            raise StructureError(f"field operations must be closed: {v.detail}")
        if _identity(c.mu) != self.one:
            raise StructureError(f"{self.label(self.one)} is not a two-sided unit")
        self._inv = self._inverse_table()
        v = _nu_invariants(c.nu, c.labels)
        if v is None:
            v = _mu_invariants(c.mu, c.labels)
        if v is not None:
            raise StructureError(v.detail)
        # no zero check: with a two-sided unit, inverses and an associative
        # mu, mu(mu(z,1),z^-1) = 1, so no z other than the unit absorbs tmu
        if check == "light" or c.n > check_limit(limit):
            return
        v = _decide_associativity(c, limit)
        if not v:
            raise StructureError(f"additive axioms fail: {v.detail}")
        v = _decide_distributivity(c, c.mu, limit)
        if not v:
            raise StructureError(f"distributivity fails: {v.detail}")

    # -- derived views -------------------------------------------------------

    def subset_carrier(self, indices):
        """Carrier restricted to a subset, foreign results marked."""
        s = np.array([int(i) for i in indices], dtype=np.intp)
        nu = self.carrier.nu[np.ix_(s, s, s)]
        mu = self.carrier.mu[np.ix_(s, s)]
        sub_nu, sub_mu = _renumber(nu, s, self.n), _renumber(mu, s, self.n)
        return TernaryCarrier([self.label(g) for g in s], sub_nu, sub_mu,
                              self._foreign_labels(sub_nu, nu),
                              self._foreign_labels(sub_mu, mu))

    def _foreign_labels(self, sub, full):
        """Label of every result that left the subset, keyed by the argument
        positions (a renumbered table `sub` and its gathered table `full`)."""
        return {tuple(w): self.label(full[tuple(w)])
                for w in np.argwhere(sub == FOREIGN).tolist()}

    def is_subfield(self, indices):
        """Whether the subset is a unital 3-subfield (unit, closure, inverses)."""
        s = np.unique(np.array([int(i) for i in indices], dtype=np.intp))
        if self.one not in s:
            return False
        if self._inv is None:
            self._inv = self._inverse_table()
        c = self.carrier
        return all((_renumber(t, s, self.n) != FOREIGN).all()
                   for t in (self._inv[s], c.mu[np.ix_(s, s)], c.nu[np.ix_(s, s, s)]))

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
    carrier with no binary mu and the (n,n,n) product table ternary_mu,
    whose foreign results `mu_foreign` holds by argument triple."""

    def __init__(self, labels, nu, ternary_mu, check=True, limit=None):
        super().__init__(labels, nu)
        self.ternary_mu = _table(ternary_mu, (self.n, self.n, self.n), "ternary_mu")
        if check:
            self._validate(limit)

    def _validate(self, limit):
        nu, tmu, labels = self.nu, self.ternary_mu, self.labels
        v = _closure(nu, self.nu_foreign, labels, "nu")
        if v is None:
            v = _closure(tmu, self.mu_foreign, labels, "mu")
        if v is not None:
            raise StructureError(f"operations must be closed: {v.detail}")
        v = _nu_invariants(nu, labels)
        if v is None:
            v = _decide_associativity(self, limit)
        if not v:
            raise StructureError(f"additive axioms fail: {v.detail}")
        units = _ternary_units(tmu)
        if units:
            raise StructureError(f"multiplicative unit {labels[units[0]]} found; "
                                 "not a proper (3,3)-field")
        w = _assoc_scan(tmu)
        if w is not None:
            raise StructureError(f"ternary multiplication not associative at {w}")
        v = _decide_distributivity(self, tmu, limit)
        if not v:
            raise StructureError(f"distributivity fails: {v.detail}")

    def __repr__(self):
        return f"ProperThreeThreeField({self.n} elements)"


def twisted_coset(field, subfield_indices, t):
    """The coset t*F1 of a unital 3-subfield F1, for t outside F1 with t*t in
    F1: a proper (3,3)-field with inherited nu and the genuine ternary product.

    Raises StructureError if the preconditions fail, if the coset is not
    closed, or if the result has a multiplicative unit (properness).
    """
    f1 = sorted(int(i) for i in subfield_indices)
    t = int(t)
    if not field.is_subfield(f1):
        raise StructureError("given subset is not a unital 3-subfield")
    if t in f1:
        raise StructureError("t must lie outside the subfield")
    if field.mu(t, t) not in set(f1):
        raise StructureError("t*t must lie in the subfield")
    mu = field.carrier.mu
    coset = np.unique(mu[t, f1])
    full = field.carrier.nu[np.ix_(coset, coset, coset)]
    nu = _renumber(full, coset, field.n)
    # mu(mu(a,b),c) over the coset only, never the whole-field mu[mu] cube
    tmu = _renumber(mu[mu[np.ix_(coset, coset)][:, :, None], coset], coset, field.n)
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
    # index i is the residue 2i+1: (2i+1)+(2j+1)+(2k+1) = 2(i+j+k+1)+1 and
    # (2i+1)(2j+1) = 2((2i+1)j+i)+1
    n = m // 2
    i = np.arange(n, dtype=np.int32)
    nu = i[:, None, None] + i[:, None] + (i + 1)
    np.remainder(nu, n, out=nu)
    mu = (2 * i[:, None] + 1) * i + i[:, None]
    np.remainder(mu, n, out=mu)
    carrier = TernaryCarrier([str(2 * v + 1) for v in range(n)], nu, mu)
    return FiniteThreeField(carrier, 0, origin={"kind": "odd_residue", "modulus": m},
                            check=check)
