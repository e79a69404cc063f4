"""The oracles, the field roster and the mutant generators that several test
modules share, each written once.

Pytest collects no tests here: the module name has no test_ prefix.  The
oracles are the scalar and whole-table definitions the fast paths are
tested against; the package itself never calls them.

- `FIELDS`: every roster field by name, as a builder taking `check`; a
  construction that takes none is rebuilt on its tables (`rebuilt`).  Each
  test module keeps its own list of names and the check it builds them
  with, so a field is built by the same constructor and check wherever it
  is named.
- `relabel`: the same structure under renamed elements.
- `gathered_subset_carrier`: a subset's dense tables from the (m, m, m)
  gather of nu, the reference for the sub-carriers born from their
  retract.
- `whole_cube_assoc_witness`: binary associativity over the whole n^3 cube.
- `pair_scan_blocks`, `pair_assoc_scan` and `pair_distrib_scan`: the O(n^5)
  scans in blocks of whole (a, b) pairs, the first one an n^3 block: the
  reference for the kernel's scans, whose blocks start from one (a, b, c)
  triple.
- `ring_walk_error`: every ring law walked over its table, the reference
  for a ring's proof on generators.
- `derived_ternary_mu`, `compose_elements`, `scalar_element_orders`,
  `power` and the translation pairs (`Pair`, `standard_form`, `pair_add`,
  `pair_mul`, `pair_zero`): scalar definitions of what the tables compute
  at once.
- `verdict_dict`: a Verdict's outcome as a plain dict, its method left out.
- `gf2_mul`, `gf2_pow` and `MaskAlgebra` (through `mask_path`): a quotient
  field's elements as int bitmasks over the monomials, converted and
  multiplied one mask at a time, the reference for `QuotientAlgebra`'s
  whole-carrier arrays.
- `tuple_index`, `matrix`, `add3`, `combination`, `scalar_free_resolution`
  and `scalar_inverse_error`: the tuple constructions of `structures` one
  tuple at a time, through a tuple -> index dict.
- `inv`: the inverse of an odd-fraction element, refused on an even
  numerator.
- `scalar_criterion_9`: the paper suite's dyadic ledger one seeded case at
  a time through `Fraction`, `OddDenomRational` and `TruncatedDyadic`, the
  reference for the whole-array `criterion_9`.
- `SCALAR_DRAWS` (`morphism_draws`, `truncation_draws`, `valuation_draws`,
  through `draw_rows`): each criterion 9 section's draws, one
  `rng.randrange` call at a time, the reference for the program's replay
  of them from the generator's raw words.
- `swapped_cell_mutants`, `perturbations`, `group_table_mutants` and
  `one_image_mutants`: tables and maps that break, or merely move, a law.
"""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np

from ternfield import (
    StructureError,
    TruncatedDyadic,
    build_f0,
    group_algebra,
    odd_rational,
    odd_residue_field,
    product_field,
    quaternion_field,
    reduce_mod,
    triangular_field,
    val2,
)
from ternfield.automorphisms import _algebra_of
from ternfield.dyadic import OddDenomRational, _coerce
from ternfield.poly_fields import _monomial_name
from ternfield import ternary_kernel as tk
from ternfield.ternary_kernel import FiniteThreeField, TernaryCarrier


# -- the roster ---------------------------------------------------------------

def rebuilt(construct):
    """The roster builder of a construction that takes no `check`: it is
    built once, and each call rebuilds its field on a fresh carrier over
    the same tables with the requested check, so that no construction has
    decided a law of the field returned."""
    construct = functools.cache(construct)

    def build(check):
        f = construct()
        return FiniteThreeField(with_tables(f.carrier), f.one, f.origin, check=check)
    return build


def _dihedral_8():
    """Cayley table of the dihedral group of order 8, r^i s^j at index
    i + 4j: (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j + l)."""
    i, j = np.arange(8) % 4, np.arange(8) // 4
    return (i[:, None] + np.where(j[:, None], -i, i)) % 4 + 4 * ((j[:, None] + j) % 2)


FIELDS = {
    **{f"odd({m})": functools.partial(odd_residue_field, m)
       for m in (2, 4, 8, 16, 32, 64, 128)},
    **{f"F0({k})": functools.partial(build_f0, k) for k in range(1, 7)},
    "F0(2,2)": functools.partial(build_f0, 2, 2),
    "F0(3,2)": functools.partial(build_f0, 3, 2),
    "F0(2,2,2)": functools.partial(build_f0, 2, 2, 2),
    # `check` is the product's; each factor keeps the check it is built with
    "F0(2)xF0(2)": lambda check: product_field(build_f0(2, check="light"),
                                               build_f0(2, check="light"),
                                               check=check).field,
    "F0(2)xF0(3)": lambda check: product_field(build_f0(2), build_f0(3),
                                               check=check).field,
    "F0(3)xF0(3)": lambda check: product_field(build_f0(3), build_f0(3),
                                               check=check).field,
    # noncommutative, n = 16: lower-triangular 2x2 matrices
    "T2(F0(2))": rebuilt(lambda: triangular_field(2, build_f0(2)).field),
    "T2(odd(4))": rebuilt(lambda: triangular_field(2, odd_residue_field(4)).field),
    # noncommutative, n = 128, beyond the scan: quaternions, and the group
    # 3-algebra of the dihedral group of order 8
    "H(odd(4))": rebuilt(lambda: quaternion_field(odd_residue_field(4)).field),
    "F0(1)[D4]": rebuilt(lambda: group_algebra(_dihedral_8(), build_f0(1)).field),
}


def relabel(x, perm):
    """The same structure with element i renamed perm[i]: a carrier, or a
    3-field (unchecked, its unit renamed with it)."""
    perm = np.asarray(perm, dtype=np.int32)
    if isinstance(x, FiniteThreeField):
        return FiniteThreeField(relabel(x.carrier, perm), int(perm[x.one]), check=False)
    inv = np.argsort(perm)
    nu = perm[x.nu[np.ix_(inv, inv, inv)]]
    mu = perm[x.mu[np.ix_(inv, inv)]]
    return TernaryCarrier([x.labels[i] for i in inv], nu, mu)


def with_tables(carrier, nu=None, mu=None):
    """A fresh carrier, nothing decided, with either table replaced."""
    return TernaryCarrier(carrier.labels,
                          carrier.nu if nu is None else nu,
                          carrier.mu if mu is None else mu)


def gathered_subset_carrier(field, indices):
    """A dense carrier on the subset, its elements in the given order, from
    the (m, m, m) gather of nu and the (m, m) gather of mu, FOREIGN where a
    result leaves the subset: the reference for
    `FiniteThreeField.subset_carrier`, which reads O(m^2) entries of nu
    through its retract, and on a subset that is not closed a carrier
    whose tables leave it."""
    s = np.asarray(indices, dtype=np.intp)
    back, c = tk._positions(s, field.n), field.carrier
    return TernaryCarrier([field.label(g) for g in s],
                          back[c.nu_of(*np.ix_(s, s, s))], back[c.mu[np.ix_(s, s)]])


# -- whole-table and scalar definitions ----------------------------------------

def whole_cube_assoc_witness(table):
    """Least (a, b, c) with (ab)c != a(bc), from the whole n^3 cube, or None."""
    bad = table[table] != table[:, table]
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


def pair_scan_blocks(n):
    """(a, b0, b1) for each block of the pair-block scans: the (a, b) pairs
    with b0 <= b < b1, consecutive in row-major order and inside one a.  The
    first block is one pair and each next one twice as many, up to
    max(1, min(n, _BLOCK_ENTRIES // n^3)) pairs."""
    cap = max(1, min(n, tk._BLOCK_ENTRIES // n ** 3))
    r = 1
    for a in range(n):
        b0 = 0
        while b0 < n:
            b1 = min(n, b0 + r)
            yield a, b0, b1
            b0, r = b1, min(2 * r, cap)


def pair_assoc_scan(t):
    """`ternary_kernel._assoc_scan` in the blocks of `pair_scan_blocks`, each
    an (r,n,n,n) array over (b,c,d,e)."""
    for a, b0, b1 in pair_scan_blocks(len(t)):
        ta = t[a]
        tb = ta[b0:b1]
        v1 = np.take(t, tb, axis=0)           # [b,c,d,e] = t[t[a,b,c],d,e]
        v2 = np.take(ta, t[b0:b1], axis=0)    # [b,c,d,e] = t[a,t[b,c,d],e]
        v3 = np.take(tb, t, axis=1)           # [b,c,d,e] = t[a,b,t[c,d,e]]
        if not (np.array_equal(v1, v2) and np.array_equal(v1, v3)):
            b, *cde = tk._least((v1 != v2) | (v1 != v3))
            return (a, b0 + b, *cde)
    return None


def pair_distrib_scan(s, m):
    """`ternary_kernel._distrib_scan` in the blocks of `pair_scan_blocks`,
    with the terms that depend on a only summed once per a."""
    n = len(s)
    flat = s.ravel()
    m1 = m * n
    for a, b0, b1 in pair_scan_blocks(n):
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
            w = tk._least(bad1 | bad2 | (lhs3 != rhs3))
            law = 1 if bad1[w] else 2 if bad2[w] else 3
            return (law, a, b0 + w[0], *w[1:])
    return None


def ring_walk_error(ring):
    """The message of the first ring law that fails, or None, with both
    associativities and both distributive laws walked over their n^3 cells
    in chunks (`ternary_kernel._assoc_violation` and `_first_violation`):
    the reference for `RingTable._failure`, which decides each law on
    generators.  Tables and law order are the ring's."""
    n, add, mul = ring.n, ring.add, ring.mul
    if n > tk._TABLE_LIMIT:
        return f"ring size {n} exceeds the validation guard"
    laws = [
        ("addition is not commutative", lambda: (add != add.T).any()),
        ("zero is not an additive neutral", lambda: tk._identity(add) != ring.zero),
        ("addition rows are not permutations", lambda: tk._nonperm_row(add) is not None),
        ("addition is not associative", lambda: tk._assoc_violation(add) is not None),
        ("multiplication is not associative", lambda: tk._assoc_violation(mul) is not None),
        ("one is not a two-sided unit", lambda: tk._identity(mul) != ring.one),
        # i*(j+k) != i*j + i*k, i*(j+k) taken C-contiguous as in _assoc_violation
        ("left distributivity fails", lambda: tk._first_violation(n, n * n, lambda rows: (
            np.take(mul[rows], add.ravel(), axis=1).reshape(-1, n, n)
            != add[mul[rows][:, :, None], mul[rows][:, None, :]])) is not None),
        # (i+j)*k != i*k + j*k
        ("right distributivity fails", lambda: tk._first_violation(n, n * n, lambda rows: (
            mul[add[rows]] != add[mul[rows][:, None, :], mul[None, :, :]])) is not None),
    ]
    return next((message for message, broken in laws if broken()), None)


def derived_ternary_mu(carrier):
    """Dense table of the derived ternary product mu(mu(x,y),z)."""
    if carrier.mu is None or carrier.mu.ndim != 2:
        raise StructureError("carrier has no binary multiplication")
    if (carrier.mu < 0).any():
        raise StructureError("mu is not closed; no derived ternary product")
    return carrier.mu[carrier.mu]  # [i,j,k] -> mu[mu[i,j],k]


def scalar_element_orders(table, e):
    """The order of each element of a group table, one power at a time."""
    orders = []
    for a in range(len(table)):
        p, o = a, 1
        while p != e:
            p = int(table[p, a])
            o += 1
        orders.append(o)
    return orders


def verdict_dict(v):
    """The outcome of a Verdict as a dict: ok, axiom, witness and detail."""
    return {
        "ok": v.ok,
        "axiom": v.axiom,
        "witness": list(v.witness) if v.witness is not None else None,
        "detail": v.detail,
    }


def gf2_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_pow(a, k):
    out = 1
    while k:
        if k & 1:
            out = gf2_mul(out, a)
        a = gf2_mul(a, a)
        k >>= 1
    return out


class MaskAlgebra:
    """A `QuotientAlgebra` one bitmask at a time: bit m of a mask is the
    coefficient of monomial m, in u or in x.  It reads only the algebra's
    monomials, product table and echelon rows."""

    def __init__(self, alg):
        self.exponents, self.names, self.free = alg.exponents, alg.names, alg.free
        self.monomials, self.ptab, self._degree_order = alg.monomials, alg.ptab, alg._degree_order
        self.m_index = {alpha: i for i, alpha in enumerate(self.monomials)}
        self._reduce = alg._reduce
        self._xrows = self._binomial_rows()

    @functools.cached_property
    def carrier(self):
        """The 2^rank odd normal forms.  `_spread` is monotone, so they
        ascend and index i is a coefficient vector: bit t of i is the
        coefficient of u^free[t], and the unit is index 0."""
        return [self._spread(bits) | 1 for bits in range(1 << len(self.free))]

    @functools.cached_property
    def index_of(self):
        return {m: i for i, m in enumerate(self.carrier)}

    def _spread(self, bits):
        out = 0
        for t, m in enumerate(self.free):
            if bits >> t & 1:
                out |= 1 << m
        return out

    def mul_raw(self, a, b):
        out = 0
        ai = a
        while ai:
            i = (ai & -ai).bit_length() - 1
            ai &= ai - 1
            bj = b
            while bj:
                j = (bj & -bj).bit_length() - 1
                bj &= bj - 1
                t = self.ptab[i, j]
                if t >= 0:
                    out ^= 1 << int(t)
        return out

    def normal_form(self, mask):
        return self._reduce(mask)

    def mul(self, a, b):
        return self._reduce(self.mul_raw(a, b))

    def pow(self, a, k):
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def _binomial_rows(self):
        """x-mask of each u-monomial (and vice versa: the map is involutive).
        u^alpha = prod (x_i + 1)^{alpha_i} expands to a subset of monomials."""
        rows = []
        per_var = []
        for n in self.exponents:
            tri = [gf2_pow(0b11, e) for e in range(n)]
            per_var.append(tri)
        for alpha in self.monomials:
            mask = 0
            choices = []
            for v, e in enumerate(alpha):
                row = per_var[v][e]
                choices.append([t for t in range(row.bit_length()) if row >> t & 1])
            for combo in itertools.product(*choices):
                mask ^= 1 << self.m_index[tuple(combo)]
            rows.append(mask)
        return rows

    def _apply_rows(self, mask):
        out = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            out ^= self._xrows[i]
        return out

    to_x = from_x = _apply_rows

    def label(self, mask):
        xmask = self.to_x(mask)
        return "+".join(_monomial_name(self.monomials[i], self.names)
                        for i in reversed(self._degree_order) if xmask >> i & 1) or "0"


@functools.cache
def mask_path(alg):
    """The `MaskAlgebra` of an algebra, built once."""
    return MaskAlgebra(alg)


def compose_elements(field, i, j):
    """The element P_i(P_j(x)): substitute element j into element i, step
    by step on coefficient masks."""
    alg = mask_path(_algebra_of(field))
    fx = alg.to_x(alg.carrier[i])
    gm = alg.carrier[j]
    out = 0
    k = 0
    while fx:
        if fx & 1:
            out ^= alg.pow(gm, k)
        fx >>= 1
        k += 1
    return alg.index_of[out]


def power(field, i, k):
    """k-th multiplicative power, k >= 0 (0 gives the unit)."""
    acc = field.one
    base = i
    k = int(k)
    if k < 0:
        base, k = field.inv(i), -k
    while k:
        if k & 1:
            acc = field.mu(acc, base)
        base = field.mu(base, base)
        k >>= 1
    return acc


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


# -- tuple carriers, one tuple at a time -----------------------------------------

def tuple_index(tables):
    """The tuple -> carrier index dict of a `_TupleTables`."""
    return {tuple(v): i for i, v in enumerate(tables.tuples.tolist())}


def matrix(result, i):
    """Row-major matrix of envelope labels for carrier element i of a
    `MatrixFieldResult`."""
    cells = np.append(result.tables.tuples[i], result.env.zero)[result.layout]
    return [[result.env.labels[e] for e in row] for row in cells.tolist()]


def add3(space, u, v, w):
    """u + v + w in U(F)^width, coordinate by coordinate."""
    env = space.env
    return tuple(env.add_at(env.add_at(a, b), c) for a, b, c in zip(u, v, w))


def combination(space, scalars, vectors):
    """Sum of lam_i * v_i, taken inside U(F)^width."""
    env = space.env
    acc = (env.zero,) * space.width
    for lam, v in zip(scalars, vectors):
        acc = tuple(env.add_at(a, env.mul_at(lam, c)) for a, c in zip(acc, v))
    return acc


def scalar_free_resolution(space, generators):
    """`free_resolution` one scalar tuple at a time: the same report, or the
    same StructureError."""
    env = space.env
    index = tuple_index(space.tables)
    gens = [tuple(int(c) for c in g) for g in generators]
    for g in gens:
        if g not in index:
            raise StructureError(f"generator {space.label(g)} is not in the space")
    n = len(gens)
    total = (2 * space.field.n) ** n
    zero_vec = (env.zero,) * space.width
    kernel = []
    image_odd = set()
    for lam in itertools.product(range(env.n), repeat=n):
        val = combination(space, lam, gens)
        if val == zero_vec:
            kernel.append(lam)
        s = env.zero
        for c in lam:
            s = env.add_at(s, c)
        if s < space.field.n:
            if val not in index:
                raise StructureError(f"combination {space.label(val)} left the carrier")
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


def scalar_inverse_error(result):
    """`quaternion_inverse_check`'s message, one quaternion at a time: the
    first whose conj(q) * norm(q)^(-1) is no two-sided inverse, or None."""
    env, field = result.env, result.field
    index = tuple_index(result.tables)
    for i, v in enumerate(result.tables.tuples.tolist()):
        norm = env.zero
        for c in v:
            norm = env.add_at(norm, env.mul_at(c, c))
        inv_norm = env.base.inv(norm)
        conj = [v[0]] + [env.neg_at(c) for c in v[1:]]
        j = index[tuple(env.mul_at(c, inv_norm) for c in conj)]
        if field.mu(i, j) != field.one or field.mu(j, i) != field.one:
            return f"inverse formula fails at {result.quaternion(i)}"
    return None


def inv(x):
    x = _coerce(x)
    if not x.is_odd_element():
        raise StructureError(f"{x} is not invertible: even numerator")
    return OddDenomRational(1 / x.value)


def draw_rows(cases, count, width):
    """The first `count` tuples of `cases` as an int64 array, one row each,
    drawn one case at a time so no list of them is ever held."""
    return np.fromiter(cases, np.dtype((np.int64, width)), count)


def morphism_draws(rng, count):
    """Per case the halves of x, y and z's numerators and denominators, then
    the precision n."""
    rr = rng.randrange
    return draw_rows(((rr(-500, 500), rr(0, 500), rr(-500, 500), rr(0, 500),
                       rr(-500, 500), rr(0, 500), rr(1, 17)) for _ in range(count)), count, 7)


def truncation_draws(rng, count):
    """Per case the precisions big and small, then the halves of a, b, c."""
    rr = rng.randrange

    def cases():
        for _ in range(count):
            big = rr(2, 17)
            top = 1 << (big - 1)
            yield big, rr(1, big + 1), rr(0, top), rr(0, top), rr(0, top)

    return draw_rows(cases(), count, 5)


def valuation_draws(rng, count):
    """Per case the numerators of x and y, then their denominators' halves."""
    rr = rng.randrange
    return draw_rows(((rr(-2000, 2001) or 1, rr(-2000, 2001) or 1, rr(0, 1000), rr(0, 1000))
                      for _ in range(count)), count, 4)


SCALAR_DRAWS = {"morphism": morphism_draws, "truncation": truncation_draws,
                "val2": valuation_draws}


def scalar_criterion_9():
    """The paper suite's criterion 9, one case at a time: residue reduction
    is a morphism, truncation commutes with the operations, and the
    valuation laws hold."""
    rng = random.Random(20260819)
    detail = {}

    def rand_odd():
        return odd_rational(2 * rng.randrange(-500, 500) + 1,
                            2 * rng.randrange(0, 500) + 1)

    cases = 0
    for _ in range(10000):
        x, y, z = rand_odd(), rand_odd(), rand_odd()
        n = rng.randrange(1, 17)
        mod = 1 << n
        rx, ry, rz = reduce_mod(x, n), reduce_mod(y, n), reduce_mod(z, n)
        s = x + y + z
        p = x * y
        if reduce_mod(s, n) != (rx + ry + rz) % mod:
            detail["morphism_counterexample"] = [str(x), str(y), str(z), n]
            break
        if reduce_mod(p, n) != (rx * ry) % mod:
            detail["morphism_counterexample"] = [str(x), str(y), n]
            break
        cases += 1
    detail["morphism_cases"] = cases
    morphism_ok = "morphism_counterexample" not in detail and cases == 10000

    commute = 0
    for _ in range(10000):
        big = rng.randrange(2, 17)
        small = rng.randrange(1, big + 1)
        a = TruncatedDyadic(2 * rng.randrange(0, 1 << (big - 1)) + 1, big)
        b = TruncatedDyadic(2 * rng.randrange(0, 1 << (big - 1)) + 1, big)
        c = TruncatedDyadic(2 * rng.randrange(0, 1 << (big - 1)) + 1, big)
        lhs_mul = (a * b).reduce_precision(small)
        rhs_mul = a.reduce_precision(small) * b.reduce_precision(small)
        lhs_add = a.add3(b, c).reduce_precision(small)
        rhs_add = a.reduce_precision(small).add3(
            b.reduce_precision(small), c.reduce_precision(small))
        lhs_inv = a.inv().reduce_precision(small)
        rhs_inv = a.reduce_precision(small).inv()
        if lhs_mul != rhs_mul or lhs_add != rhs_add or lhs_inv != rhs_inv:
            detail["truncation_counterexample"] = [str(a), str(b), str(c), small]
            break
        commute += 1
    detail["truncation_cases"] = commute
    truncation_ok = commute == 10000

    val_cases = 0
    for _ in range(10000):
        num1 = rng.randrange(-2000, 2001) or 1
        num2 = rng.randrange(-2000, 2001) or 1
        den1 = 2 * rng.randrange(0, 1000) + 1
        den2 = 2 * rng.randrange(0, 1000) + 1
        x = Fraction(num1, den1)
        y = Fraction(num2, den2)
        if val2(x * y) != val2(x) + val2(y):
            detail["val2_counterexample"] = [str(x), str(y), "multiplicativity"]
            break
        lo = min(val2(x), val2(y))
        if val2(x + y) < lo:
            detail["val2_counterexample"] = [str(x), str(y), "ultrametric"]
            break
        val_cases += 1
    detail["val2_cases"] = val_cases
    val_ok = val_cases == 10000

    ok = morphism_ok and truncation_ok and val_ok
    return ok, detail


# -- mutants ------------------------------------------------------------------

def swapped_cell_mutants(carrier, rng, count):
    """Carriers with two cells of mu swapped, two cells of nu swapped, or the
    values of two argument orbits of nu swapped (nu stays symmetric)."""
    n = carrier.n
    for k in range(count):
        nu, mu = carrier.nu.copy(), carrier.mu.copy()
        if k % 3 == 0:
            p, q = (tuple(rng.integers(0, n, size=2)) for _ in range(2))
            mu[p], mu[q] = carrier.mu[q], carrier.mu[p]
        elif k % 3 == 1:
            p, q = (tuple(rng.integers(0, n, size=3)) for _ in range(2))
            nu[p], nu[q] = carrier.nu[q], carrier.nu[p]
        else:
            p, q = (tuple(rng.integers(0, n, size=3)) for _ in range(2))
            for cell in itertools.permutations(p):
                nu[cell] = carrier.nu[q]
            for cell in itertools.permutations(q):
                nu[cell] = carrier.nu[p]
        yield TernaryCarrier(carrier.labels, nu, mu)


def perturbations(carrier, rng):
    """Tables passing every cheap invariant that a scan has to judge:
    pi o nu, and mu conjugated by a permutation sigma."""
    n = carrier.n
    pi = rng.permutation(n).astype(np.int32)
    yield with_tables(carrier, nu=pi[carrier.nu])
    sigma = rng.permutation(n).astype(np.int32)
    inv = np.argsort(sigma)
    yield with_tables(carrier, mu=sigma[carrier.mu[np.ix_(inv, inv)]])


def group_table_mutants(g, rng):
    """Every intercalate swap of g (a Latin square stays one) and as many
    random two-cell swaps."""
    k = len(g)
    out = []
    for a, b, c, d in itertools.product(range(k), repeat=4):
        if a < c and b < d and g[a, b] == g[c, d] and g[a, d] == g[c, b]:
            m = g.copy()
            m[a, b], m[a, d], m[c, b], m[c, d] = g[a, d], g[a, b], g[c, d], g[c, b]
            out.append(m)
    for _ in range(len(out)):
        (a, b), (c, d) = rng.integers(0, k, size=(2, 2))
        m = g.copy()
        m[a, b], m[c, d] = g[c, d], g[a, b]
        out.append(m)
    return out


def one_image_mutants(source, target, mapping):
    """The mapping with one image moved, for every source element."""
    for i in range(source.n):
        bad = list(mapping)
        bad[i] = (bad[i] + 1 + i % max(1, target.n - 1)) % target.n
        yield bad
