"""Endomorphisms and automorphisms of singly generated quotient 3-fields.

Every element of F0(n) is a polynomial in the generator x, so an
endomorphism is determined by where x goes: f(x) -> f(P).  Any image P
works, because every element satisfies (f-1)^n = 0; the implementation
still verifies the substitution maps.  `automorphism_group` checks all n
of them, the columns of the composition table, in one stacked call of the
morphism laws on the generators of the retract and of mu, however the
field was built, and a stack that fails raises the first law broken, as
`enumerate_endomorphisms` would for its first bad `Morphism`.
Automorphisms are detected along two independent routes —
a compositional inverse exists (read from the composition table), or the
image generates the whole carrier (one batched closure of every {1, P},
read from mu and nu only) — which must agree.

Composition tables follow the convention table[P][Q] = P(Q(x)) (substitute
Q into P).  `composition_table` builds the whole table at once from the
multiplication table mu: row k of a power table holds every Q^k (iterating
mu from the unit), and the bit planes of each P written in powers of x
select which powers to XOR together.  An element's index is its coefficient
vector without the constant, and P has an odd number of terms, so the XOR
of the power indices is the index of P(Q).
"""

import numpy as np

from .ternary_kernel import (
    StructureError,
    _assoc_violation,
    _element_orders,
    _identity,
    _nonperm_row,
    _positions,
    _table,
)
from .pair_envelope import Morphism, _morphism_failure
from .poly_fields import _singly_generated_algebra, _subalgebra_closures

# compact one-letter names for the small single-variable fields
_LETTERS = {
    2: {"1": "1", "x": "y"},
    3: {"1": "1", "x": "a", "x^2": "b", "x^2+x+1": "c"},
    4: {"1": "1", "x": "a", "x^2": "b", "x^3": "c", "x^2+x+1": "d",
        "x^3+x+1": "e", "x^3+x^2+1": "f", "x^3+x^2+x": "g"},
    5: {"1": "1", "x": "a", "x^2": "b", "x^3": "c", "x^4": "d",
        "x^2+x+1": "e", "x^3+x+1": "f", "x^4+x+1": "g",
        "x^3+x^2+1": "p", "x^4+x^2+1": "q", "x^4+x^3+1": "r",
        "x^3+x^2+x": "s", "x^4+x^2+x": "t", "x^4+x^3+x": "u",
        "x^4+x^3+x^2": "v", "x^4+x^3+x^2+x+1": "w"},
}


def _algebra_of(field):
    alg = _singly_generated_algebra(field)
    if alg is None:
        raise StructureError(
            "a singly generated single-variable quotient field is required")
    return alg


def letter_label_map(field):
    """index -> compact letter label (the --labels=paper display mode)."""
    n = (field.origin or {}).get("exponents", [None])[0]
    letters = _LETTERS.get(n)
    if letters is None:
        raise StructureError(f"no letter naming for this field")
    return {i: letters[field.label(i)] for i in range(field.n)}


def composition_table(field):
    """C[i, j] = P_i(P_j(x)) for every pair of elements."""
    alg = _algebra_of(field)
    n = field.n
    mu = field.carrier.mu
    powers = np.empty((alg.m_count, n), dtype=np.int32)   # [k, j] -> P_j^k
    powers[0] = field.one
    for k in range(1, alg.m_count):
        powers[k] = mu[powers[k - 1], np.arange(n)]
    out = np.zeros((n, n), dtype=np.int32)
    for k, plane in enumerate(alg.x_coefficients.T):     # bit plane of x^k
        out ^= plane[:, None] * powers[k]
    return out


def enumerate_endomorphisms(field):
    """One verified `Morphism` per candidate generator image, the map at
    position i sending x to element i; for F0(n) every element qualifies."""
    table = composition_table(field)
    return [Morphism(field, field, table[:, image]) for image in range(field.n)]


class CompositionTable:
    """Dense Cayley table over a chosen element list of a field, either under
    multiplication or under polynomial composition."""

    def __init__(self, field, elements, table, identity, mode):
        self.field = field
        self.elements = [int(e) for e in elements]
        k = len(self.elements)
        self.table = _table(table, (k, k), mode, 0, exact=True)
        self.identity = int(identity)
        self.mode = mode

    @property
    def order(self):
        return len(self.elements)

    def labels(self, letters=False):
        if letters:
            m = letter_label_map(self.field)
            return [m[e] for e in self.elements]
        return [self.field.label(e) for e in self.elements]

    def entry_label(self, i, j, letters=False):
        return self.labels(letters)[self.table[i, j]]

    def is_latin_square(self):
        return _nonperm_row(self.table) is None and _nonperm_row(self.table.T) is None

    def position(self, label, letters=False):
        labs = self.labels(letters)
        try:
            return labs.index(label)
        except ValueError:
            raise StructureError(f"no element labeled {label!r}") from None

    def reorder(self, labels, letters=False):
        """A new table over the same elements listed in the given order."""
        pos = [self.position(lab, letters) for lab in labels]
        if sorted(pos) != list(range(self.order)):
            raise StructureError("reorder must list every element exactly once")
        back = np.empty(self.order, dtype=np.int32)   # old position -> new
        back[pos] = np.arange(self.order)
        return CompositionTable(self.field, [self.elements[p] for p in pos],
                                back[self.table[np.ix_(pos, pos)]],
                                back[self.identity], self.mode)

    # -- export ------------------------------------------------------------

    def to_markdown(self, letters=False):
        labs = self.labels(letters)
        op = "*" if self.mode == "multiplication" else "o"
        lines = ["| " + " | ".join([op] + labs) + " |",
                 "|" + "---|" * (self.order + 1)]
        for i, lab in enumerate(labs):
            row = [labs[int(self.table[i, j])] for j in range(self.order)]
            lines.append("| " + " | ".join([f"**{lab}**"] + row) + " |")
        return "\n".join(lines)

    def to_csv(self, letters=False):
        labs = self.labels(letters)
        op = "*" if self.mode == "multiplication" else "o"
        lines = [",".join([op] + labs)]
        for i, lab in enumerate(labs):
            row = [labs[int(self.table[i, j])] for j in range(self.order)]
            lines.append(",".join([lab] + row))
        return "\n".join(lines)

    def to_json(self):
        return {
            "mode": self.mode,
            "elements": self.labels(),
            "identity": self.identity,
            "table": [[int(v) for v in row] for row in self.table],
        }

    def __repr__(self):
        return f"CompositionTable({self.mode}, order {self.order})"


def cayley_table(field):
    """The multiplication table over every field element; the composition
    table is `composition_table`."""
    t = CompositionTable(field, range(field.n), field.carrier.mu, field.one,
                         "multiplication")
    if not t.is_latin_square():
        raise StructureError("multiplication table is not a Latin square")
    if _identity(t.table) != field.one:
        raise StructureError("unit row/column mismatch")
    return t


def automorphism_group(field):
    """Automorphisms by two independent routes (compositional inverse exists;
    image generates the carrier), asserted to agree; returns the composition
    Cayley table with identity x."""
    n = field.n
    # the generator route reads mu and nu only, the closures of every
    # {1, P}, and refuses a field whose carrier proves nothing
    seeds = np.stack([np.full(n, field.one), np.arange(n)], axis=1)
    generating = _subalgebra_closures(field, seeds).all(axis=1)

    comp = composition_table(field)
    # every column's map checked in one stacked call on the generators
    failure = _morphism_failure(comp, field, field)
    if failure:
        raise StructureError(failure)
    labels = list(field.labels)
    x_idx = labels.index("x") if "x" in labels else field.one
    invertible = ((comp == x_idx) & (comp.T == x_idx)).any(axis=1)

    if (invertible != generating).any():
        raise StructureError(
            "the two automorphism criteria disagree: "
            f"inverse-route {np.flatnonzero(invertible).tolist()} vs generator-route "
            f"{np.flatnonzero(generating).tolist()}")

    elements = np.flatnonzero(invertible)
    pos = _positions(elements, n)
    table = pos[comp[np.ix_(elements, elements)]]
    if (table < 0).any():
        raise StructureError("automorphisms are not closed under composition")
    return CompositionTable(field, elements, table, pos[x_idx], "composition")


def fingerprint_group(t):
    """Identify the abstract group behind a composition table: order,
    abelianness, element-order multiset, and the isomorphism class for every
    group the multiset pins down (all groups of order <= 8; abelian ones
    through order 16)."""
    k = t.order
    table = t.table
    if _identity(table) != t.identity:
        raise StructureError("identity row or column is broken")
    w = _assoc_violation(table)
    if w is not None:
        raise StructureError("composition is not associative at ({},{},{})".format(*w))
    lacking = np.flatnonzero(~(table == t.identity).any(axis=1))
    if lacking.size:
        raise StructureError(f"element {lacking[0]} has no inverse")

    abelian = bool((table == table.T).all())
    multiset = sorted(_element_orders(table, t.identity).tolist())

    iso = None
    involutions = multiset.count(2)
    if k == 1:
        iso = "C1"
    elif k in (2, 3, 5, 7, 11, 13):
        iso = f"C{k}"
    elif k == 4:
        iso = ("C2 x C2 (the Klein four group, a.k.a. the dihedral group "
               "of order 4)") if involutions == 3 else "C4"
    elif k == 6:
        iso = "C6" if abelian else "S3 (the dihedral group of order 6)"
    elif k == 8:
        if abelian:
            if max(multiset) == 8:
                iso = "C8"
            elif max(multiset) == 4:
                iso = "C4 x C2"
            else:
                iso = "C2 x C2 x C2"
        else:
            iso = ("Q8 (the quaternion group)" if involutions == 1
                   else "D4 (the dihedral group of order 8)")
    elif abelian and k <= 16:
        # element-order multisets separate the abelian groups up to order 16
        iso = {
            (9, 9): "C9", (9, 3): "C3 x C3",
            (10, 10): "C10", (12, 12): "C12", (12, 6): "C6 x C2",
            (14, 14): "C14", (15, 15): "C15",
            (16, 16): "C16", (16, 8): "C8 x C2", (16, 2): "C2 x C2 x C2 x C2",
            (16, 4): "C4 x C4" if involutions == 3 else "C4 x C2 x C2",
        }.get((k, max(multiset)))
    if iso is None:
        iso = f"{'abelian' if abelian else 'nonabelian'} group of order {k}"
    return {
        "order": k,
        "abelian": abelian,
        "element_orders": multiset,
        "iso_class": iso,
    }


def truncation_morphism(source, target):
    """The quotient map F0(m) -> F0(n) for n <= m: cut the shifted-coordinate
    expansion after the first n terms."""
    m = _algebra_of(source).exponents[0]
    n = _algebra_of(target).exponents[0]
    if n > m:
        raise StructureError(f"no truncation from {m} terms to {n}")
    # index bit t is the coefficient of u^(t+1): keep the target's n-1 bits
    return Morphism(source, target, np.arange(source.n) & (target.n - 1))
