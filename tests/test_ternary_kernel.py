"""Axioms, carriers, the O(n^3) certificates, the O(n^5) scans and
FiniteThreeField's validation."""

import functools
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternfield import (
    CarrierSizeError,
    FiniteThreeField,
    ProperThreeThreeField,
    StructureError,
    TernaryCarrier,
    build_envelope,
    check_distributivity,
    check_ternary_group,
    detect_derived_structure,
    kernel_backend,
    odd_residue_field,
    quer_add,
    triangular_field,
    twisted_coset,
)
from ternfield import ternary_kernel as tk
from ternfield.poly_fields import build_f0, generated_subalgebra, product_field


def decided(field):
    """The field validated again with every axiom decided: check="auto" with
    the gate at the field's own size."""
    return FiniteThreeField(field.carrier, field.one, field.origin, check="auto", limit=field.n)


@pytest.fixture(scope="module")
def odd8():
    return decided(odd_residue_field(8, check=False))


def binary_derived_carrier(m):
    """Z/mZ with nu = x+y+z and mu = x*y: has a zero, so not a proper field."""
    vals = np.arange(m)
    nu = (vals[:, None, None] + vals[None, :, None] + vals[None, None, :]) % m
    mu = (vals[:, None] * vals[None, :]) % m
    return TernaryCarrier([str(v) for v in vals],
                          nu.astype(np.int32), mu.astype(np.int32))


# -- axioms -----------------------------------------------------------------

@pytest.mark.parametrize("modulus", [2, 4, 8, 16, 32])
def test_odd_residues_satisfy_all_axioms(modulus):
    f = decided(odd_residue_field(modulus, check=False))
    assert f.n == modulus // 2
    assert f.label(f.one) == "1"
    assert check_ternary_group(f.carrier, limit=f.n)
    assert check_distributivity(f.carrier, limit=f.n)
    found = detect_derived_structure(f.carrier)
    assert found["unit"] == f.one
    assert found["zero"] is None


def test_no_zero_anywhere(odd8):
    # a zero would be additively neutral: nu(z, z, x) = x for all x
    n = odd8.n
    for z in range(n):
        assert any(odd8.nu(z, z, x) != x for x in range(n))


def test_zero_carrying_carrier_is_rejected():
    c = binary_derived_carrier(3)
    found = detect_derived_structure(c)
    assert found["unit"] == 1 and found["zero"] == 0
    # the zero cannot be multiplicatively invertible, so the carrier is out
    with pytest.raises(StructureError):
        FiniteThreeField(c, 1)


def test_unit_must_be_two_sided():
    f = odd_residue_field(8, check=False)
    with pytest.raises(StructureError, match="unit"):
        FiniteThreeField(f.carrier, f.index("3"))


# -- querelement ------------------------------------------------------------

def test_quer_defining_identity_and_involution(odd8):
    for x in odd8.elements():
        q = odd8.quer(x)
        assert odd8.nu(x, x, q) == x
        assert odd8.quer(q) == x


def test_quer_matches_negation_in_the_odd_model(odd8):
    # in (Z/8Z)^odd the querelement of v is -v
    for x in odd8.elements():
        v = int(odd8.label(x))
        assert int(odd8.label(odd8.quer(x))) == (-v) % 8


def test_quer_add_on_raw_carrier(odd8):
    for x in odd8.elements():
        assert quer_add(odd8.carrier, x) == odd8.quer(x)


def test_quer_asks_only_for_its_own_querelement():
    # an unchecked field where 3 has no unique querelement still answers for 1
    f = odd_residue_field(8, check=False)
    nu = f.carrier.nu.copy()
    three = f.index("3")
    nu[three, three] = three              # nu(3,3,t) = 3 for every t
    g = FiniteThreeField(TernaryCarrier(f.labels, nu, f.carrier.mu), f.one, check=False)
    assert g.quer(g.one) == g.index("7")  # -1 mod 8
    with pytest.raises(StructureError, match=r"^nu\(3,3,t\)=3 has 4 solutions"):
        g.quer(three)


def test_solvability_via_querelements(odd8):
    # the unique solution of nu(a,b,x) = c is x = nu(quer a, quer b, c)
    for a in odd8.elements():
        qa = odd8.quer(a)
        for b in odd8.elements():
            qb = odd8.quer(b)
            for c in odd8.elements():
                x = odd8.nu(qa, qb, c)
                assert odd8.nu(a, b, x) == c


# -- verdicts and witnesses ---------------------------------------------------

def test_broken_associativity_yields_least_witness():
    f = odd_residue_field(8, check=False)
    nu = f.carrier.nu.copy()
    # transpose one fiber: nu(0,0,*) gets a non-associative wrinkle
    nu[0, 0, 0], nu[0, 0, 1] = nu[0, 0, 1], nu[0, 0, 0]
    broken = TernaryCarrier(f.carrier.labels, nu, f.carrier.mu)
    v = check_ternary_group(broken, limit=broken.n)
    assert not v
    assert v.axiom in ("associativity", "commutativity", "solvability")
    assert v.witness is not None
    assert v.detail


def test_distributivity_witness_on_wrong_mu():
    f = odd_residue_field(8, check=False)
    mu = f.carrier.mu.copy()
    mu[2, 3], mu[2, 1] = mu[2, 1], mu[2, 3]
    broken = TernaryCarrier(f.carrier.labels, f.carrier.nu, mu)
    v = check_distributivity(broken, limit=broken.n)
    assert not v and v.witness is not None


# -- size gating --------------------------------------------------------------

def test_carrier_gate_raises_beyond_limit():
    f = odd_residue_field(128, check="light")
    with pytest.raises(CarrierSizeError):
        check_ternary_group(f.carrier)  # 64 > default gate 32
    assert check_ternary_group(f.carrier, limit=64)


def test_env_var_overrides_gate(monkeypatch):
    f = odd_residue_field(128, check="light")
    monkeypatch.setenv("TERNARY_MAX_CARRIER", "16")
    with pytest.raises(CarrierSizeError):
        check_ternary_group(odd_residue_field(64, check=False).carrier)
    monkeypatch.setenv("TERNARY_MAX_CARRIER", "64")
    assert check_ternary_group(f.carrier)


def test_full_check_ignores_gate():
    # an explicit limit makes check="auto" decide the axioms past the default gate
    f = odd_residue_field(128, check=False)
    with mock.patch.object(tk, "_decide_distributivity",
                           wraps=tk._decide_distributivity) as decide:
        FiniteThreeField(f.carrier, f.one, check="auto")
        assert decide.call_count == 0
        assert decided(f).n == 64
    assert decide.call_count == 1


@pytest.mark.parametrize("modulus", [2 ** k for k in range(1, 10)])
def test_odd_residue_tables_match_the_residue_arithmetic(modulus):
    # the residues themselves as the oracle: sums and products mod 2^k, one
    # first argument at a time, mapped back to indices by (r-1)/2
    f = odd_residue_field(modulus, check=False)
    vals = np.arange(1, modulus, 2, dtype=np.int64)
    assert list(f.labels) == [str(v) for v in vals] and f.one == 0
    assert (f.carrier.mu == (np.multiply.outer(vals, vals) % modulus - 1) // 2).all()
    for a, va in enumerate(vals):
        s3 = (va + vals[:, None] + vals) % modulus
        assert (f.carrier.nu[a] == (s3 - 1) // 2).all()


def test_odd_residue_tables_hold_no_wider_temporaries():
    tracemalloc.start()
    try:
        f = odd_residue_field(256, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.carrier.nu.nbytes == 2 ** 23
    assert peak < 10 * 2 ** 20, peak


# -- twisted cosets -----------------------------------------------------------

def test_twisted_coset_is_proper():
    from ternfield import build_f0
    f = build_f0(3)  # {1, x, x^2, x^2+x+1}, multiplicatively cyclic
    sub = [f.index("1"), f.index("x^2")]
    assert f.is_subfield(sub)
    t = f.index("x")  # x*x = x^2 lies in the subfield, x does not
    coset = twisted_coset(f, sub, t)
    assert isinstance(coset, ProperThreeThreeField)
    assert sorted(coset.labels) == ["x", "x^2+x+1"]
    found = detect_derived_structure(coset)
    assert found["unit"] is None  # properness: no unit at all


def test_twisted_coset_preconditions():
    from ternfield import build_f0
    f = build_f0(3)
    sub = [f.index("1"), f.index("x^2")]
    with pytest.raises(StructureError, match="outside"):
        twisted_coset(f, sub, f.index("x^2"))
    with pytest.raises(StructureError, match="not a unital 3-subfield"):
        twisted_coset(f, [f.one, f.index("x")], f.index("x^2+x+1"))


# -- serialization ------------------------------------------------------------

def test_carrier_json_round_trip(odd8):
    doc = odd8.to_json()
    assert doc["one"] == odd8.one
    assert doc["elements"] == list(odd8.labels)
    back = TernaryCarrier.from_json(doc)
    assert (back.nu == odd8.carrier.nu).all()
    assert (back.mu == odd8.carrier.mu).all()
    rebuilt = FiniteThreeField(back, doc["one"], check="auto", limit=back.n)
    assert rebuilt.n == odd8.n


# -- the scans against a pure-Python reference ----------------------------------
#
# The references walk the quintuples in row-major order with the laws in the
# order 1, 2, 3, one entry at a time, so the first failure they meet is the
# least witness the vectorised scans must report.

def reference_assoc(t):
    t = t.tolist()
    for a, b, c, d, e in itertools.product(range(len(t)), repeat=5):
        v1 = t[t[a][b][c]][d][e]
        if v1 != t[a][t[b][c][d]][e] or v1 != t[a][b][t[c][d][e]]:
            return (a, b, c, d, e)
    return None


def reference_distrib(s, m):
    s, m = s.tolist(), m.tolist()
    for a, b, c, d, e in itertools.product(range(len(s)), repeat=5):
        if m[s[a][b][c]][d][e] != s[m[a][d][e]][m[b][d][e]][m[c][d][e]]:
            return (1, a, b, c, d, e)
        if m[a][s[b][c][d]][e] != s[m[a][b][e]][m[a][c][e]][m[a][d][e]]:
            return (2, a, b, c, d, e)
        if m[a][b][s[c][d][e]] != s[m[a][b][c]][m[a][b][d]][m[a][b][e]]:
            return (3, a, b, c, d, e)
    return None


def test_compiled_backend_is_active():
    assert kernel_backend() == "numpy"


def test_assoc_scan_passes_valid_tables():
    for modulus in (4, 8, 16):
        nu = odd_residue_field(modulus, check=False).carrier.nu
        assert tk._assoc_scan(nu) is None
        assert reference_assoc(nu) is None


def test_assoc_scan_matches_reference_on_random_tables():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            op = rng.integers(0, n, size=(n, n, n), dtype=np.int32)
            assert tk._assoc_scan(op) == reference_assoc(op)


def test_distrib_scan_matches_reference_on_random_tables():
    # several laws usually fail at the least witness, which pins the law order
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(12):
            s, m = rng.integers(0, n, size=(2, n, n, n), dtype=np.int32)
            assert tk._distrib_scan(s, m) == reference_distrib(s, m)


@pytest.mark.parametrize("build", [functools.partial(odd_residue_field, 8, check=False),
                                   functools.partial(build_f0, 3, check="light")],
                         ids=["odd(8)", "F0(3)"])
def test_distrib_scan_matches_reference(build):
    f = build()
    nu, tmu = f.carrier.nu, f.carrier.derived_ternary_mu()
    assert tk._distrib_scan(nu, tmu) is None
    assert reference_distrib(nu, tmu) is None
    rng = np.random.default_rng(11)
    for _ in range(8):
        bad = tmu.copy()
        a, b, c = rng.integers(0, f.n, size=3)
        bad[a, b, c] = (bad[a, b, c] + 1) % f.n
        w = tk._distrib_scan(nu, bad)
        assert w is not None and w == reference_distrib(nu, bad)


# -- the scans' blocks -----------------------------------------------------------
#
# The scans compare the quintuples in blocks of consecutive (a, b) pairs: one
# pair, then twice as many per block up to a cap.  A single planted fault puts
# the least witness at a chosen (a, b), so that it lands on either side of a
# block boundary.  With the block budget patched to 1 entry every block is one
# pair.  Unpatched, the blocks of a = 0 are b = 0 | 1-2 | 3-4 at n = 5,
# 0 | 1-2 | 3-6 | 7 at n = 8 and 0 | 1-2 | 3-6 | 7-14 | 15 at n = 16, and
# each later a is one block.

BLOCK_TARGETS = {
    5: [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (4, 4)],
    8: [(0, 0), (0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (1, 0), (7, 0), (7, 7)],
    16: [(0, 0), (0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (0, 14), (0, 15), (1, 0),
         (1, 15)],
}


def spare(n, *used):
    """Two distinct elements outside `used`."""
    return [v for v in range(n) if v not in used][:2]


def assoc_fault(n, a, b):
    """A constant table k with t(a,b,z) = z: the only quintuple whose
    regroupings disagree is (a, b, a, b, z), where t(a,b,t(c,d,e)) reads the
    fault twice."""
    k, z = spare(n, a, b)
    t = np.full((n, n, n), k, dtype=np.int32)
    t[a, b, z] = z
    return t, (a, b, a, b, z)


def law3_fault(n, a, b):
    """Constant s and m, except m(a,b,k) = w: only law 3 at (a, b, ...) reads
    the fault, so the least witness is (3, a, b, 0, 0, 0)."""
    k, w = spare(n, a, b)
    s = np.full((n, n, n), k, dtype=np.int32)
    m = s.copy()
    m[a, b, k] = w
    return s, m, (3, a, b, 0, 0, 0)


@pytest.fixture(params=["cap", "one pair"])
def block_budget(request, monkeypatch):
    if request.param == "one pair":
        monkeypatch.setattr(tk, "_BLOCK_ENTRIES", 1)
    return request.param


@pytest.mark.parametrize("n", sorted(BLOCK_TARGETS))
def test_scan_blocks_cover_the_pairs_in_row_major_order(n, block_budget):
    blocks = list(tk._scan_blocks(n))
    pairs = [(a, b) for a, b0, b1 in blocks for b in range(b0, b1)]
    assert pairs == list(itertools.product(range(n), repeat=2))
    sizes = [b1 - b0 for a, b0, b1 in blocks]
    cap = 1 if block_budget == "one pair" else n
    assert max(sizes) == cap and sizes[:2] == [1, min(2, cap)]


@pytest.mark.parametrize("n", sorted(BLOCK_TARGETS))
def test_least_witness_on_either_side_of_a_block_boundary(n, block_budget):
    for a, b in BLOCK_TARGETS[n]:
        t, want = assoc_fault(n, a, b)
        assert tk._assoc_scan(t) == reference_assoc(t) == want
        s, m, want = law3_fault(n, a, b)
        assert tk._distrib_scan(s, m) == reference_distrib(s, m) == want


@pytest.mark.parametrize("n", [5, 8])
def test_law_tie_break_when_laws_fail_at_one_quintuple(n, block_budget):
    # constant s = m = 0 with one cell of m faulted: law 1 reads m(0,d,e),
    # law 2 reads m(a,0,e) and law 3 reads m(a,b,0)
    cases = {
        (0, 0, 0): (1, 0, 0, 0, 0, 0),          # all three laws at one quintuple
        (0, 0, 2): (1, 0, 0, 0, 0, 2),          # laws 1 and 2
        (n - 1, 0, 0): (2, n - 1, 0, 0, 0, 0),  # laws 2 and 3, in the last a
    }
    for cell, want in cases.items():
        s = np.zeros((n, n, n), dtype=np.int32)
        m = s.copy()
        m[cell] = 1
        assert tk._distrib_scan(s, m) == reference_distrib(s, m) == want
    # a fault of s at (0,0,0) breaks every law everywhere
    s = np.zeros((n, n, n), dtype=np.int32)
    s[0, 0, 0] = 1
    m = np.zeros_like(s)
    assert tk._distrib_scan(s, m) == reference_distrib(s, m) == (1, 0, 0, 0, 0, 0)


def test_early_witness_scans_stay_below_one_slab():
    # pi o nu on odd(128), n = 64: the witness is (0,0,0,0,1), in the first
    # block, and an n^4 int32 slab would be 64 MiB
    f = odd_residue_field(128, check=False)
    n = f.n
    nu = np.random.default_rng(0).permutation(n).astype(np.int32)[f.carrier.nu]
    tmu = f.carrier.derived_ternary_mu()
    slab = n ** 4 * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        w_assoc = tk._assoc_scan(nu)
        _, peak_assoc = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        w_distrib = tk._distrib_scan(nu, tmu)
        _, peak_distrib = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w_assoc == (0, 0, 0, 0, 1)
    assert w_distrib is not None and w_distrib[1:3] == (0, 0)
    assert peak_assoc < slab and peak_distrib < slab


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_law_checks_hold_no_whole_cube():
    # n = 128, where one int32 n^3 cube is 8 MiB; the tables themselves are
    # built before tracing starts
    f8, f7 = build_f0(8), build_f0(7)
    limit = 8 * 2 ** 20
    for check in (check_ternary_group, check_distributivity):
        v, peak = traced_peak(check, f8.carrier, limit=f8.n)
        assert v and v.method == "certificate"
        assert peak < limit, (check.__name__, peak)
    env, peak = traced_peak(build_envelope, f7)
    assert env.n == 128
    assert peak < limit, peak


def whole_cube_derived_structure(obj):
    """detect_derived_structure's report from the whole ternary product."""
    n, idx = obj.n, np.arange(obj.n)
    if isinstance(obj, ProperThreeThreeField):
        tmu = obj.ternary_mu
        unit = next((e for e in range(n) if (tmu[e, e] == idx).all()), None)
    else:
        tmu = obj.derived_ternary_mu()              # [i,j,k] -> mu[mu[i,j],k]
        unit = next((e for e in range(n) if (obj.mu[e] == idx).all()
                     and (obj.mu[:, e] == idx).all()), None)
    zero = next((z for z in range(n) if z != unit and (obj.nu[z, z] == idx).all()
                 and (tmu[z] == z).all()), None)
    return {"unit": unit, "zero": zero}


def test_derived_structure_builds_no_derived_cube():
    f3 = build_f0(3)
    carriers = [roster_field(name).carrier for name in ROSTER]
    carriers += [binary_derived_carrier(m) for m in (2, 3, 4, 6, 8)]
    # mu not associative: (0*j)*k = 0 for all j, k, though 0*(j*k) = 1
    z3 = binary_derived_carrier(3)
    carriers.append(TernaryCarrier(z3.labels, z3.nu, [[1, 1, 1], [0, 0, 0], [2, 2, 2]]))
    carriers.append(twisted_coset(f3, [f3.index("1"), f3.index("x^2")], f3.index("x")))
    reports = [detect_derived_structure(c) for c in carriers]
    assert reports == [whole_cube_derived_structure(c) for c in carriers]
    assert {r["zero"] for r in reports} == {None, 0}
    f = build_f0(3, 3, check=False)
    found, peak = traced_peak(detect_derived_structure, f.carrier)
    assert found == {"unit": f.one, "zero": None}
    assert peak < 8 * 2 ** 20, peak


def test_refused_sizes_are_written_in_decimal_within_the_digit_limit():
    tk._refuse_size(512, 512, "never raised")
    with pytest.raises(CarrierSizeError, match="^size 513 over 512$"):
        tk._refuse_size(513, 512, "size {size} over {limit}")
    for size, text in [(10 ** 4000, "1" + "0" * 4000), (2 ** 20000, "2^20000"),
                       (3 * 2 ** 20000, "more than 2^20001")]:
        with pytest.raises(StructureError, match=f"^ring of size {re.escape(text)}$"):
            tk._refuse_size(size, 512, "ring of size {size}", StructureError)


def test_odd_residues_past_the_table_limit_are_refused_before_any_table():
    # odd(2048) would need an 8 GiB int64 cube of sums
    with pytest.raises(CarrierSizeError, match="^carrier of size 1024 exceeds the build limit 512$"):
        odd_residue_field(2048, check=False)


# -- the chunked invariants against the whole-cube formulas ---------------------

def whole_cube_invariants(nu, mu, labels):
    """The cheap invariants over whole n^3 cubes: (axiom, witness, detail) of
    the first failure, commutativity, solvability, then mu-associativity."""
    n = len(nu)
    bad = (nu != nu.transpose(1, 0, 2)) | (nu != nu.transpose(0, 2, 1))
    if bad.any():
        w = tk._least(bad)
        return ("commutativity", w,
                "nu is not symmetric at ({},{},{})".format(*(labels[v] for v in w)))
    rows_ok = (np.sort(nu, axis=2) == np.arange(n)).all(axis=2)
    if not rows_ok.all():
        a, b = tk._least(~rows_ok)
        return ("solvability", (a, b),
                f"nu({labels[a]},{labels[b]},x) does not reach every element exactly once")
    bad = mu[mu] != mu[np.arange(n)[:, None, None], mu[None, :, :]]
    if bad.any():
        w = tk._least(bad)
        return ("mu-associativity", w,
                "mu is not associative at ({},{},{})".format(*(labels[v] for v in w)))
    return None


def chunked_invariants(nu, mu, labels):
    v = tk._nu_invariants(nu, labels)
    if v is None:
        v = tk._mu_invariants(mu, labels)
    return None if v is None else (v.axiom, v.witness, v.detail)


@pytest.mark.parametrize("rows", [1, 3, 7, 32])
def test_chunked_invariants_match_the_whole_cube(rows, monkeypatch):
    c = roster_field("odd(64)").carrier
    n, labels = c.n, c.labels
    monkeypatch.setattr(tk, "_BLOCK_ENTRIES", rows * n * n)   # rows per chunk
    rng = np.random.default_rng(rows)
    assert chunked_invariants(c.nu, c.mu, labels) is None
    seen = set()
    for _ in range(24):
        # faults whose least index lies anywhere, chunk edges included
        i, j, k = sorted(rng.integers(0, n, size=3))
        nu, mu = c.nu.copy(), c.mu.copy()
        kind = rng.integers(0, 4)
        if kind == 0:                       # one cell: no longer symmetric
            nu[j, i, k] = (nu[j, i, k] + 1) % n
        elif kind == 1:                     # symmetric, a row hits a value twice
            for cell in itertools.permutations((i, j, k)):
                nu[cell] = (c.nu[i, j, k] + 1) % n
        elif kind == 2:                     # mu no longer associative
            mu[i, j] = (mu[i, j] + 1) % n
        else:                               # a relabelled nu: passes
            pi = rng.permutation(n)
            inv = np.argsort(pi)
            nu = pi[c.nu[np.ix_(inv, inv, inv)]].astype(np.int32)
            mu = pi[c.mu[np.ix_(inv, inv)]].astype(np.int32)
        want = whole_cube_invariants(nu, mu, labels)
        assert chunked_invariants(nu, mu, labels) == want
        seen.add(None if want is None else want[0])
    assert len(seen) >= 3


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


def verdicts_and_error(carrier, one):
    """Both checkers' verdicts in full, and the message FiniteThreeField
    raises when it decides every axiom (None when it accepts), on a fresh
    copy of the carrier, so that its retract is computed under the current
    chunk size."""
    carrier, n = with_tables(carrier), carrier.n
    vs = [(v.ok, v.axiom, v.witness, v.detail, v.method)
          for v in (check_ternary_group(carrier, limit=n),
                    check_distributivity(carrier, limit=n))]
    try:
        FiniteThreeField(carrier, one, check="auto", limit=n)
    except StructureError as exc:
        return vs, str(exc)
    return vs, None


@pytest.mark.parametrize("name", ["F0(5)", "odd(32)"])
def test_small_chunks_give_the_same_verdicts_and_errors(name, monkeypatch):
    # 64 entries per chunk: every law check walks many chunks, so a witness
    # found past a chunk boundary must come out as at the default size
    f = roster_field(name)
    mutants = list(swapped_cell_mutants(f.carrier, np.random.default_rng(f.n), 12))
    want = [verdicts_and_error(c, f.one) for c in [f.carrier] + mutants]
    monkeypatch.setattr(tk, "_BLOCK_ENTRIES", 64)
    assert [verdicts_and_error(c, f.one) for c in [f.carrier] + mutants] == want
    assert want[0] == ([(True, None, None, None, "certificate")] * 2, None)
    assert len({err for _, err in want}) >= 4


# -- certificates against the scan ---------------------------------------------
#
# The scan is the oracle: a passing certificate must mean the NumPy scan finds
# no witness, the certificate must pass on every valid field (so the fast path
# is really taken), and with the certificate failing the verdict must be the
# scan's, witness, axiom and detail alike.

ROSTER = {
    **{f"odd({m})": functools.partial(odd_residue_field, m, check=False)
       for m in (4, 8, 16, 32, 64)},
    **{f"F0({k})": functools.partial(build_f0, k, check="light") for k in (2, 3, 4, 5, 6)},
    "F0(2,2)": functools.partial(build_f0, 2, 2, check="light"),
    "F0(3,2)": functools.partial(build_f0, 3, 2, check="light"),
    "F0(2)xF0(3)": lambda: product_field(build_f0(2), build_f0(3), check="light").field,
    "F0(3)xF0(3)": lambda: product_field(build_f0(3), build_f0(3), check="light").field,
}


# the roster fields whose scans take well under a second on NumPy (n <= 16)
SMALL = ["odd(4)", "odd(8)", "odd(16)", "odd(32)", "F0(2)", "F0(3)", "F0(4)", "F0(5)",
         "F0(2,2)", "F0(2)xF0(3)", "F0(3)xF0(3)"]


@functools.lru_cache(maxsize=None)
def roster_field(name):
    return ROSTER[name]()


def relabel(carrier, perm):
    """The same structure with element i renamed perm[i]."""
    perm = np.asarray(perm, dtype=np.int32)
    inv = np.argsort(perm)
    nu = perm[carrier.nu[np.ix_(inv, inv, inv)]]
    mu = perm[carrier.mu[np.ix_(inv, inv)]]
    return TernaryCarrier([carrier.labels[i] for i in inv], nu, mu)


def with_tables(carrier, nu=None, mu=None):
    return TernaryCarrier(carrier.labels,
                          carrier.nu if nu is None else nu,
                          carrier.mu if mu is None else mu)


def scan_only():
    """Every carrier without a certified retract, cached or not: both
    decisions go to the scan."""
    return mock.patch.object(TernaryCarrier, "retract", property(lambda c: None))


def assert_agrees_with_scan(carrier):
    """Both checks give the scan's verdict; returns the fast verdicts."""
    n = carrier.n
    fast = (check_ternary_group(carrier, limit=n), check_distributivity(carrier, limit=n))
    with scan_only():
        slow = (check_ternary_group(carrier, limit=n), check_distributivity(carrier, limit=n))
    for f, s in zip(fast, slow):
        assert f.as_dict() == s.as_dict()
        assert f.method in ("cheap", "certificate", "scan")
        if f.method != "certificate":
            assert f.method == s.method
    return fast


def perturbations(carrier, rng):
    """Tables passing every cheap invariant that a scan has to judge:
    pi o nu, and mu conjugated by a permutation sigma."""
    n = carrier.n
    pi = rng.permutation(n).astype(np.int32)
    yield with_tables(carrier, nu=pi[carrier.nu])
    sigma = rng.permutation(n).astype(np.int32)
    inv = np.argsort(sigma)
    yield with_tables(carrier, mu=sigma[carrier.mu[np.ix_(inv, inv)]])


@pytest.mark.parametrize("name", list(ROSTER))
def test_certificates_pass_on_valid_fields(name):
    c = roster_field(name).carrier
    rng = np.random.default_rng(len(name))
    for carrier in (c, relabel(c, rng.permutation(c.n))):
        assert carrier.retract is not None
        assert tk._distrib_certificate(carrier.retract, carrier.mu)
        v_add = check_ternary_group(carrier, limit=carrier.n)
        v_mul = check_distributivity(carrier, limit=carrier.n)
        assert v_add.method == v_mul.method == "certificate"
        assert v_add and v_mul


@pytest.mark.parametrize("name", SMALL)
def test_passing_certificate_means_no_scan_witness(name):
    c = roster_field(name).carrier
    assert c.retract is not None and tk._assoc_scan(c.nu) is None
    assert tk._distrib_certificate(c.retract, c.mu)
    assert tk._distrib_scan(c.nu, c.derived_ternary_mu()) is None


def test_relabelled_unit_off_index_zero_agrees_with_scan():
    rng = np.random.default_rng(3)
    for name in ("odd(16)", "F0(4)", "F0(2)xF0(3)"):
        f = roster_field(name)
        perm = rng.permutation(f.n)
        while perm[f.one] == 0:
            perm = rng.permutation(f.n)
        fast = assert_agrees_with_scan(relabel(f.carrier, perm))
        assert [v.method for v in fast] == ["certificate", "certificate"]


@pytest.mark.parametrize("name", ["odd(8)", "odd(16)", "odd(32)", "F0(3)", "F0(4)",
                                  "F0(5)", "F0(2,2)", "F0(2)xF0(3)", "F0(3)xF0(3)"])
def test_failing_verdicts_are_the_scans(name):
    f = roster_field(name)
    rng = np.random.default_rng(f.n)
    for carrier in perturbations(relabel(f.carrier, rng.permutation(f.n)), rng):
        assert_agrees_with_scan(carrier)


@pytest.mark.parametrize("pair", [("odd(8)", "F0(3)"), ("odd(16)", "F0(4)"),
                                  ("odd(32)", "F0(5)"), ("odd(32)", "F0(3)xF0(3)"),
                                  ("odd(64)", "F0(6)"), ("odd(64)", "F0(3,2)")])
def test_swapped_nu_mu_pairs_agree_with_scan(pair):
    a, b = (roster_field(name).carrier for name in pair)
    for nu_of, mu_of in ((a, b), (b, a)):
        v_add, v_mul = assert_agrees_with_scan(with_tables(nu_of, mu=mu_of.mu))
        assert v_add.method == "certificate"
        assert v_mul.method == ("certificate" if v_mul else "scan")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["odd(4)", "odd(8)", "odd(16)", "F0(3)", "F0(4)", "F0(2,2)"]),
       st.integers(0, 2**32 - 1), st.sampled_from(["relabel", "pi-nu", "mu"]))
def test_certificates_agree_with_scan_on_random_tables(name, seed, kind):
    f = roster_field(name)
    rng = np.random.default_rng(seed)
    carrier = relabel(f.carrier, rng.permutation(f.n))
    if kind != "relabel":
        carrier = list(perturbations(carrier, rng))[kind == "mu"]
    assert_agrees_with_scan(carrier)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_certificates_agree_with_scan_on_arbitrary_tables(n, seed):
    rng = np.random.default_rng(seed)
    nu = rng.integers(0, n, size=(n, n, n), dtype=np.int32)
    nu = np.minimum(nu, nu.transpose(1, 0, 2)) if seed % 2 else nu
    mu = rng.integers(0, n, size=(n, n), dtype=np.int32)
    carrier = TernaryCarrier([str(i) for i in range(n)], nu, mu)
    assert_agrees_with_scan(carrier)
    assert_retract_matches_the_split_certificates(with_tables(carrier))


def odd_twist_carrier():
    """x+y+z+2[x,y,z all odd] on Z/4 with mu = x*y: symmetric and uniquely
    solvable, its retract at 0 is Z/4, yet nu is not of the form x+y+z+k."""
    v = np.arange(4)
    odd = v % 2
    nu = (v[:, None, None] + v[None, :, None] + v[None, None, :]
          + 2 * odd[:, None, None] * odd[None, :, None] * odd[None, None, :]) % 4
    return TernaryCarrier("0123", nu, (v[:, None] * v[None, :]) % 4)


def identity_free_carrier():
    """nu factoring through {0,1} -> 0, {2} -> 1 onto Z/2, so the retract
    x o y = nu(x,2,y) has no identity; distributivity fails."""
    nu = [[[2, 2, 0], [2, 2, 0], [0, 0, 2]], [[2, 2, 0], [2, 2, 0], [0, 0, 2]],
          [[0, 0, 2], [0, 0, 2], [2, 2, 0]]]
    mu = [[0, 1, 2], [1, 1, 2], [2, 2, 1]]
    return TernaryCarrier("abc", nu, mu)


def test_associative_retract_alone_certifies_nothing():
    carrier = odd_twist_carrier()
    assert carrier.retract is None
    v_add, v_mul = assert_agrees_with_scan(carrier)
    assert not v_add and v_add.method == "scan"
    assert v_mul.method == "scan"


def test_retract_without_identity_certifies_nothing():
    carrier = identity_free_carrier()
    assert carrier.retract is None
    # a coset form over a retract with no identity: the retract's group
    # checks, not the form, refuse it
    assert split_assoc_certificate(carrier.nu) is not None
    v_mul = assert_agrees_with_scan(carrier)[1]
    assert not v_mul and v_mul.method == "scan"


# -- the certified retract against the split certificates -----------------------
#
# The oracles are the certificates as two functions with two acceptance
# tests, the associativity one handing its retract to the distributivity one
# through `coset`.  The carrier's one certified retract must reproduce them:
# equal acceptance wherever associativity is decided (nu passed the cheap
# invariants), equal distributivity acceptance everywhere, and both
# checkers' verdicts and methods equal to the split form's.

def split_retract(nu):
    sols = np.flatnonzero(nu[0, 0] == 0)
    if len(sols) != 1:
        return None
    return np.ascontiguousarray(nu[:, int(sols[0]), :]), int(nu[0, 0, 0])


def split_assoc_certificate(nu):
    r = split_retract(nu)
    return r if r is not None and tk._is_coset_form(nu, *r) else None


def split_distrib_certificate(nu, mu, coset=None):
    r = coset or split_retract(nu)
    if r is None:
        return False
    o, k = r
    n = len(o)
    zero = o == 0
    if not (tk._identity(o) == 0 and (o == o.T).all() and zero.any(axis=1).all()
            and (coset is not None or tk._is_coset_form(nu, o, k))):
        return False
    neg = np.argmax(zero, axis=1)
    trans = np.concatenate([mu, mu.T])
    c = trans[:, 0]
    g = o[trans, neg[c][:, None]]
    if not (g[:, k] == o[o[c, c], k]).all():
        return False
    return tk._first_violation(2 * n, n * n, lambda rows: g[rows][:, o]
                               != o[g[rows][:, :, None], g[rows][:, None, :]]) is None


def scanned(check, c):
    with scan_only():
        return check(with_tables(c), limit=c.n)


def split_verdicts(c):
    """(as_dict, method) of both checkers with the split certificates in
    front of the unchanged cheap invariants and scans, for closed tables."""
    certificate = tk.Verdict(True, method="certificate")
    v_add = tk._nu_invariants(c.nu, c.labels)
    if v_add is None:
        v_add = (certificate if split_assoc_certificate(c.nu) is not None
                 else scanned(check_ternary_group, c))
    v_mul = tk._mu_invariants(c.mu, c.labels)
    if v_mul is None:
        v_mul = (certificate if split_distrib_certificate(c.nu, c.mu)
                 else scanned(check_distributivity, c))
    return [(v.as_dict(), v.method) for v in (v_add, v_mul)]


def verdicts(c):
    return [(v.as_dict(), v.method)
            for v in (check_ternary_group(c, limit=c.n), check_distributivity(c, limit=c.n))]


def assert_retract_matches_the_split_certificates(c):
    r = c.retract
    if tk._nu_invariants(c.nu, c.labels) is None:
        assert (r is None) == (split_assoc_certificate(c.nu) is None)
    if r is not None:
        o, k = split_retract(c.nu)
        assert (r[0] == o).all() and r[1] == k
    accepted = r is not None and tk._distrib_certificate(r, c.mu)
    assert bool(accepted) == bool(split_distrib_certificate(c.nu, c.mu))
    assert verdicts(c) == split_verdicts(c)


@pytest.mark.parametrize("name", list(ROSTER))
def test_retract_matches_the_split_certificates(name):
    c = roster_field(name).carrier
    rng = np.random.default_rng(c.n)
    for perm in (np.arange(c.n), *(rng.permutation(c.n) for _ in range(9))):
        relabelled = relabel(c, perm)
        assert_retract_matches_the_split_certificates(relabelled)
        for carrier in perturbations(relabelled, rng):
            assert_retract_matches_the_split_certificates(carrier)


def test_retract_matches_the_split_certificates_on_hand_made_tables():
    for carrier in (odd_twist_carrier(), identity_free_carrier()):
        assert_retract_matches_the_split_certificates(carrier)


def test_verdict_method_records_how_it_was_reached():
    f = roster_field("F0(3)")
    v = check_ternary_group(f.carrier)
    assert v.method == "certificate" and set(v.as_dict()) == {"ok", "axiom", "witness", "detail"}
    nu = f.carrier.nu.copy()
    nu[0, 1, 2] = nu[0, 2, 1] = (nu[0, 1, 2] + 1) % f.n
    assert check_ternary_group(with_tables(f.carrier, nu=nu)).method == "cheap"
    sub = [f.index("1"), f.index("x^2")]
    coset = twisted_coset(f, sub, f.index("x"))
    v = check_distributivity(coset)
    assert v and v.method == "scan"
    assert check_ternary_group(f.carrier) is not check_ternary_group(f.carrier)


# -- FiniteThreeField validation ---------------------------------------------
#
# FiniteThreeField validates itself with the checkers' own invariant and
# decision functions: every check mode rejects a broken cheap invariant, only
# "auto" reaches the scan, and each invariant runs once.  The test mode
# "full" is "auto" with the gate at the carrier's own size.

CHECK_MODES = {"light": lambda c: {"check": "light"},
               "auto": lambda c: {"check": "auto"},
               "full": lambda c: {"check": "auto", "limit": c.n}}

def _non_symmetric_nu(c):
    nu = c.nu.copy()
    nu[0, 1, 2], nu[0, 1, 3] = nu[0, 1, 3], nu[0, 1, 2]
    return with_tables(c, nu=nu)


def _non_permutation_row(c):
    nu = c.nu.copy()
    for cell in itertools.permutations((0, 1, 2)):
        nu[cell] = c.nu[0, 1, 3]          # nu(0,1,.) takes that value twice
    return with_tables(c, nu=nu)


def _non_associative_mu(c):
    # swap an intercalate of the group table: still a Latin square with the
    # same unit and inverses, but no longer associative
    mu = c.mu.copy()
    seven, nine = c.index("7"), c.index("9")
    for row in (c.index("3"), c.index("13")):
        mu[row, seven], mu[row, nine] = mu[row, nine], mu[row, seven]
    return with_tables(c, mu=mu)


BROKEN = {  # kind -> (carrier, unit index, what the error names)
    "non-symmetric nu": (lambda: _non_symmetric_nu(roster_field("odd(16)").carrier), 0,
                         "not symmetric"),
    "non-permutation nu row": (lambda: _non_permutation_row(roster_field("odd(16)").carrier),
                               0, "exactly once"),
    "non-associative mu": (lambda: _non_associative_mu(roster_field("odd(16)").carrier), 0,
                           "not associative"),
    # a zero absorbs the product, so it has no inverse: that check catches it
    "additive zero": (lambda: binary_derived_carrier(3), 1, "inverse"),
}


@pytest.mark.parametrize("check", list(CHECK_MODES))
@pytest.mark.parametrize("kind", list(BROKEN))
def test_every_check_mode_rejects_a_broken_invariant(kind, check):
    build, one, what = BROKEN[kind]
    carrier = build()
    with pytest.raises(StructureError, match=what):
        FiniteThreeField(carrier, one, **CHECK_MODES[check](carrier))


@pytest.mark.parametrize("check", list(CHECK_MODES))
def test_only_the_scanning_modes_reject_a_scan_only_failure(check):
    # nu of a relabelled odd(16) with the multiplication of F0(4) passes every
    # cheap invariant; distributivity fails, and only the scan can say so
    odd16, f4 = roster_field("odd(16)"), roster_field("F0(4)")
    relabelled = relabel(odd16.carrier, np.random.default_rng(5).permutation(odd16.n))
    carrier = with_tables(relabelled, mu=f4.carrier.mu)
    if check == "light":
        FiniteThreeField(carrier, f4.one, **CHECK_MODES[check](carrier))
    else:
        with pytest.raises(StructureError, match="distributivity fails: law 1"):
            FiniteThreeField(carrier, f4.one, **CHECK_MODES[check](carrier))


def test_auto_construction_runs_each_invariant_once():
    c = with_tables(roster_field("odd(32)").carrier)    # no retract cached yet

    def counting(name):
        return mock.patch.object(tk, name, wraps=getattr(tk, name))

    with counting("_closure") as closure, counting("_nu_invariants") as nu_inv, \
            counting("_mu_invariants") as mu_inv, counting("_zero_element") as zero, \
            counting("_coset_retract") as retract, counting("_is_coset_form") as coset, \
            counting("_distrib_certificate") as distrib, \
            mock.patch.object(TernaryCarrier, "derived_ternary_mu") as derived:
        FiniteThreeField(c, 0, check="auto")
    assert closure.call_count == 2                  # nu, then mu
    assert nu_inv.call_count == mu_inv.call_count == 1
    assert zero.call_count == 0                     # a 3-field's group mu has no zero
    # both decisions read the carrier's retract, so the coset form of nu is
    # checked once
    assert retract.call_count == coset.call_count == distrib.call_count == 1
    assert derived.call_count == 0                  # the certificates need no mu(mu(x,y),z)


@pytest.mark.parametrize("first", [check_ternary_group, check_distributivity])
def test_both_checkers_on_one_carrier_check_the_coset_form_once(first):
    c = with_tables(roster_field("odd(32)").carrier)
    second = check_distributivity if first is check_ternary_group else check_ternary_group
    with mock.patch.object(tk, "_is_coset_form", wraps=tk._is_coset_form) as coset:
        assert first(c, limit=c.n).method == "certificate"
        assert coset.call_count == 1                # either checker alone checks it
        assert second(c, limit=c.n).method == "certificate"
        FiniteThreeField(c, 0, check="auto")
    assert coset.call_count == 1


def test_standalone_distributivity_check_still_checks_the_coset_form():
    c = with_tables(roster_field("odd(32)").carrier)
    with mock.patch.object(tk, "_is_coset_form", wraps=tk._is_coset_form) as coset:
        assert check_distributivity(c, limit=c.n).method == "certificate"
    assert coset.call_count == 1
    # a nu that is not of coset form has no retract, and the scan decides
    bad = with_tables(c, nu=np.random.default_rng(3).permutation(c.n).astype(np.int32)[c.nu])
    assert bad.retract is None and split_assoc_certificate(bad.nu) is None
    assert not split_distrib_certificate(bad.nu, bad.mu)
    assert check_distributivity(bad, limit=bad.n).method == "scan"


def test_check_distributivity_builds_no_second_ternary_product():
    c = roster_field("odd(16)").carrier
    with mock.patch.object(TernaryCarrier, "derived_ternary_mu") as derived:
        assert check_distributivity(c, limit=c.n).method == "certificate"
        with scan_only():
            assert check_distributivity(c, limit=c.n).method == "scan"
    assert derived.call_count == 0


# -- sub-tables against their scalar definitions ------------------------------

def reference_subset_carrier(field, indices):
    """The restriction built one cell at a time: (labels, nu, mu, nu_foreign,
    mu_foreign)."""
    back = {g: s for s, g in enumerate(indices)}
    n = len(indices)
    nu = np.empty((n, n, n), dtype=np.int32)
    mu = np.empty((n, n), dtype=np.int32)
    nu_f, mu_f = {}, {}
    for (a, ga), (b, gb) in itertools.product(enumerate(indices), repeat=2):
        r = field.mu(ga, gb)
        mu[a, b] = back.get(r, tk.FOREIGN)
        if r not in back:
            mu_f[(a, b)] = field.label(r)
        for c, gc in enumerate(indices):
            r = field.nu(ga, gb, gc)
            nu[a, b, c] = back.get(r, tk.FOREIGN)
            if r not in back:
                nu_f[(a, b, c)] = field.label(r)
    return [field.label(g) for g in indices], nu, mu, nu_f, mu_f


def reference_is_subfield(field, indices):
    s = set(indices)
    return field.one in s and all(
        field.inv(a) in s and field.mu(a, b) in s
        and all(field.nu(a, b, c) in s for c in s)
        for a in s for b in s)


def cyclic_subgroup(field, t):
    """The powers of t: closed under mu and inverses, not always under nu."""
    out = [field.one]
    while field.mu(out[-1], t) != field.one:
        out.append(field.mu(out[-1], t))
    return out


def random_subsets(field, count, seed):
    """Random index lists in random order, plus the closures of single
    elements, which are subfields, and the powers of every element."""
    rng = np.random.default_rng(seed)
    out = [rng.permutation(field.n)[:rng.integers(1, min(field.n, 12) + 1)].tolist()
           for _ in range(count)]
    return (out + [generated_subalgebra(field, [t])[0]
                   for t in range(0, field.n, max(1, field.n // 8))]
            + [cyclic_subgroup(field, t) for t in range(field.n)])


@pytest.mark.parametrize("name", ["F0(4)", "F0(5)", "odd(32)"])
def test_subset_carrier_matches_reference(name):
    f = roster_field(name)
    for s in random_subsets(f, 20, seed=11):
        c = f.subset_carrier(s)
        labels, nu, mu, nu_f, mu_f = reference_subset_carrier(f, s)
        assert list(c.labels) == labels
        assert (c.nu == nu).all() and (c.mu == mu).all()
        assert c.nu_foreign == nu_f and c.mu_foreign == mu_f
        assert all(type(v) is int for key in (*c.nu_foreign, *c.mu_foreign) for v in key)


def test_retract_is_read_only_and_none_on_carriers_that_are_not_closed():
    f = roster_field("F0(4)")
    o, k = f.carrier.retract
    assert not o.flags.writeable
    carriers = [f.subset_carrier(s) for s in random_subsets(f, 20, seed=13)]
    not_closed = [c for c in carriers if c.nu.min() < 0]
    assert not_closed and all(c.retract is None for c in not_closed)


def test_is_subfield_matches_reference_on_every_subset_of_f0_3():
    f = roster_field("F0(3)")
    subsets = [list(s) for r in range(f.n + 1) for s in itertools.combinations(range(f.n), r)]
    assert len(subsets) == 16
    verdicts = [f.is_subfield(s) for s in subsets]
    assert verdicts == [reference_is_subfield(f, s) for s in subsets]
    assert sum(verdicts) == 3        # {1}, {1, x^2} and the whole field


@pytest.mark.parametrize("name", ["odd(16)", "F0(5)"])
def test_is_subfield_matches_reference_on_random_subsets(name):
    f = roster_field(name)
    subsets = random_subsets(f, 40, seed=12)
    verdicts = [f.is_subfield(s) for s in subsets]
    assert verdicts == [reference_is_subfield(f, s) for s in subsets]
    assert any(verdicts)
    # some group of powers is not closed under nu: only nu decides there
    assert not all(verdicts[-f.n:])


def reference_twisted_coset(field, f1, t):
    """The coset tables built one cell at a time; raises at the first cell,
    row-major, that leaves the coset, nu before the ternary product."""
    coset = sorted({field.mu(t, f) for f in f1})
    back = {g: s for s, g in enumerate(coset)}
    n = len(coset)
    nu = np.empty((n, n, n), dtype=np.int32)
    tmu = np.empty((n, n, n), dtype=np.int32)
    for (a, ga), (b, gb), (c, gc) in itertools.product(enumerate(coset), repeat=3):
        r = field.nu(ga, gb, gc)
        if r not in back:
            raise StructureError(
                f"coset not closed under nu: nu({field.label(ga)},"
                f"{field.label(gb)},{field.label(gc)}) = {field.label(r)}")
        nu[a, b, c] = back[r]
        m = field.mu(field.mu(ga, gb), gc)
        if m not in back:
            raise StructureError(
                f"coset not closed under the ternary product at "
                f"({field.label(ga)},{field.label(gb)},{field.label(gc)})")
        tmu[a, b, c] = back[m]
    return [field.label(g) for g in coset], nu, tmu


@functools.lru_cache(maxsize=None)
def triangular_f0_2():
    return triangular_field(2, build_f0(2)).field


def test_twisted_coset_matches_reference_over_every_subfield():
    f = triangular_f0_2()
    subfields = sorted({tuple(generated_subalgebra(f, [a, b])[0])
                        for a in range(f.n) for b in range(a, f.n)})
    messages, cosets = set(), 0
    for sub in subfields:
        for t in range(f.n):
            if t in sub or f.mu(t, t) not in sub:
                continue
            try:
                expected = reference_twisted_coset(f, sub, t)
            except StructureError as exc:
                with pytest.raises(StructureError) as got:
                    twisted_coset(f, sub, t)
                assert str(got.value) == str(exc)
                messages.add(str(exc))
                continue
            try:
                coset = twisted_coset(f, sub, t)
            except StructureError as exc:        # a unit: not a proper (3,3)-field
                assert "multiplicative unit" in str(exc)
                continue
            labels, nu, tmu = expected
            assert list(coset.labels) == labels
            assert (coset.nu == nu).all() and (coset.ternary_mu == tmu).all()
            # a carrier with no binary mu that decides as the split
            # certificates did; its genuine product is always scanned
            assert isinstance(coset, TernaryCarrier) and coset.mu is None
            assert coset.nu_foreign == coset.mu_foreign == {}
            certified = split_assoc_certificate(coset.nu) is not None
            assert (coset.retract is not None) == certified
            v_add, v_mul = check_ternary_group(coset), check_distributivity(coset)
            assert v_add and v_add.method == ("certificate" if certified else "scan")
            assert v_mul and v_mul.method == "scan"
            cosets += 1
    assert len(messages) == 16 and cosets == 8


@pytest.mark.parametrize("sub,t,witness", [
    (["[1;1,1]", "[1;q(1),1]"], "[1;q(1),x]", "[1;x,x],[1;x,x],[1;x,x]"),
    (["[1;q(1),1]", "[1;q(1),x]"], "[1;1,1]", "[1;1,1],[1;1,x],[1;1,1]"),
    (["[1;q(1),1]", "[1;q(x),x]"], "[x;1,x]", "[x;1,x],[x;x,1],[x;1,x]"),
    (["[1;q(1),1]", "[x;1,x]"], "[1;q(1),x]", "[1;q(1),x],[x;x,1],[1;q(1),x]"),
    (["[1;q(1),1]", "[x;q(x),1]"], "[1;x,1]", "[1;x,1],[x;x,1],[1;x,1]"),
])
def test_twisted_coset_closure_failures_name_the_least_cell(sub, t, witness):
    f = triangular_f0_2()
    with pytest.raises(StructureError) as got:
        twisted_coset(f, generated_subalgebra(f, [f.index(s) for s in sub])[0], f.index(t))
    assert str(got.value) == f"coset not closed under the ternary product at ({witness})"


# -- the check argument ---------------------------------------------------------

@pytest.mark.parametrize("check", ["lite", "none", True, None, "Auto", "full"])
def test_unknown_check_value_is_rejected(odd8, check):
    with pytest.raises(ValueError, match="^check must be False, 'light' or 'auto', not "):
        FiniteThreeField(odd8.carrier, odd8.one, check=check)


def test_light_product_runs_no_certificate():
    f1, f3 = build_f0(1), build_f0(3)
    with mock.patch.object(tk, "_coset_retract", wraps=tk._coset_retract) as retract:
        product_field(f1, f3, check="light")
    assert retract.call_count == 0
