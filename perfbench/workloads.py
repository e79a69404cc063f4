"""The four workloads: inputs made from the seed, the fixed job list, and an
answer check for every job.

A job is run through a tracer (``tracing.NullTracer`` when untraced) and
returns the program's answer; ``check`` returns None for a correct answer
or a one-line reason.  Checks run after a pass, outside its timing.

Every workload's job list mixes a cheap majority, a middle block holding
about 12% of the jobs and a heavy tail of about 4%, so that the median
latency always falls among the cheap jobs and the 90th percentile inside
the middle block, whatever the seed and however many passes a run makes.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from ternfield import automorphisms as aut
from ternfield import cli
from ternfield import pair_envelope as pe
from ternfield import poly_fields as pf
from ternfield import ternary_kernel as tk

import tracing as L


class Job:
    """vectorized: the share of the job's time spent in whole-array NumPy
    work (0 for interpreter-bound jobs), which picks how its latency is
    scaled for the machine's slowdown."""

    __slots__ = ("name", "run", "check", "vectorized")

    def __init__(self, name, run, check, vectorized=0.0):
        self.name = name
        self.run = run
        self.check = check
        self.vectorized = vectorized


def _scan_share(n):
    """Field checks at n >= 32 are whole-array scans; at n = 8, small calls."""
    return {8: 0.0, 16: 0.5}.get(n, 1.0)


def _odd(modulus):
    return lambda tr: tr.call(L.CONSTRUCT, tk.odd_residue_field, modulus, check="light")


def _f0(*exponents):
    return lambda tr: tr.call(L.POLY_CONSTRUCT, pf.build_f0, *exponents, check="light")


def _product(*exponents):
    def build(tr):
        factors = [pf.build_f0(k, check="light") for k in exponents]
        return tr.call(L.POLY_CONSTRUCT, pf.product_field, *factors,
                       check="light").field
    return build


FIELDS = {
    "odd(16)": _odd(16), "odd(32)": _odd(32), "odd(64)": _odd(64),
    "odd(128)": _odd(128),
    "F0(3)": _f0(3), "F0(4)": _f0(4), "F0(5)": _f0(5), "F0(6)": _f0(6),
    "F0(7)": _f0(7), "F0(2,2)": _f0(2, 2), "F0(3,2)": _f0(3, 2),
    "F0(2,3)": _f0(2, 3),
    "F0(2)xF0(3)": _product(2, 3), "F0(3)xF0(3)": _product(3, 3),
    "F0(3)xF0(4)": _product(3, 4),
}


# -- independent oracles over the raw tables -----------------------------------

def derived_ternary(mu):
    return mu[mu]                               # [i,j,k] -> mu[mu[i,j],k]


def assoc_violated(nu, w):
    a, b, c, d, e = w
    v1 = nu[nu[a, b, c], d, e]
    return not (v1 == nu[a, nu[b, c, d], e] == nu[a, b, nu[c, d, e]])


def distrib_violated(nu, tmu, law, w):
    s, m = nu, tmu
    a, b, c, d, e = w
    if law == 1:
        return m[s[a, b, c], d, e] != s[m[a, d, e], m[b, d, e], m[c, d, e]]
    if law == 2:
        return m[a, s[b, c, d], e] != s[m[a, b, e], m[a, c, e], m[a, d, e]]
    return m[a, b, s[c, d, e]] != s[m[a, b, c], m[a, b, d], m[a, b, e]]


def _first(bad):
    if not bad.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(bad)), bad.shape))


def brute_assoc(nu):
    """Least associativity witness over all n^5 quintuples at once, or None."""
    A, B, C, D, E = np.ix_(*[np.arange(nu.shape[0])] * 5)
    v1 = nu[nu[A, B, C], D, E]
    return _first((v1 != nu[A, nu[B, C, D], E]) | (v1 != nu[A, B, nu[C, D, E]]))


def brute_distrib(nu, tmu):
    """Least (law, quintuple) violating ternary distributivity, or None."""
    s, m = nu, tmu
    A, B, C, D, E = np.ix_(*[np.arange(nu.shape[0])] * 5)
    laws = (m[s[A, B, C], D, E] != s[m[A, D, E], m[B, D, E], m[C, D, E]],
            m[A, s[B, C, D], E] != s[m[A, B, E], m[A, C, E], m[A, D, E]],
            m[A, B, s[C, D, E]] != s[m[A, B, C], m[A, B, D], m[A, B, E]])
    w = _first(laws[0] | laws[1] | laws[2])
    if w is None:
        return None
    law = next(k for k in range(3) if laws[k][w]) + 1
    return law, w


# -- verify and refute: what `field check` does ----------------------------------

def _field_check(carrier, one):
    n = carrier.n

    def run(tr):
        tr.call(L.INVARIANTS, tk.FiniteThreeField, carrier, one, check="light")
        v_add = tr.call(L.SCAN_ASSOC, tk.check_ternary_group, carrier, limit=n)
        v_mul = tr.call(L.SCAN_DISTRIB, tk.check_distributivity, carrier, limit=n)
        found = tr.call(L.INVARIANTS, tk.detect_derived_structure, carrier)
        return v_add, v_mul, found
    return run


def _check_structure(found, one):
    if found["unit"] != one:
        return f"unit {found['unit']} found, expected {one}"
    if found["zero"] is not None:
        return f"zero element {found['zero']} reported"
    return None


def _verify_check(one):
    def check(answer):
        v_add, v_mul, found = answer
        if not v_add:
            return f"additive axioms failed on a valid field: {v_add!r}"
        if not v_mul:
            return f"distributivity failed on a valid field: {v_mul!r}"
        return _check_structure(found, one)
    return check


def _relabel(field, rng):
    """The field's tables under a random relabelling sigma (old i -> sigma[i])."""
    sigma = rng.permutation(field.n).astype(np.int32)
    inv = np.argsort(sigma)
    nu = sigma[field.carrier.nu[np.ix_(inv, inv, inv)]]
    mu = sigma[field.carrier.mu[np.ix_(inv, inv)]]
    return [field.labels[i] for i in inv], nu, mu, int(sigma[field.one])


VERIFY_SIZES = {  # carrier size -> (fields, tables per field)
    8: (("odd(16)", "F0(4)", "F0(2,2)", "F0(2)xF0(3)"), 26),
    16: (("odd(32)", "F0(5)", "F0(3)xF0(3)"), 5),
    32: (("odd(64)", "F0(6)", "F0(3,2)", "F0(2,3)", "F0(3)xF0(4)"), 1),
}


def verify(seed, tr):
    """Valid fields at n = 8, 16, 32, as built and randomly relabelled.  At
    n = 8 and 16 the first table of each field is the one as built; every
    n = 32 table is relabelled, which moves the unit away from index 0."""
    rng = np.random.default_rng(seed)
    jobs = []
    for n, (names, copies) in VERIFY_SIZES.items():
        for name in names:
            field = FIELDS[name](tr)
            for copy in range(copies):
                if copies > 1 and copy == 0:
                    carrier, one = field.carrier, field.one
                else:
                    labels, nu, mu, one = _relabel(field, rng)
                    carrier = tr.call(L.CONSTRUCT, tk.TernaryCarrier, labels, nu, mu)
                jobs.append(Job(f"verify n={n} {name} #{copy}",
                                _field_check(carrier, one), _verify_check(one),
                                _scan_share(n)))
    return jobs


# nu of the first field with mu of the second.  Every F0 field has the same
# nu (XOR of the bit masks), so each pair crosses odd(2n) with an F0 field.
# At n = 16 every pair takes nu from odd(32), so the swapped jobs, among
# which the median falls, share one cost (an F0 nu scans a quarter faster).
SWAPS = {
    16: (("odd(32)", "F0(5)"), ("odd(32)", "F0(3)xF0(3)")),
    32: tuple(pair for name in ("F0(6)", "F0(3,2)", "F0(2,3)", "F0(3)xF0(4)")
              for pair in (("odd(64)", name), (name, "odd(64)"))),
}
PERMUTED = {16: ("odd(32)", "F0(5)", "F0(3)xF0(3)"),
            32: ("odd(64)", "F0(6)", "F0(3,2)", "F0(2,3)", "F0(3)xF0(4)"),
            64: ("odd(128)", "F0(7)")}
REFUTE_JOBS = (  # (n, kind, count): cheap, middle block, heavy tail
    (16, "permuted", 18), (16, "swap", 30), (32, "permuted", 16),
    (32, "swap", 8), (64, "permuted", 3))


def _refute_check(carrier, one, kind):
    n = carrier.n
    nu = carrier.nu
    oracle = {}   # the derived product and, for n <= 16, the least witnesses

    def confirm(verdict, which):
        """Error text, or None if the failing verdict's witness is real and,
        for n <= 16, the least one."""
        if which == "assoc":
            if verdict.axiom != "associativity":
                return f"unexpected axiom {verdict.axiom}"
            if not assoc_violated(nu, verdict.witness):
                return f"associativity holds at the witness {verdict.witness}"
            got = tuple(verdict.witness)
        else:
            law = int(verdict.axiom.rsplit("-", 1)[1])
            if not distrib_violated(nu, oracle["tmu"], law, verdict.witness):
                return f"law {law} holds at the witness {verdict.witness}"
            got = (law, tuple(verdict.witness))
        if n <= 16 and got != oracle[which]:
            return f"witness {got} is not the least, {oracle[which]} is"
        return None

    def check(answer):
        v_add, v_mul, found = answer
        if not oracle:
            oracle["tmu"] = derived_ternary(carrier.mu)
            if n <= 16:
                oracle["assoc"] = brute_assoc(nu)
                oracle["distrib"] = brute_distrib(nu, oracle["tmu"])
        if kind == "swap" and not v_add:
            return f"additive axioms failed on a valid nu: {v_add!r}"
        if kind == "permuted" and v_add:
            return "associativity passed on a permuted nu"
        if kind == "swap" and v_mul:
            return "distributivity passed on a swapped mu"
        for verdict, which in ((v_add, "assoc"), (v_mul, "distrib")):
            if not verdict:
                error = confirm(verdict, which)
                if error:
                    return error
            elif n <= 16 and oracle[which] is not None:
                return f"passed although {oracle[which]} violates {which}"
        return _check_structure(found, one)
    return check


def refute(seed, tr):
    """Tables that pass every cheap invariant and fail inside a scan: a
    field's nu paired with another same-size field's mu, and a field's nu
    with its outputs permuted (pi o nu)."""
    rng = np.random.default_rng(seed)
    fields = {}

    def field(name):
        if name not in fields:
            fields[name] = FIELDS[name](tr)
        return fields[name]

    jobs = []
    for n, kind, count in REFUTE_JOBS:
        for k in range(count):
            if kind == "swap":
                # at n = 32, where the 90th percentile falls, each pair once
                pairs = SWAPS[n]
                a, b = pairs[k] if n == 32 else pairs[int(rng.integers(len(pairs)))]
                fa, fb = field(a), field(b)
                nu, mu, labels, one = fa.carrier.nu, fb.carrier.mu, fb.labels, fb.one
                name = f"nu:{a} mu:{b}"
            else:
                a = PERMUTED[n][k % len(PERMUTED[n])]
                fa = field(a)
                nu = rng.permutation(n).astype(np.int32)[fa.carrier.nu]
                mu, labels, one = fa.carrier.mu, fa.labels, fa.one
                name = f"pi o nu:{a}"
            carrier = tr.call(L.CONSTRUCT, tk.TernaryCarrier, labels, nu, mu)
            jobs.append(Job(f"refute n={n} {kind} {name} #{k}",
                            _field_check(carrier, one),
                            _refute_check(carrier, one, kind), _scan_share(n)))
    return jobs


# -- derive: construction, closure and symmetry, no scans --------------------------

def _build_job(*exponents):
    def run(tr):
        return tr.call(L.POLY_CONSTRUCT, pf.build_f0, *exponents, check="light").n

    def check(n):
        expected = 1 << (int(np.prod(exponents)) - 1)
        card = pf.cardinality(pf.QuotientFieldSpec(exponents))
        if not n == card == expected:
            return f"size {n}, cardinality {card}, expected {expected}"
        return None
    return Job(f"derive build_f0{exponents}".replace(",)", ")"), run, check)


def _aut_job(field, k):
    def run(tr):
        table = tr.call(L.AUTOMORPHISMS, aut.automorphism_group, field)
        return table.order, tr.call(L.AUTOMORPHISMS, aut.fingerprint_group, table)

    def check(answer):
        order, fp = answer
        expected = 1 << (k - 2)
        if order != expected:
            return f"automorphism group of F0({k}) has order {order}, expected {expected}"
        if fp["order"] != order or len(fp["element_orders"]) != order:
            return f"fingerprint {fp} does not match order {order}"
        if fp["element_orders"].count(1) != 1:
            return "fingerprint has other than one identity"
        if k == 5 and fp["iso_class"] != "D4 (the dihedral group of order 8)":
            return f"Aut(F0(5)) fingerprinted as {fp['iso_class']}"
        return None
    return Job(f"derive automorphism_group F0({k})", run, check)


def _envelope_job(name, field):
    def run(tr):
        env = tr.call(L.ENV_BUILD, pe.build_envelope, field)
        return env.n, tr.call(L.ENV_LOCAL, pe.verify_local, env)

    def check(answer):
        size, report = answer
        n = field.n
        if size != 2 * n:
            return f"envelope has {size} elements, expected {2 * n}"
        if not (report["is_local_with_z2_residue"] and report.get("maximal_is_pair_part")
                and report["maximal_ideals"] == [list(range(n, 2 * n))]):
            return f"envelope of {name} is not local with the pair part maximal"
        return None
    return Job(f"derive envelope {name}", run, check)


def _closure_job(name, field, targets, envelopes):
    def run(tr):
        return tr.call(L.CLOSURE, pf.generated_subalgebra, field, targets)

    def check(answer):
        indices, witnesses = answer
        if len(indices) != field.n or sorted(witnesses) != list(indices):
            return f"closure of {targets} reached {len(indices)} of {field.n}"
        if name not in envelopes:
            envelopes[name] = pe.build_envelope(field, check=False)
        for i, w in witnesses.items():
            if pf.eval_hom(w, field, targets, env=envelopes[name]) != i:
                return f"witness {w} does not evaluate to {field.label(i)}"
        return None
    labels = ",".join(field.label(t) for t in targets)
    return Job(f"derive closure {name} [{labels}]", run, check)


def _coset_job(field):
    sub = [field.index("1"), field.index("x^2")]
    t = field.index("x")

    def run(tr):
        return tr.call(L.CONSTRUCT, tk.twisted_coset, field, sub, t)

    def check(coset):
        expected = sorted(field.label(field.mu(t, s)) for s in sub)
        if not isinstance(coset, tk.ProperThreeThreeField):
            return f"twisted coset is a {type(coset).__name__}"
        if sorted(coset.labels) != expected:
            return f"twisted coset {sorted(coset.labels)}, expected {expected}"
        return None
    return Job("derive twisted_coset F0(3) x*{1,x^2}", run, check)


DERIVE_CLOSURES = (("F0(5)", 168), ("odd(64)", 8))
AUT5_COPIES = 24   # the middle block: the 90th percentile is Aut(F0(5))


def derive(seed, tr):
    """Construction, closure and symmetry with check="light" throughout.
    Closure targets are the generator x with a random element (F0(5)), whose
    cost hardly depends on the element, or two random elements (odd(64));
    either way the closure is the whole field."""
    rnd = random.Random(seed)
    fields = {name: FIELDS[name](tr)
              for name in ("F0(3)", "F0(5)", "F0(6)", "F0(7)", "odd(64)", "odd(128)")}
    envelopes = {}
    jobs = []
    for name, count in DERIVE_CLOSURES:
        field = fields[name]
        for _ in range(count):
            if name.startswith("F0"):
                targets = [field.index("x"), rnd.randrange(field.n)]
            else:
                targets = rnd.sample(range(field.n), 2)
            jobs.append(_closure_job(name, field, targets, envelopes))
    jobs.append(_coset_job(fields["F0(3)"]))
    jobs.extend(_aut_job(fields["F0(5)"], 5) for _ in range(AUT5_COPIES))
    jobs.extend(_build_job(*e) for e in ((3, 3), (2, 2, 2), (8,)))
    jobs.extend(_aut_job(fields[f"F0({k})"], k) for k in (6, 7))
    jobs.extend(_envelope_job(name, fields[name]) for name in ("odd(128)", "F0(7)"))
    return jobs


# -- suite: whole commands through cli.main ---------------------------------------

def _poly_text(a, b):
    """(x+1)^a (x^2+x+1)^b expanded; completely even over Z2 iff b == 0."""
    coeffs = np.array([1], dtype=object)
    for factor, power in (((1, 1), a), ((1, 1, 1), b)):
        for _ in range(power):
            coeffs = np.convolve(coeffs, np.array(factor, dtype=object))
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = int(coeffs[k])
        if k == 0:
            terms.append(str(c))
        else:
            power = "x" if k == 1 else f"x^{k}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return "+".join(terms)


def _light_commands(rnd):
    """(argv, expected exit code) for the cheap block: fixed counts per
    command, and seeded arguments from pools whose commands cost the same
    to within about 10%, so the median job does not depend on the seed."""
    fmt = lambda: rnd.choice(("markdown", "json"))
    out = []
    for _ in range(8):
        spec = rnd.choice(("F0(2)", "F0(3)", "odd(4)"))
        out.append((["field", "build", "--spec", spec, "--format", fmt()], 0))
    for _ in range(6):
        out.append((["field", "table", "--spec", "F0(3)", "--labels", "paper",
                     "--format", rnd.choice(("markdown", "json", "csv"))], 0))
    for _ in range(6):
        out.append((["field", "aut", "--spec", "F0(3)",
                     "--labels", rnd.choice(("paper", "canonical"))], 0))
    for _ in range(8):
        spec = rnd.choice(("odd(8)", "F0(3)"))
        out.append((["envelope", "--spec", spec, "--format", fmt()], 0))
    for _ in range(4):
        out.append((["struct", "toeplitz", str(rnd.choice((2, 3))),
                     "--spec", rnd.choice(("F0(1)", "odd(2)"))], 0))
    for _ in range(2):
        out.append((["struct", "quaternion", "--spec", "odd(2)"], 0))
    for _ in range(6):
        q = rnd.randrange(1, 200, 2)
        out.append((["dyadic", "reduce", "--precision", str(rnd.randrange(4, 17)),
                     "--", f"{rnd.randrange(-500, 500)}/{q}"], 0))
    for _ in range(6):
        value = rnd.choice((-1, 1)) * rnd.randrange(1, 5000)
        out.append((["dyadic", "val2", "--", f"{value}/{rnd.randrange(1, 5000, 2)}"], 0))
    for _ in range(6):
        a, b = rnd.randrange(1, 5), rnd.randrange(0, 2)
        out.append((["poly", "ce", _poly_text(a, b)], 0 if b == 0 else 1))
    return out


def _command_job(argv, expected, suite=False):
    reference = []

    def run(tr):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = tr.call(L.CLI, cli.main, argv)
        return code, out.getvalue()

    def check(answer):
        code, stdout = answer
        if code != expected:
            return f"exit code {code}, expected {expected}"
        if suite and json.loads(stdout)["all_passed"] is not True:
            return "paper-suite ledger has all_passed false"
        if not reference:
            reference.append(stdout)
        elif stdout != reference[0]:
            return "stdout differs from the first run of the same command"
        return None
    # paper-suite's time tracks the arithmetic loop best (measured; it
    # tracks neither loop well, so the suite's wall_s is its noisiest)
    return Job("suite ternfield " + " ".join(argv), run, check, 1.0 if suite else 0.0)


def suite(seed, tr):
    """`paper-suite` plus a seeded batch of light commands, in process."""
    rnd = random.Random(seed)
    jobs = [_command_job(argv, code) for argv, code in _light_commands(rnd)]
    for _ in range(8):   # the middle block
        jobs.append(_command_job(["field", "aut", "--spec", "F0(5)", "--labels",
                                  rnd.choice(("paper", "canonical"))], 0))
    jobs.append(_command_job(["struct", "quaternion", "--spec", "odd(4)"], 0))
    jobs.append(_command_job(["paper-suite"], 0, suite=True))
    return jobs


WORKLOADS = {"verify": verify, "refute": refute, "derive": derive, "suite": suite}


# -- self-tests: a wrong answer of each kind must count as an error ----------------

def self_test(workload, jobs):
    """Feed each checker of this workload a wrong answer; return the names of
    the fakes that were wrongly accepted."""
    missed = []
    if workload == "verify":
        job = jobs[0]
        fake = (tk.Verdict(False, "associativity", (0, 0, 0, 0, 1), "fake"),
                tk.Verdict(True), {"unit": None, "zero": None})
        if job.check(fake) is None:
            missed.append("failing verdict on a valid field")
    elif workload == "refute":
        # (0,0,0,0,0) violates nothing: all regroupings of nu(a,a,a,a,a) agree
        for job in (jobs[0], next(j for j in jobs if " n=32 permuted" in j.name)):
            fake = (tk.Verdict(False, "associativity", (0, 0, 0, 0, 0), "fake"),
                    tk.Verdict(True), {"unit": None, "zero": None})
            if job.check(fake) is None:
                missed.append(f"witness that violates nothing ({job.name})")
    elif workload == "derive":
        job = next(j for j in jobs if j.name.endswith("automorphism_group F0(5)"))
        fp = {"order": 16, "abelian": False, "element_orders": [1] + [2] * 15,
              "iso_class": "nonabelian group of order 16"}
        if job.check((16, fp)) is None:
            missed.append("wrong automorphism group order")
    elif workload == "suite":
        job = _command_job(["dyadic", "val2", "12"], 0)
        stdout = "val2: 2\n"
        job.check((0, stdout))
        flipped = stdout[:1] + chr(ord(stdout[1]) ^ 1) + stdout[2:]
        if job.check((0, flipped)) is None:
            missed.append("stdout with one flipped byte")
    return missed
