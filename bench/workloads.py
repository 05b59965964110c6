"""The three benchmark workloads.

Each workload is built from a loaded package and a seed.  It yields its
inputs in blocks; `op` is the timed library request for one input and
`check` verifies its output outside the timed region.  Every call into the
package goes through a module attribute at call time, so the tracer's
wrappers see it in a traced run.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
from fractions import Fraction

from mpmath import mp

from tracer import package_modules

HERE = os.path.dirname(os.path.abspath(__file__))

D_SET = (7, 11, 15, 23)


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Workload:
    """A subclass sets `name` and `tail_pct` (the op_tail_ms percentile)
    and defines `blocks()`, `op(item)` and `check(item, out)`."""

    # a block runs to its end even when the deadline passes inside it
    whole_blocks = False

    def before_op(self):
        """Runs before each op, outside the timed region."""

    def observe(self, item, out):
        """Work counts for the traced run, from one traced op."""

    def layer_extras(self, layers):
        """Per-layer metrics that need the workload's own inputs."""
        return {}


# ---------------------------------------------------------------------------
# kappa-oracle: the criterion-1 mechanism, no (t, mu) repeats
# ---------------------------------------------------------------------------


class KappaOracle(Workload):
    """kappa_positive against the local Whittaker oracle over the
    criterion-1 sweep (d in D_SET, unit ideal plus prime:2 when h > 1,
    every dual coset, t = a/d for 1 <= a <= 200 d), in a seeded order."""

    name = "kappa-oracle"
    tail_pct = 99.9
    T_MULTIPLIER = 200
    BLOCK = 2048

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.entries = []
        sizes = []
        for d in D_SET:
            fld = pkg.quadfield.make_field(d)
            lats = [pkg.lattice.make_ideal_lattice(fld, "unit")]
            if fld.h > 1:
                lats.append(pkg.lattice.make_ideal_lattice(fld, "prime:2"))
            for lat in lats:
                cosets = pkg.lattice.enumerate_dual_cosets(lat)
                self.entries.append((fld, lat, cosets))
                sizes.append(self.T_MULTIPLIER * d * len(cosets))
        self.offsets = list(itertools.accumulate(sizes, initial=0))
        self.plan = list(range(self.offsets[-1]))
        random.Random(seed).shuffle(self.plan)
        self.input_digest = _digest(self.plan)

    def _decode(self, index):
        e = next(i for i in range(len(self.entries)) if index < self.offsets[i + 1])
        fld, lat, cosets = self.entries[e]
        a, m = divmod(index - self.offsets[e], len(cosets))
        return fld, lat, cosets[m], Fraction(a + 1, fld.d)

    def blocks(self):
        for start in itertools.cycle(range(0, len(self.plan), self.BLOCK)):
            yield [self._decode(i) for i in self.plan[start:start + self.BLOCK]]

    def op(self, item):
        fld, lat, mu, t = item
        formula = self.pkg.kappa.kappa_positive(fld, lat, mu, t)
        oracle = self.pkg.locwhit.eisenstein_deriv_coeff(fld, lat, mu, t)
        return formula, oracle

    def check(self, item, out):
        formula, oracle = out
        return (
            oracle.flag is None
            and formula.kzero_multiple == 0
            and formula.log_part == oracle.value
        )


# ---------------------------------------------------------------------------
# cm-report: the `bcm cmsum` request as library calls
# ---------------------------------------------------------------------------

_GRAM_POOL = {
    1: [((2,),), ((4,),), ((6,),), ((14,),), ((30,),), ((46,),)],
    2: [((2, 1), (1, 2)), ((2, 0), (0, 4)), ((4, 1), (1, 4)), ((2, 1), (1, 8))],
}

# Row 0 of the glued lattices that the brute-force glue search of the
# acceptance corpus finds (all other rows are the identity), in the order
# it finds them.  Stored so that set-up does not repeat that search.
_GLUE = {
    (7, ((14,),)): [(Fraction(1, 7), Fraction(1, 7), Fraction(5, 7))],
    (15, ((30,),)): [
        (Fraction(1, 3),) * 3,
        (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)),
    ],
    (15, ((2, 1), (1, 8))): [
        (Fraction(1, 3),) * 4,
        (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5), Fraction(3, 5)),
    ],
    (23, ((46,),)): [(Fraction(1, 23), Fraction(1, 23), Fraction(21, 23))],
}

PINS_PATH = os.path.join(HERE, "cm_report_pins.txt")


def build_pool(pkg):
    """(field, SplitLattice) pairs in the order of the acceptance corpus:
    d in {7, 15, 23}, unit and prime:2 ideals, rank 0-2, each glued
    lattice right after its split one."""
    pool = []
    for d in (7, 15, 23):
        fld = pkg.quadfield.make_field(d)
        for spec in ("unit", "prime:2"):
            minus = pkg.lattice.make_ideal_lattice(fld, spec)
            for rank in (0, 1, 2):
                for gram in [()] if rank == 0 else _GRAM_POOL[rank]:
                    plus = pkg.lattice.PosLattice(gram)
                    pool.append((fld, pkg.lattice.SplitLattice(plus, minus)))
                    if spec != "unit":
                        continue
                    for row0 in _GLUE.get((d, gram), ()):
                        n = rank + 2
                        basis = [
                            tuple(Fraction(int(i == j)) for j in range(n))
                            for i in range(n)
                        ]
                        basis[0] = row0
                        pool.append(
                            (fld, pkg.lattice.SplitLattice(plus, minus, tuple(basis)))
                        )
    return pool


def draw_coeffs(rng, sl):
    """A random integral principal part by the acceptance corpus rule:
    one to three terms c_eta(m) with m = -(Q(eta) mod 1) - {1,2,3} and
    c in {+-1, +-2, +-3}, half the time a constant term on a coset with
    Q(eta) = 0 mod 1, and m_max <= 3."""
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            label = rng.randrange(len(sl.etas))
            m = (-sl.etas[label].q_mod_one) % 1 - rng.randint(1, 3)
            if m >= 0:
                continue
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            coeffs[(label, m)] = coeffs.get((label, m), 0) + c
        if rng.random() < 0.5:
            zero_ok = [e.label for e in sl.etas if e.q_mod_one == 0]
            if zero_ok:
                coeffs[(rng.choice(zero_ok), Fraction(0))] = rng.randint(-5, 5)
        coeffs = {k: v for k, v in coeffs.items() if v}
        if coeffs and max((-m for _, m in coeffs), default=0) <= 3:
            return coeffs


# The universe of cm-report inputs: INSTANCES forms per pool lattice, each
# drawn from its own seed, so that a digest can be pinned per instance.
INSTANCES = 128
UNIVERSE_SEED = 987123


def instance_coeffs(pool, li, k):
    """The principal part of instance k on pool lattice li."""
    rng = random.Random(UNIVERSE_SEED * 100003 + li * INSTANCES + k)
    return draw_coeffs(rng, pool[li][1])


def cm_request(pkg, fld, sl, coeffs):
    """What `bcm cmsum` computes for one form, as library calls."""
    cmvalue = pkg.cmvalue
    form = pkg.forms.FourierForm(sl, coeffs)
    report = cmvalue.log_psi_product(form, sl, fld)
    ok, violations = cmvalue.check_prime_support(report, fld, form)
    phi = cmvalue.phi_average(form, sl, fld)
    num = report.numeric(fld, 64)
    return report, ok, violations, phi, num


def report_digest(out):
    """Digest of every serialized output of one cm-report request."""
    report, ok, violations, phi, num = out
    text = "|".join([
        report.rational_part.serialize(),
        str(report.kzero_coeff),
        str(report.c00),
        str(report.degree),
        str(report.vol_kt),
        str(int(ok)),
        ",".join(map(str, violations)),
        phi.value.log_part.serialize(),
        str(phi.value.kzero_multiple),
        phi.cycle_sum.log_part.serialize(),
        str(phi.cycle_sum.kzero_multiple),
        mp.nstr(num, 30),
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_pins():
    """(lattice index, instance index) -> digest pinned at the commit that
    added the benchmark."""
    pins = {}
    with open(PINS_PATH) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(":")
            for k, digest in enumerate(rest.split()):
                pins[(int(head), k)] = digest
    return pins


class CmReport(Workload):
    """One `bcm cmsum` report per input.  The inputs are a fixed universe
    of INSTANCES forms per pool lattice (see instance_coeffs); the
    run seed orders the universe in rounds that visit every lattice once,
    so every run spends the same share on each lattice and no instance
    repeats within INSTANCES rounds."""

    name = "cm-report"
    tail_pct = 98.0

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.pool = build_pool(pkg)
        self.pins = load_pins()
        rng = random.Random(seed)
        order = [rng.sample(range(INSTANCES), INSTANCES) for _ in self.pool]
        self.plan = []
        for r in range(INSTANCES):
            lattices = rng.sample(range(len(self.pool)), len(self.pool))
            self.plan.append([(li, order[li][r]) for li in lattices])
        self.input_digest = _digest(self.plan)

    def blocks(self):
        for rnd in itertools.cycle(self.plan):
            yield [(li, k) + self.pool[li] + (instance_coeffs(self.pool, li, k),)
                   for li, k in rnd]

    def op(self, item):
        _, _, fld, sl, coeffs = item
        return cm_request(self.pkg, fld, sl, coeffs)

    def check(self, item, out):
        li, k, fld, sl, coeffs = item
        report, ok, _, phi, _ = out
        if not ok:
            return False
        if report.c00 != _brute_c00(sl, coeffs):
            return False
        scale = Fraction(-1) / report.vol_kt
        if report.rational_part != scale * phi.value.log_part:
            return False
        if report.kzero_coeff != scale * phi.value.kzero_multiple:
            return False
        return report_digest(out) == self.pins.get((li, k))


def _brute_c00(sl, coeffs):
    """The double sum over eta and glue vectors lambda with eta_- +
    lambda_- integral of c_eta(m) * #{x in eta_+ + lambda_+ : Q(x) = -m},
    by PosLattice.count_vectors."""
    total = Fraction(0)
    labels = {label for label, m in coeffs if m <= 0}
    for eta in sl.etas:
        if eta.label not in labels:
            continue
        for lam in sl.glue:
            em = [Fraction(a) + Fraction(b) for a, b in zip(eta.minus, lam.minus)]
            if any(x.denominator != 1 for x in em):
                continue
            coset = tuple(Fraction(a) + Fraction(b) for a, b in zip(eta.plus, lam.plus))
            for (label, m), c in coeffs.items():
                if label == eta.label and m <= 0:
                    total += c * sl.plus.count_vectors(coset, -m)
    return total


# ---------------------------------------------------------------------------
# gz-sweep: Gross-Zagier products from a cold q-expansion cache
# ---------------------------------------------------------------------------

GZ_REFERENCE = {
    (3, 7): (3375, ((3, 3), (5, 3))),
    (7, 43): (3**6 * 5**3 * 7 * 19 * 73, ((3, 6), (5, 3), (7, 1), (19, 1), (73, 1))),
}


def reset_caches(pkg):
    """Empty every module-level *_CACHE dict and functools cache of the
    package, as a fresh process starts."""
    for mod in package_modules(pkg):
        for attr, value in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class GzSweep(Workload):
    """gz_product plus gz_support_check over the coprime pairs of odd
    fundamental discriminants with d1 * d2 <= BOUND, each from empty caches
    as one `bcm gz` process computes it.  A block is one pass: the
    reference pairs first, then the rest in a seeded order."""

    name = "gz-sweep"
    tail_pct = 90.0
    whole_blocks = True
    BOUND = 300
    PASSES = 64

    def __init__(self, pkg, seed):
        self.pkg = pkg
        qf = pkg.quadfield
        h = {}
        ref_ds = {d for pair in GZ_REFERENCE for d in pair}
        for d in sorted(set(range(3, self.BOUND // 3 + 1, 4)) | ref_ds):
            try:
                h[d] = len(qf.reduced_forms(d))
            except qf.UnsupportedDiscriminantError:
                continue
        ds = sorted(h)
        pairs = [
            (d1, d2)
            for i, d1 in enumerate(ds)
            for d2 in ds[i + 1:]
            if d1 * d2 <= self.BOUND and math.gcd(d1, d2) == 1
        ]
        refs = list(GZ_REFERENCE)
        rest = [p for p in pairs if p not in GZ_REFERENCE]
        rng = random.Random(seed)
        self.plan = [
            [(d1, d2, h[d1] + h[d2]) for d1, d2 in refs + rng.sample(rest, len(rest))]
            for _ in range(self.PASSES)
        ]
        self.input_digest = _digest(self.plan)
        self.j_needed = 0
        self.digits_max = 0

    def before_op(self):
        reset_caches(self.pkg)

    def blocks(self):
        return itertools.cycle(self.plan)

    def op(self, item):
        d1, d2, _ = item
        gz = self.pkg.gzoracle
        result = gz.gz_product(d1, d2)
        ok, violations = gz.gz_support_check(result)
        return result, ok, violations

    def check(self, item, out):
        d1, d2, _ = item
        result, ok, _ = out
        if not ok or not result.margin < 1e-20:
            return False
        expected = GZ_REFERENCE.get((d1, d2))
        if expected is not None:
            return (result.product, result.factorization) == expected
        return True

    def observe(self, item, out):
        self.j_needed += item[2]
        self.digits_max = max(self.digits_max, out[0].precision_used)

    def layer_extras(self, layers):
        j_calls = layers["gzoracle.j_value.calls"]
        return {
            "gzoracle.j_per_needed": j_calls / self.j_needed if self.j_needed else 0.0,
            "gzoracle.digits_max": self.digits_max,
        }


WORKLOADS = {w.name: w for w in (KappaOracle, CmReport, GzSweep)}
