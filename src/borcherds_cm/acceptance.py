"""Self-check suite: the oracle sweeps and desk instances that gate a
release.  Each criterion function returns (ok, detail) and is cheap enough
to run in CI; the `selftest` CLI subcommand and the test suite both call
these."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from mpmath import mp

from .arith import FactoredLog, INFINITE_PLACE, factorize, hilbert_symbol
from .cmvalue import (
    c00_contraction,
    check_prime_support,
    contraction_coeffs,
    log_psi_product,
    phi_average,
)
from .forms import FourierForm, m_max
from .gzoracle import gz_product, gz_support_check
from .kappa import kappa_positive
from .lattice import (
    PosLattice,
    SplitLattice,
    enumerate_dual_cosets,
    glue,
    make_ideal_lattice,
)
from .locwhit import eisenstein_deriv_coeff
from .quadfield import (
    L_at_one,
    UnsupportedDiscriminantError,
    chowla_selberg_log_deriv,
    kappa_zero_constant,
    kappa_zero_direct,
    l_log_deriv_at_zero_direct,
    make_field,
    reduced_forms,
)

D_SET = (7, 11, 15, 23)
# The sweep sizes, seed, digits and tolerance the criteria run at.
KAPPA_T_MULTIPLIER = 200  # criterion 1: t = a/d, 1 <= a <= 200 d
RHO_BOUND = 10**4
HILBERT_TRIALS = 10**4
HILBERT_SEED = 20240817
ORACLE_PREC = 64  # criteria 4 and 5
ORACLE_TOL = "1e-40"
GZ_SWEEP_LIMIT = 2000  # criterion 9: pairs with d1 * d2 <= 2000


def criterion_kappa_oracle():
    """kappa_positive == Eisenstein-derivative oracle over the full sweep:
    d in D_SET, the unit ideal plus a non-principal ideal when h > 1, every
    dual coset, every t = a/d with 1 <= a <= KAPPA_T_MULTIPLIER * d."""
    checked = 0
    for d in D_SET:
        fld = make_field(d)
        lattices = [make_ideal_lattice(fld, "unit")]
        if fld.h > 1:
            lattices.append(make_ideal_lattice(fld, "prime:2"))
        for lat in lattices:
            cosets = enumerate_dual_cosets(lat)
            for a in range(1, KAPPA_T_MULTIPLIER * d + 1):
                t = Fraction(a, d)
                for mu in cosets:
                    formula = kappa_positive(fld, lat, mu, t)
                    oracle = eisenstein_deriv_coeff(fld, lat, mu, t)
                    if oracle.flag is not None:
                        return False, (
                            f"oracle flag {oracle.flag} at d={d}, "
                            f"mu={mu.label}, t={t}"
                        )
                    if formula.kzero_multiple != 0:
                        return False, f"nonzero k0 part at d={d}, t={t}"
                    if formula.log_part != oracle.value:
                        return False, (
                            f"mismatch at d={d}, Na={lat.norm}, "
                            f"mu={mu.label}, t={t}: "
                            f"{formula.log_part.serialize()} != "
                            f"{oracle.value.serialize()}"
                        )
                    checked += 1
    return True, f"{checked} (t, mu, ideal, d) tuples agree exactly"


def _divisors(n, spf):
    divs = [1]
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def criterion_rho_divisor_sum():
    """rho(t) = sum_{n | t} chi_d(n) for 1 <= t <= RHO_BOUND, all d in D_SET."""
    spf = list(range(RHO_BOUND + 1))
    for p in range(2, int(math.isqrt(RHO_BOUND)) + 1):
        if spf[p] == p:
            for q in range(p * p, RHO_BOUND + 1, p):
                if spf[q] == q:
                    spf[q] = p
    fields = [make_field(d) for d in D_SET]
    for t in range(1, RHO_BOUND + 1):
        divs = _divisors(t, spf)
        for fld in fields:
            expected = sum(fld.chi_of_prime(n) for n in divs)
            if fld.rho(t) != expected:
                return False, f"rho({t}) mismatch for d={fld.d}"
    return True, f"rho identity holds for t <= {RHO_BOUND}, d in {D_SET}"


def criterion_hilbert_reciprocity():
    """Product formula prod_v (a, b)_v = 1 over all places for random
    nonzero rationals."""
    rng = random.Random(HILBERT_SEED)
    for i in range(HILBERT_TRIALS):
        def rand_rat():
            num = rng.randint(-10**6, 10**6) or 1
            den = rng.randint(1, 1000) if rng.random() < 0.3 else 1
            return Fraction(num, den)

        a, b = rand_rat(), rand_rat()
        places = {2, INFINITE_PLACE}
        for x in (a, b):
            for n in (x.numerator, x.denominator):
                for p, _ in factorize(abs(n)) if abs(n) > 1 else ():
                    places.add(p)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            return False, f"reciprocity fails for a={a}, b={b}"
    return True, f"{HILBERT_TRIALS} random pairs satisfy the product formula"


def criterion_kzero_two_routes():
    """log d + 2 Lambda'(1)/Lambda(1) agrees with log(4 d pi) - 2 L'(0)/L(0)
    (Chowla-Selberg normalization), and the Chowla-Selberg sum agrees with
    the finite-difference route, both to ORACLE_TOL."""
    with mp.workdps(ORACLE_PREC + 20):
        tol = mp.mpf(ORACLE_TOL)
        for d in D_SET:
            fld = make_field(d)
            route1 = kappa_zero_direct(fld, ORACLE_PREC)
            route2 = kappa_zero_constant(fld, ORACLE_PREC)
            if abs(route1 - route2) >= tol:
                return False, (
                    f"d={d}: |route1 - route2| = {mp.nstr(abs(route1 - route2))}"
                )
            cs = chowla_selberg_log_deriv(fld, ORACLE_PREC)
            fd = l_log_deriv_at_zero_direct(fld, ORACLE_PREC)
            if abs(cs - fd) >= tol:
                return False, f"d={d}: Chowla-Selberg vs direct = {mp.nstr(abs(cs - fd))}"
    return True, f"both k0(0) routes agree to {mp.nstr(tol)} for d in {D_SET}"


def criterion_class_number_formula():
    """Digamma-series L(1, chi_d) matches 2 pi h / (w sqrt(d)) to ORACLE_TOL."""
    with mp.workdps(ORACLE_PREC + 20):
        tol = mp.mpf(ORACLE_TOL)
        for d in D_SET:
            fld = make_field(d)
            series = L_at_one(fld, ORACLE_PREC)
            closed = 2 * mp.pi * fld.h / (fld.w * mp.sqrt(d))
            if abs(series - closed) >= tol:
                return False, f"d={d}: |diff| = {mp.nstr(abs(series - closed))}"
    return True, f"class number formula verified to {mp.nstr(tol)}"


def criterion_desk_instance():
    """d = 7, unit ideal, c_0(-1) = 1 stub: phi_average = -4 log 7 and the
    rational part of the log-product is supported at 7 alone."""
    fld = make_field(7)
    sl = SplitLattice(PosLattice(()), make_ideal_lattice(fld, "unit"))
    form = FourierForm(sl, {(0, Fraction(-1)): Fraction(1)})
    phi = phi_average(form, sl, fld)
    expected = FactoredLog({7: -4})
    if phi.value.kzero_multiple != 0 or phi.value.log_part != expected:
        return False, f"phi_average = {phi.value.render()}, expected -4*log(7)"
    report = log_psi_product(form, sl, fld)
    if report.rational_part.primes() != [7]:
        return False, f"support {report.rational_part.primes()} != [7]"
    if report.kzero_coeff != 0:
        return False, "unexpected transcendental part"
    return True, "phi_average = -4*log(7); log-product support = {7}"


# ---------------------------------------------------------------------------
# Randomized corpus for the prime-support and contraction criteria
# ---------------------------------------------------------------------------

CORPUS_SEED = 987123
CORPUS_SIZE = 100

_GRAM_POOL = {
    1: [((2,),), ((4,),), ((6,),), ((14,),), ((30,),), ((46,),)],
    2: [
        ((2, 1), (1, 2)),
        ((2, 0), (0, 4)),
        ((4, 1), (1, 4)),
        ((2, 1), (1, 8)),
    ],
}


def _glue_candidates(split):
    """Overlattices of a split lattice L_+ + L_- of positive rank, one per
    prime p among the ramified primes and 2, each glued by lattice.glue
    along an eta of order p that mixes both factors (Nikulin's gluing).

    The candidates are the etas with q_mod_one 0, sorted by their
    numerators reduced mod den; for each p the first one of order p with
    a nonzero first coordinate and a nonzero minus part is glued."""
    n = split.plus.rank
    den = split.etas[0].den
    etas = sorted(
        tuple(x % den for x in eta.num)
        for eta in split.etas
        if eta.q_mod_one == 0
    )
    found = []
    for p in sorted(set(split.minus.field.ramified_primes) | {2}):
        for num in etas:
            # a nonzero first coordinate keeps the corpus of the earlier
            # search, which glued on basis row 0, exactly
            if num[0] and any(num[n:]) and all(p * x % den == 0 for x in num):
                found.append(glue(split.plus, split.minus, num, den))
                break  # one glue per prime keeps the corpus varied but small
    return found


@functools.cache
def build_corpus():
    """Deterministic corpus of (field, lattice, form) triples with random
    integral principal parts, rank <= 2 positive parts, split and glued."""
    rng = random.Random(CORPUS_SEED)
    triples = []
    lattices = []
    for d in (7, 15, 23):
        fld = make_field(d)
        ideals = [make_ideal_lattice(fld, "unit"), make_ideal_lattice(fld, "prime:2")]
        for minus in ideals:
            for rank in (0, 1, 2):
                grams = [None] if rank == 0 else _GRAM_POOL[rank]
                for gram in grams:
                    split = SplitLattice(PosLattice(gram or ()), minus)
                    lattices.append((fld, split))
                    if rank and minus.norm == 1:
                        for glued in _glue_candidates(split):
                            lattices.append((fld, glued))
    while len(triples) < CORPUS_SIZE:
        fld, sl = lattices[rng.randrange(len(lattices))]
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            label = rng.randrange(len(sl.etas))
            frac = (-sl.etas[label].q_mod_one) % 1
            steps = rng.randint(1, 3)
            m = frac - steps
            if m >= 0:
                continue
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            coeffs[(label, m)] = coeffs.get((label, m), 0) + c
        if rng.random() < 0.5:
            zero_ok = [
                e.label for e in sl.etas if e.q_mod_one == 0
            ]
            if zero_ok:
                coeffs[(rng.choice(zero_ok), Fraction(0))] = rng.randint(-5, 5)
        coeffs = {k: v for k, v in coeffs.items() if v}
        if not coeffs:
            continue
        form = FourierForm(sl, coeffs)
        if m_max(form) > 3:
            continue
        triples.append((fld, sl, form))
    return triples


def criterion_prime_support():
    """check_prime_support passes on every corpus instance."""
    corpus = build_corpus()
    for i, (fld, sl, form) in enumerate(corpus):
        report = log_psi_product(form, sl, fld)
        ok, violations = check_prime_support(report, fld, form)
        if not ok:
            return False, (
                f"instance {i} (d={fld.d}, n={sl.plus.rank}): "
                f"violating primes {violations}"
            )
    return True, f"prime support law holds on {len(corpus)} corpus instances"


def criterion_contraction_consistency():
    """c00_contraction equals the brute-force double sum on every corpus
    instance, and C_{eta, lambda}(m) is an integer for m <= 0."""
    corpus = build_corpus()
    for i, (fld, sl, form) in enumerate(corpus):
        neg_ms = sorted({m for (_, m) in form.coeffs if m <= 0})
        table = contraction_coeffs(form, sl, neg_ms + [Fraction(0)])
        for (label, li, m), value in table.items():
            if m <= 0 and value.denominator != 1:
                return False, (
                    f"instance {i}: C_({label},{li})({m}) = {value} not integral"
                )
        brute = Fraction(0)
        for eta in sl.etas:
            for li, lam in enumerate(sl.glue):
                em = tuple(
                    a + b for a, b in zip(eta.minus, lam.minus)
                )
                if any(Fraction(x).denominator != 1 for x in em):
                    continue
                coset = tuple(
                    a + b for a, b in zip(eta.plus, lam.plus)
                )
                for (label, m1), c in form.coeffs.items():
                    if label == eta.label and m1 <= 0:
                        brute += c * sl.plus.count_vectors(coset, -m1)
        if brute != c00_contraction(form, sl):
            return False, f"instance {i}: c00 brute force mismatch"
    return True, f"contraction consistency on {len(corpus)} corpus instances"


def criterion_gz():
    """gz_product at the two reference pairs, plus the support sweep over
    coprime odd-fundamental pairs with d1*d2 <= GZ_SWEEP_LIMIT."""
    r37 = gz_product(3, 7)
    if r37.product != 3375 or r37.factorization != ((3, 3), (5, 3)):
        return False, f"gz(3,7) = {r37.product} ({r37.factored_string()})"
    if r37.margin >= 1e-20:
        return False, f"gz(3,7) margin {r37.margin}"
    r743 = gz_product(7, 43)
    # j((1+sqrt(-7))/2) - j((1+sqrt(-43))/2) = -3375 + 884736000, positive
    # under the same tau_1 <-> d1 ordering that makes gz(3,7) positive
    expected = 3**6 * 5**3 * 7 * 19 * 73
    if r743.product != expected:
        return False, f"gz(7,43) = {r743.product}, expected {expected}"
    if r743.factorization != ((3, 6), (5, 3), (7, 1), (19, 1), (73, 1)):
        return False, f"gz(7,43) factorization {r743.factorization}"
    if r743.margin >= 1e-20:
        return False, f"gz(7,43) margin {r743.margin}"
    ds = []
    for d in range(3, GZ_SWEEP_LIMIT // 3 + 1, 4):
        try:
            reduced_forms(d)
        except UnsupportedDiscriminantError:
            continue
        ds.append(d)
    pairs = 0
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1 :]:
            if d1 * d2 > GZ_SWEEP_LIMIT or math.gcd(d1, d2) != 1:
                continue
            result = gz_product(d1, d2)
            ok, violations = gz_support_check(result)
            if not ok:
                return False, f"support fails for ({d1},{d2}): {violations}"
            pairs += 1
    return True, f"reference products confirmed; support holds on {pairs} pairs"


CRITERIA = (
    ("1 kappa-oracle equivalence", criterion_kappa_oracle),
    ("2 rho divisor-sum identity", criterion_rho_divisor_sum),
    ("3 Hilbert reciprocity", criterion_hilbert_reciprocity),
    ("4 k0(0) two-route identity", criterion_kzero_two_routes),
    ("5 class number formula", criterion_class_number_formula),
    ("6 (0,2) desk instance", criterion_desk_instance),
    ("7 prime-support theorem", criterion_prime_support),
    ("8 contraction consistency", criterion_contraction_consistency),
    ("9 Gross-Zagier numerics", criterion_gz),
)


def run_all(out=print):
    ok_all = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        ok_all = ok_all and ok
        out(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
    return ok_all
