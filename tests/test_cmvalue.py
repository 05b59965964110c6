import functools
import math
import os
import sys
from fractions import Fraction

import pytest
from mpmath import mp

import borcherds_cm
from borcherds_cm import acceptance, arith, cmvalue
from borcherds_cm.arith import FactoredLog
from borcherds_cm.cmvalue import (
    CMValueReport,
    c00_contraction,
    check_prime_support,
    contraction_coeffs,
    default_vol_kt,
    kappa_eta,
    log_psi_product,
    phi_average,
)
from borcherds_cm.forms import FourierForm, SupportCongruenceViolation
from borcherds_cm.gzoracle import gz_product
from borcherds_cm.kappa import KAPPA_ZERO, KappaValue, kappa_at, kappa_positive
from borcherds_cm.lattice import (
    IdealLattice,
    PosLattice,
    SplitLattice,
    coset_of_element,
    enumerate_dual_cosets,
    glue,
    make_ideal_lattice,
)
from borcherds_cm.locwhit import eisenstein_deriv_coeff
from borcherds_cm.quadfield import PrecisionError, kappa_zero_constant, make_field

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from workloads import build_pool, instance_coeffs  # noqa: E402


def _instance(d=7, gram=(), ideal="unit", coeffs=None):
    fld = make_field(d)
    sl = SplitLattice(PosLattice(gram), make_ideal_lattice(fld, ideal))
    form = FourierForm(sl, coeffs or {(0, Fraction(-1)): Fraction(1)})
    return fld, sl, form


def test_desk_instance_phi():
    fld, sl, form = _instance()
    phi = phi_average(form, sl, fld)
    assert phi.value.log_part == FactoredLog({7: -4})
    assert phi.value.kzero_multiple == 0
    assert phi.vol_kt == 2
    # with vol(K_T) = 2/h and h = 1 the cycle sum equals the SO(U) integral
    assert phi.cycle_sum.log_part == phi.value.log_part


def test_desk_instance_report():
    fld, sl, form = _instance()
    report = log_psi_product(form, sl, fld)
    assert report.rational_part == FactoredLog({7: 2})
    assert report.kzero_coeff == 0
    assert report.c00 == 0
    assert report.degree == 2
    assert report.rational_value() == 49
    ok, violations = check_prime_support(report, fld, form)
    assert ok and not violations


def test_constant_term_drives_transcendence():
    fld, sl, form = _instance(
        coeffs={(0, Fraction(-1)): Fraction(1), (0, Fraction(0)): Fraction(3)}
    )
    report = log_psi_product(form, sl, fld)
    assert report.c00 == 3
    assert report.kzero_coeff == -3
    assert report.transcendental_exponent == 3
    # at default vol(K_T) the exponent is h * c00
    assert report.transcendental_exponent == fld.h * report.c00


def test_rank_one_instance():
    fld, sl, form = _instance(gram=((2,),))
    report = log_psi_product(form, sl, fld)
    assert report.rational_part == FactoredLog({7: 2})
    assert report.c00 == 2  # the two vectors x = +-1 with Q(x) = 1
    assert report.kzero_coeff == -2


def test_x1_lattice_gives_gross_zagier_at_composite_d1():
    # glued along (1/15; 1/15, -2/15), Z(30) + O_k for k = Q(sqrt(-15)) is
    # the X(1) lattice; {(gamma_1, -7/4): 1}, gamma_1 the coset with q = 3/4,
    # lifts to prod (j(z) - j(tau_7)), whose CM value is 4 log|gz(15, 7)|
    fld = make_field(15)
    x1 = glue(PosLattice(((30,),)), make_ideal_lattice(fld, "unit"), (1, 1, 13), 15)
    report = log_psi_product(FourierForm(x1, {(1, Fraction(-7, 4)): 1}), x1, fld)
    gz = gz_product(15, 7)
    assert abs(gz.product) == 754606125
    assert report.rational_part == 4 * FactoredLog(dict(gz.factorization))
    assert report.kzero_coeff == 0


@pytest.mark.parametrize("d1, d2, factor", [
    (227, 3, Fraction(4, 3)),
    (443, 3, Fraction(4, 3)),
    (227, 7, 4),
    (163, 11, 4),
])
def test_x1_lattice_gives_gross_zagier_beyond_the_unglued_cap(d1, d2, factor):
    # from d1 = 227 on, the unglued Z(2 d1) + O_k has |L^v/L| = 2 d1^2 above
    # MAX_DUAL_ORDER, but glue builds the X(1) lattice from its vector
    # alone; at d2 = 3, j(rho) = 0 and rho has 6 units, hence 4/3 for 4
    fld = make_field(d1)
    x1 = glue(PosLattice(((2 * d1,),)), make_ideal_lattice(fld, "unit"), (1, 1, -2), d1)
    form = FourierForm(x1, {(1, Fraction(-d2, 4)): 1})
    report = log_psi_product(form, x1, fld)
    gz = gz_product(d1, d2)
    assert report.rational_part == factor * FactoredLog(dict(gz.factorization))
    assert report.kzero_coeff == 0


def _same_disc(d, spec):
    """The unimodular lattice with L_+ the ideal c = spec of Q(sqrt(-d))
    under Q = N/Nc and L_- the unit ideal, glued along the first eta with
    q = 0 whose plus and minus parts both have order d."""
    fld = make_field(d)
    c = make_ideal_lattice(fld, spec)
    plus = PosLattice(tuple(tuple(-x for x in row) for row in c.gram))
    unit = make_ideal_lattice(fld, "unit")
    sl = SplitLattice(plus, unit)

    def order(num, den):
        return den // math.gcd(den, *num)

    eta = next(
        e for e in sl.etas
        if e.q_mod_one == 0 and order(e.num[:2], e.den) == order(e.num[2:], e.den) == d
    )
    return fld, glue(plus, unit, eta.num, eta.den)


def test_same_discriminant_singular_moduli_d23():
    # j(z1) - j(z2) at the CM pairs (tau_a, tau_ab), b the class of prime:2:
    # 2 log|disc H_23|^2
    fld, sl = _same_disc(23, "prime:2")
    assert len(sl.etas) == 1
    report = log_psi_product(FourierForm(sl, {(0, Fraction(-1)): 1}), sl, fld)
    assert (report.c00, report.kzero_coeff) == (0, 0)
    assert report.rational_part == FactoredLog(
        {5: 36, 7: 24, 11: 8, 17: 4, 19: 4, 23: 2}
    )


def test_same_discriminant_unit_class_is_regularised():
    # with b = 1, L_+ = O_k represents 1, so the CM cycle lies on div Psi
    fld, sl = _same_disc(15, "unit")
    assert len(sl.etas) == 1
    report = log_psi_product(FourierForm(sl, {(0, Fraction(-1)): 1}), sl, fld)
    assert (report.c00, report.kzero_coeff) == (2, -4)


def test_numeric_consistency():
    fld, sl, form = _instance(
        coeffs={(0, Fraction(-1)): Fraction(1), (0, Fraction(0)): Fraction(1)}
    )
    report = log_psi_product(form, sl, fld)
    with mp.workdps(50):
        k0 = kappa_zero_constant(fld, 40)
        expect = report.rational_part.numeric(40) + float(report.kzero_coeff) * k0
        assert abs(report.numeric(fld, 40) - expect) < mp.mpf("1e-35")


@pytest.mark.parametrize("kzero", [Fraction(0), Fraction(-4)])
def test_numeric_checks_prec_on_every_report(kzero):
    # a report that never reads k0(0) checks prec all the same
    fld = make_field(7)
    report = CMValueReport(FactoredLog({7: 2}), kzero, -kzero / 2, 2, Fraction(2), 7)
    with pytest.raises(PrecisionError, match="prec must be >= 10, got 5"):
        report.numeric(fld, 5)


def test_vol_kt_scaling():
    fld, sl, form = _instance()
    assert default_vol_kt(fld) == Fraction(2, 1)
    a = log_psi_product(form, sl, fld, vol_kt=Fraction(2))
    b = log_psi_product(form, sl, fld, vol_kt=Fraction(1))
    assert b.rational_part == 2 * a.rational_part
    with pytest.raises(ValueError):
        log_psi_product(form, sl, fld, vol_kt=0)


def test_kappa_eta_zero_for_negative_m():
    fld, sl, form = _instance()
    assert kappa_eta(fld, sl, 0, -1).is_zero()
    k0 = kappa_eta(fld, sl, 0, 0)
    assert k0.kzero_multiple == 1  # only the zero coset at m = 0


def test_contraction_coeffs_integral_and_match():
    fld, sl, form = _instance(
        gram=((2,),),
        coeffs={(0, Fraction(-1)): Fraction(2), (0, Fraction(0)): Fraction(-1)},
    )
    table = contraction_coeffs(form, sl, [Fraction(0), Fraction(-1)])
    for (label, li, m), value in table.items():
        if m <= 0:
            assert value.denominator == 1
    # C_{0,0}(0) = c(-1) * r(1) + c(0) * r(0) = 2*2 - 1 = 3
    assert table[(0, 0, Fraction(0))] == 3
    assert c00_contraction(form, sl) == 3


def test_check_prime_support_flags_foreign_prime():
    fld, sl, form = _instance()
    report = log_psi_product(form, sl, fld)
    fake = type(report)(
        rational_part=FactoredLog({11: 1}),  # 11 splits in Q(sqrt(-7))
        kzero_coeff=Fraction(0),
        c00=Fraction(0),
        degree=2,
        vol_kt=Fraction(2),
        d=7,
    )
    ok, violations = check_prime_support(fake, fld, form)
    assert not ok and violations == [11]


def test_phi_average_reuses_the_inner_sum(monkeypatch):
    coeffs = {(0, Fraction(-2)): Fraction(1), (0, Fraction(0)): Fraction(2)}
    fld, sl, form = _instance(d=15, gram=((2,),), coeffs=coeffs)
    calls = []
    entry_calls = []
    kappa_eta_sum = cmvalue._kappa_eta_sum

    def counting_kappa_at(*args):
        calls.append(args)
        return kappa_at(*args)

    def counting_kappa_eta_sum(*args):
        entry_calls.append(args)
        return kappa_eta_sum(*args)

    # every kappa_eta table entry is computed by _kappa_eta_sum
    monkeypatch.setattr(cmvalue, "kappa_at", counting_kappa_at)
    monkeypatch.setattr(cmvalue, "_kappa_eta_sum", counting_kappa_eta_sum)
    report = log_psi_product(form, sl, fld)
    assert calls and entry_calls
    calls.clear()
    entry_calls.clear()
    phi = phi_average(form, sl, fld)
    assert not calls
    assert not entry_calls
    cold_fld, cold_sl, cold_form = _instance(d=15, gram=((2,),), coeffs=coeffs)
    assert phi == phi_average(cold_form, cold_sl, cold_fld)
    assert report == log_psi_product(cold_form, cold_sl, cold_fld)
    # c00 is the k0(0) multiple of the inner sum log_psi_product made
    norm_calls = []
    vector_norms_up_to = PosLattice.vector_norms_up_to

    def counting_norms(*args):
        norm_calls.append(args)
        return vector_norms_up_to(*args)

    monkeypatch.setattr(PosLattice, "vector_norms_up_to", counting_norms)
    calls.clear()
    entry_calls.clear()
    assert c00_contraction(form, sl) == report.c00
    assert not calls and not entry_calls and not norm_calls


def test_inner_sum_kept_per_lattice_and_any_vol_kt():
    """One form on two lattices it is valid on, each at two vol_KT values,
    gives what a fresh form gives every time."""
    coeffs = {(0, Fraction(-1)): Fraction(1), (0, Fraction(0)): Fraction(2)}
    fld = make_field(7)
    unit = make_ideal_lattice(fld, "unit")
    lattices = [SplitLattice(PosLattice(gram), unit) for gram in ((), ((2,),))]
    form = FourierForm(lattices[0], coeffs)
    inners = []
    for sl in lattices:
        for vol_kt in (None, Fraction(2, 3)):
            report = log_psi_product(form, sl, fld, vol_kt)
            phi = phi_average(form, sl, fld, vol_kt)
            assert report == log_psi_product(FourierForm(sl, coeffs), sl, fld, vol_kt)
            assert phi == phi_average(FourierForm(sl, coeffs), sl, fld, vol_kt)
        inners.append(phi.inner)
    # the lattices give different sums, so a value kept for one cannot
    # stand in for the other
    assert inners[0] != inners[1]


def test_form_on_a_lattice_it_is_not_valid_on_is_refused():
    """A form meets another lattice as a form built there would: a term
    that breaks the support congruence or names a missing eta is refused
    with the constructor's message, and nothing is kept."""
    fld = make_field(7)
    unit = make_ideal_lattice(fld, "unit")
    a, b = (SplitLattice(PosLattice(gram), unit) for gram in (((2,),), ((4,),)))
    cases = [
        (a, b, {(1, Fraction(-19, 28) - 1): 1}, SupportCongruenceViolation),
        (b, a, {(20, -b.etas[20].q_mod_one - 1): 1}, ValueError),
    ]
    for home, other, coeffs, error in cases:
        form = FourierForm(home, coeffs)
        with pytest.raises(error) as built:
            FourierForm(other, coeffs)
        for call in (log_psi_product, phi_average):
            with pytest.raises(error) as used:
                call(form, other, fld)
            assert str(used.value) == str(built.value)
        with pytest.raises(error):
            c00_contraction(form, other)
        with pytest.raises(error):
            contraction_coeffs(form, other, [Fraction(0)])
        assert other not in form._inner_sums
        log_psi_product(form, home, fld)


def _fraction_scaled(s, value):
    """s * value for a Fraction s, by the validating constructors."""
    return KappaValue(
        FactoredLog({p: s * e for p, e in value.log_part.terms.items()}),
        s * value.kzero_multiple,
    )


@pytest.mark.parametrize("d", [7, 15, 23])
def test_scalings_at_other_vol_kt_match_the_fraction_route(d):
    """At vol_KT values whose numerators share factors with 2 and 4, the
    integer scalings of log_psi_product and phi_average equal -2/vol_KT,
    2 and 4/vol_KT times the inner sum, applied as Fraction products."""
    pool = _cm_report_pool()
    for li, (fld, sl) in enumerate(pool):
        if fld.d != d:
            continue
        for k in range(2):
            coeffs = instance_coeffs(pool, li, k)
            for vol_kt in map(Fraction, ("3/7", "4/5", "6", "2/9", "8")):
                form = FourierForm(sl, coeffs)
                report = log_psi_product(form, sl, fld, vol_kt)
                phi = phi_average(form, sl, fld, vol_kt)
                inner = phi.inner
                scaled = _fraction_scaled(-2 / vol_kt, inner)
                assert report.rational_part == scaled.log_part
                assert report.kzero_coeff == scaled.kzero_multiple
                assert report.c00 == inner.kzero_multiple
                assert report.vol_kt == phi.vol_kt == vol_kt
                assert phi.value == _fraction_scaled(Fraction(2), inner)
                assert phi.cycle_sum == _fraction_scaled(4 / vol_kt, inner)


def _is_zero(mu):
    """mu = 0: d divides both a-basis numerators of the coset."""
    return all(x % mu.den == 0 for x in mu.num)


def _zero_coset(sl):
    return next(mu for mu in enumerate_dual_cosets(sl.minus) if _is_zero(mu))


# Each public call that takes a field next to a lattice or a report, and
# the oracle that kappa_positive is checked against, as
# call(fld, sl, form, report) on the d = 15 instance below.
FIELD_CALLS = {
    "kappa_positive": lambda fld, sl, form, report: kappa_positive(
        fld, sl.minus, _zero_coset(sl), 1
    ),
    "kappa_at": lambda fld, sl, form, report: kappa_at(
        fld, sl.minus, _zero_coset(sl), 0
    ),
    "eisenstein_deriv_coeff": lambda fld, sl, form, report: eisenstein_deriv_coeff(
        fld, sl.minus, _zero_coset(sl), 1
    ),
    "kappa_eta": lambda fld, sl, form, report: kappa_eta(fld, sl, 0, 2),
    "log_psi_product": lambda fld, sl, form, report: log_psi_product(form, sl, fld),
    "phi_average": lambda fld, sl, form, report: phi_average(form, sl, fld),
    "numeric": lambda fld, sl, form, report: report.numeric(fld, 40),
    "check_prime_support": lambda fld, sl, form, report: check_prime_support(
        report, fld, form
    ),
}


@pytest.mark.parametrize("name", sorted(FIELD_CALLS))
def test_a_field_other_than_the_lattice_s_is_refused(name):
    """make_field(7) next to a d = 15 lattice or report raises a ValueError
    naming both d; the d = 15 field then gives what a fresh instance gives."""
    coeffs = {(0, Fraction(-2)): Fraction(1), (0, Fraction(0)): Fraction(2)}
    fld, sl, form = _instance(d=15, gram=((2,),), coeffs=coeffs)
    report = log_psi_product(form, sl, fld)
    call = FIELD_CALLS[name]
    with pytest.raises(ValueError, match=r"field d=7 is not the lattice's field d=15"):
        call(make_field(7), sl, form, report)
    cold_fld, cold_sl, cold_form = _instance(d=15, gram=((2,),), coeffs=coeffs)
    cold_report = log_psi_product(cold_form, cold_sl, cold_fld)
    assert call(fld, sl, form, report) == call(cold_fld, cold_sl, cold_form, cold_report)


def test_kappa_eta_table_is_keyed_by_int_triples():
    """The lattice fixes the field, so its kappa_eta table has no field
    level: every key is (eta label, num, den)."""
    pool = _cm_report_pool()
    fld, sl = pool[5]
    sl = SplitLattice(sl.plus, sl.minus, sl.basis)
    for k in range(4):
        form = FourierForm(sl, instance_coeffs(pool, 5, k))
        log_psi_product(form, sl, fld)
        phi_average(form, sl, fld)
    assert sl._kappa_eta
    assert any(den > 1 for _, _, den in sl._kappa_eta)
    for key, value in sl._kappa_eta.items():
        assert type(key) is tuple and len(key) == 3
        assert all(type(x) is int for x in key)
        # the k0(0) multiple of kappa_eta(m) counts the x with Q(x) = m
        # over the pairs whose mu is zero
        label, num, den = key
        m = Fraction(num, den)
        den_eta = sl.etas[label].den
        n0 = sum(
            sl.plus.count_vectors(tuple(Fraction(x, den_eta) for x in plus), m)
            for _, mu, plus in sl.eta_pairs(label)
            if _is_zero(mu)
        )
        assert type(value) is KappaValue and value.kzero_multiple == n0


def test_numeric_log_cache_matches_a_cold_cache():
    """round(log(p) 2^w) is kept per (p, w): a value at 200 digits after
    one at 40 equals the value from an empty cache, digit for digit."""
    coeffs = {(0, Fraction(-2)): Fraction(1), (0, Fraction(0)): Fraction(2)}
    fld, sl, form = _instance(d=15, gram=((2,),), coeffs=coeffs)
    report = log_psi_product(form, sl, fld)
    assert len(report.rational_part.primes()) > 1 and report.kzero_coeff
    arith._log_fixed.cache_clear()
    warm = [report.numeric(fld, prec) for prec in (40, 200)]
    cold = []
    for prec in (40, 200):
        arith._log_fixed.cache_clear()
        cold.append(report.numeric(fld, prec))
    assert warm == cold


def _glued_15():
    fld = make_field(15)
    basis = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    basis[0] = (Fraction(1, 3),) * 3
    plus = PosLattice(((30,),))
    return fld, SplitLattice(plus, make_ideal_lattice(fld, "unit"), tuple(basis))


def test_kappa_eta_table_matches_a_fresh_lattice():
    fld, sl = _glued_15()
    ms = (0, Fraction(1, 3), 1, 2, 3)
    warm = {
        (eta.label, Fraction(m)): kappa_eta(fld, sl, eta.label, m)
        for eta in sl.etas
        for m in ms
    }
    for eta in sl.etas:
        assert kappa_eta(fld, sl, eta.label, Fraction(1)) is warm[(eta.label, 1)]
    for (label, m), value in warm.items():
        _, fresh = _glued_15()
        assert kappa_eta(fld, fresh, label, m) == value


def test_kappa_zero_constant_per_precision():
    fld = make_field(15)
    kappa_zero_constant(fld, 64)
    warm = kappa_zero_constant(fld, 40)
    kappa_zero_constant.cache_clear()
    assert kappa_zero_constant(fld, 40) == warm


@functools.cache
def _cm_report_pool():
    return build_pool(borcherds_cm)


def _fraction_coset(lat, coords):
    """coset_of_element of an element given by Fraction coordinates."""
    den = math.lcm(*(x.denominator for x in coords))
    return coset_of_element(lat, tuple(int(x * den) for x in coords), den)


@pytest.mark.parametrize(
    "d, gram, row0",
    [
        (15, ((30,),), (Fraction(1, 3),) * 3),
        (7, ((14,),), (Fraction(1, 7), Fraction(1, 7), Fraction(5, 7))),
    ],
)
def test_eta_pair_table_on_glued_lattices(d, gram, row0):
    pool = _cm_report_pool()
    li = next(
        i for i, (fld, sl) in enumerate(pool)
        if fld.d == d and sl.plus.gram == gram and sl.basis[0] == row0
    )
    fld, sl = pool[li]
    zero_seen = set()
    for eta in sl.etas:
        pairs = sl.eta_pairs(eta.label)
        assert [gi for gi, _, _ in pairs] == list(range(len(sl.glue)))
        for (_, mu, plus), lam in zip(pairs, sl.glue):
            minus = tuple(a + b for a, b in zip(eta.minus, lam.minus))
            assert mu is _fraction_coset(sl.minus, minus)
            assert _is_zero(mu) == all(x.denominator == 1 for x in minus)
            assert tuple(Fraction(x, eta.den) for x in plus) == tuple(
                a + b for a, b in zip(eta.plus, lam.plus)
            )
            zero_seen.add(_is_zero(mu))
        assert sl.eta_pairs(eta.label) == pairs
    assert zero_seen == {True, False}
    for k in range(16):
        coeffs = instance_coeffs(pool, li, k)
        brute = Fraction(0)
        for (label, m1), c in coeffs.items():
            if m1 > 0:
                continue
            eta = sl.etas[label]
            for lam in sl.glue:
                minus = tuple(a + b for a, b in zip(eta.minus, lam.minus))
                if all(x.denominator == 1 for x in minus):
                    plus = tuple(a + b for a, b in zip(eta.plus, lam.plus))
                    brute += c * sl.plus.count_vectors(plus, -m1)
        assert c00_contraction(FourierForm(sl, coeffs), sl) == brute


def test_eta_pairs_add_labels_on_every_pool_and_corpus_lattice():
    """On the lattices of the 72 pool and 100 corpus instances, each mu of
    eta_pairs, made by adding the labels of eta_- and lambda_-, is the
    coset that coset_of_element finds for the element eta_- + lambda_-,
    and a glue vector's label of lambda_- is 0 exactly when lambda_- is
    integral."""
    lattices = [sl for _, sl in _cm_report_pool()]
    lattices += [sl for _, sl, _ in acceptance.build_corpus()]
    assert len(lattices) == 172
    for sl in lattices:
        for lam, ell in zip(sl.glue, sl._glue_minus):
            assert (ell == 0) == all(x.denominator == 1 for x in lam.minus)
        for label in range(sl.order):
            eta = sl.coset(label)
            for (_, mu, _), lam in zip(sl.eta_pairs(label), sl.glue):
                minus = tuple(a + b for a, b in zip(eta.minus, lam.minus))
                assert mu is _fraction_coset(sl.minus, minus)


@pytest.mark.parametrize("li", [0, 5, 13, 29, 37, 56])
def test_c00_from_the_table_matches_a_fresh_lattice_and_the_count(li):
    """c00_contraction on a fresh lattice, and after log_psi_product has
    filled the kappa_eta table of another fresh copy, equals the count of
    vectors by PosLattice.count_vectors."""
    pool = _cm_report_pool()

    def fresh():
        fld, sl = pool[li]
        return fld, SplitLattice(sl.plus, sl.minus, sl.basis)

    for k in range(8):
        coeffs = instance_coeffs(pool, li, k)
        fld, sl = fresh()
        brute = Fraction(0)
        for (label, m1), c in coeffs.items():
            eta = sl.etas[label]
            for lam in sl.glue:
                minus = tuple(a + b for a, b in zip(eta.minus, lam.minus))
                if m1 <= 0 and all(x.denominator == 1 for x in minus):
                    plus = tuple(a + b for a, b in zip(eta.plus, lam.plus))
                    brute += c * sl.plus.count_vectors(plus, -m1)
        cold = c00_contraction(FourierForm(sl, coeffs), sl)
        fld, warm_sl = fresh()
        form = FourierForm(warm_sl, coeffs)
        report = log_psi_product(form, warm_sl, fld)
        assert warm_sl._kappa_eta
        assert cold == report.c00 == c00_contraction(form, warm_sl) == brute


def _fresh_pool():
    """The cm-report pool on fresh objects, one fresh ideal lattice per
    ideal of the pool, so every kappa dict starts empty."""
    minus = {}
    pool = []
    for fld, sl in _cm_report_pool():
        lat = minus.get(id(sl.minus))
        if lat is None:
            lat = minus[id(sl.minus)] = IdealLattice(fld, sl.minus.basis)
        pool.append((fld, SplitLattice(sl.plus, lat, sl.basis)))
    return pool


def _old_route_kappa_eta(fld, sl, eta, m):
    """kappa_eta(m) by the Fraction route: for each glue vector lambda,
    vector_norms_up_to on eta_+ + lambda_+ and kappa_at for each norm."""
    total = KAPPA_ZERO
    for lam in sl.glue:
        mu = _fraction_coset(
            sl.minus, tuple(a + b for a, b in zip(eta.minus, lam.minus))
        )
        plus = tuple(a + b for a, b in zip(eta.plus, lam.plus))
        for qx, count in sl.plus.vector_norms_up_to(plus, m).items():
            total = total + count * kappa_at(fld, sl.minus, mu, m - qx)
    return total


def test_kappa_eta_fill_matches_the_fraction_route(monkeypatch):
    """On every pool lattice (d in {7, 15, 23}, unit and prime:2, rank 0-2,
    glued), each table entry the integer fill makes equals the Fraction
    route, and the fill calls kappa_at once per (mu label, t) per ideal
    lattice."""
    pool = _fresh_pool()
    calls = []

    def counting_kappa_at(fld, lat, mu, t):
        calls.append((id(lat), mu.label, Fraction(t)))
        return kappa_at(fld, lat, mu, t)

    monkeypatch.setattr(cmvalue, "kappa_at", counting_kappa_at)
    entries = 0
    for fld, sl in pool:
        step = max(1, len(sl.etas) // 6)
        for eta in sl.etas[::step]:
            for m in (eta.q_mod_one + k for k in range(3)):
                kappa_eta(fld, sl, eta.label, m)
        for (label, num, den), value in sl._kappa_eta.items():
            m = Fraction(num, den)
            assert value == _old_route_kappa_eta(fld, sl, sl.etas[label], m)
            entries += 1
    assert entries > 1000
    assert len(calls) == len(set(calls))
    lattices = {id(sl.minus): sl.minus for _, sl in pool}
    assert {(i, label, Fraction(num, den))
            for i, lat in lattices.items()
            for label, num, den in lat._kappa} == set(calls)


def test_kappa_positive_leaves_no_memo_on_the_lattice():
    """kappa_positive and kappa_at keep nothing: the kappa dict of L_- is
    the kappa_eta fill's alone."""
    fld = make_field(15)
    lat = make_ideal_lattice(fld, "prime:2")
    before = dict(vars(lat))
    cosets = enumerate_dual_cosets(lat)
    for a in range(2000):
        mu = cosets[a % len(cosets)]
        t = mu.q_mod_one + a // len(cosets) + 1
        kappa_positive(fld, lat, mu, t)
        kappa_at(fld, lat, mu, t - 1)
    assert vars(lat) == before and lat._kappa == {}


@pytest.mark.parametrize("li", [5, 13, 29, 37, 56])
def test_contraction_coeffs_match_count_vectors(li):
    """Each C_{eta, lambda}(m), read from one enumeration per (eta, lambda),
    equals the sum of c_eta(m1) count_vectors(eta_+ + lambda_+, m - m1)."""
    pool = _cm_report_pool()
    fld, sl = pool[li]
    ms = [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(1), 2]
    for k in range(4):
        form = FourierForm(sl, instance_coeffs(pool, li, k))
        table = contraction_coeffs(form, sl, ms)
        expect = {}
        for eta in sl.etas:
            for li_, lam in enumerate(sl.glue):
                plus = tuple(a + b for a, b in zip(eta.plus, lam.plus))
                for m in map(Fraction, ms):
                    total = sum(
                        c * sl.plus.count_vectors(plus, m - m1)
                        for (label, m1), c in form.coeffs.items()
                        if label == eta.label
                    )
                    if total:
                        expect[(eta.label, li_, m)] = total
        assert table == expect
