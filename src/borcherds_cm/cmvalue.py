"""Averaged CM values of the theta lift: contraction coefficients, the
constants kappa_eta(m), the averaged Phi value, and the rational /
transcendental factorization of the product of Petersson norms.

All exact data flows through KappaValue (FactoredLog plus a rational
multiple of the constant k0(0)); the transcendental part exponentiates
k0(0) and is evaluated numerically only on request.

L_- is an ideal lattice of k = Q(sqrt(-d)), so the lattice fixes the
field: the exact sums read it from sl.minus.field, and check_field
refuses a public call's fld whose d is not the lattice's (or report's).
Each SplitLattice keeps one table of kappa_eta(m), keyed by the integer
triple (eta label, num, den) with m = num/den in lowest terms, the key of
FourierForm.terms too, so the reports of many forms on one lattice share
the double sum.  kappa at 0 is k0(0) [mu = 0] and kappa_positive has no
k0(0) part, so the k0(0) multiple of kappa_eta(m) is n0, the count of x
with Q(x) = m over the pairs whose mu is zero.  One pass over a form's
terms gives the inner sum of c_eta(-m) kappa_eta(m), whose k0(0) multiple
is thus c00 = sum c_eta(-m) n0; the form keeps it per lattice, before the
vol_KT scaling, for log_psi_product, phi_average and c00_contraction.
vol_KT = a/b scales it by integers: -2b/a, 2 and 4b/a, each reduced by one
small gcd.  quadfield.kappa_zero_constant keeps k0(0) per field and
precision, and CMValueReport.numeric adds its multiple to the rational
part in one fixed-point integer sum (FactoredLog.fixed_point_value),
rounded once.
SplitLattice.eta_pairs gives, per eta, the pairs (lambda, mu, x_+) with
mu the coset of eta_- + lambda_-, found by adding two labels (eta_-'s
read from the Smith digits of eta's label) and kept in no memo, and x_+
the integer numerators of eta_+ + lambda_+ over eta.den.
A table entry is filled in integers: PosLattice.norm_counts gives the
norms N = 2 g den^2 Q(x) of each x_+ + L_+ up to m, so m - Q(x) is a
ratio of ints, and kappa of it is read from a dict on the IdealLattice
L_- keyed by (mu label, t num, t den) in lowest terms, made by kappa_at
on a miss.  Only this fill reads or writes that dict, so each (mu, t) is
checked and computed once per ideal lattice while kappa_at and
kappa_positive keep no memo.  The entry is added up in the same pass:
its k0(0) multiple n0 is an integer count, the nonzero log parts go
through one flog_combine, and it makes one KappaValue and no Fraction
but its nonzero n0.
contraction_coeffs walks only its form's etas, with one norm_counts per
(eta, lambda) up to the largest m - m1 it needs.
The inner sum is added up in one pass into one prime -> numerator dict
over one denominator and one k0(0) multiple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import dps_to_prec

from .arith import FactoredLog, _check_prec, _ratio, flog_combine
from .forms import _m_max_ratio
from .kappa import KAPPA_ZERO, KappaValue, kappa_at
from .quadfield import INERT, check_field, kappa_zero_constant


def _combine(pairs):
    """sum_i c_i * v_i over (c_i, KappaValue v_i), in one pass: one
    FactoredLog sum, and the nonzero k0(0) multiples summed as integer
    numerators over one denominator into one Fraction."""
    logs = []
    kzero = []
    for c, v in pairs:
        logs.append((c, v.log_part))
        k = v.kzero_multiple
        if k:
            a, b = _ratio(c)
            kzero.append((a * k.numerator, b * k.denominator))
    den = math.lcm(*(b for _, b in kzero))
    return KappaValue(
        flog_combine(logs),
        Fraction(sum(a * (den // b) for a, b in kzero), den),
    )


def contraction_coeffs(form, sl, m_values):
    """The table C_{eta, lambda}(m) = sum_{m1+m2=m} c_eta(m1) d_{eta_+ +
    lambda_+}(m2), for m in m_values.

    Returns a dict (eta_label, lambda_index, m) -> rational.  The m1 sum
    runs over the finite support of c_eta in the form's terms, so only its
    etas are made; d counts vectors of norm m2 >= 0, read from one
    norm_counts enumeration per (eta, lambda) up to the largest m2 needed.
    """
    form.check_lattice(sl)
    plus = sl.plus
    m_values = [Fraction(m) for m in m_values]
    supports = {}
    for (label, num, den), c in form.terms.items():
        supports.setdefault(label, []).append((Fraction(num, den), c))
    table = {}
    for label, support in sorted(supports.items()):
        E = sl.coset(label).den
        # Q(x) = m2 is N = m2 * scale in norm_counts; a non-integral N
        # counts no vector
        scale = 2 * plus.g * E * E
        needs = [
            (m, [(c, (m - m1) * scale) for m1, c in support]) for m in m_values
        ]
        top = max(
            (math.floor(N) for _, terms in needs for _, N in terms), default=-1
        )
        for li, _, x in sl.eta_pairs(label):
            counts = plus.norm_counts(x, E, top)
            for m, terms in needs:
                total = sum(
                    (c * counts.get(N.numerator, 0)
                     for c, N in terms if N.denominator == 1),
                    Fraction(0),
                )
                if total:
                    table[(label, li, m)] = total
    return table


def c00_contraction(form, sl):
    """The zeroth coefficient of <F, theta_+>:
    sum_eta sum_{lambda : eta_- + lambda_- = 0} C_{eta, lambda_+}(0),
    that is sum_eta sum_{m >= 0} c_eta(-m) n0, the k0(0) multiple of the
    inner sum: n0 is the k0(0) multiple of the kappa_eta entry of (eta, m)."""
    return _inner_sum(form, sl).kzero_multiple


def kappa_eta(fld, sl, eta_label, m):
    """kappa_eta(m) = sum_lambda sum_{x in eta_+ + lambda_+ + L_+}
    kappa_{eta_- + lambda_-}(m - Q(x)), a finite sum since Q(x) >= 0 and
    kappa vanishes at negative arguments.

    Each value is computed once per lattice and kept in its table; a
    KappaValue is immutable, so callers may share it.  fld must be the
    field of L_-."""
    check_field(fld, sl.minus.field.d)
    num, den = _ratio(m)
    if num < 0:
        return KAPPA_ZERO
    return _kappa_eta_entry(sl, (eta_label, num, den))


def _kappa_eta_entry(sl, key):
    """kappa_eta(m) for key = (eta label, num, den) with m = num/den >= 0,
    from the lattice's table; computed on first request.  Its k0(0)
    multiple is n0 = #{x in eta_+ + lambda_+ + L_+ : Q(x) = m} summed over
    the lambda with mu = eta_- + lambda_- zero."""
    entry = sl._kappa_eta.get(key)
    if entry is None:
        entry = sl._kappa_eta[key] = _kappa_eta_sum(sl, *key)
    return entry


def _kappa_eta_sum(sl, eta_label, num, den):
    """The sum over the pairs (lambda, mu, x_+) of sl.eta_pairs and the
    vectors x of x_+ + L_+ with Q(x) <= m = num/den of kappa(m - Q(x), mu),
    in integers: norm_counts gives Q(x) = N / scale, so m - Q(x) is
    (num scale - N den) / (den scale), and each kappa value is read from
    the dict of L_- under (mu label, t num, t den) in lowest terms, made
    by kappa_at on a miss.  kappa_at's k0(0) multiple is 1 at t = 0 on
    mu = 0 and 0 elsewhere, so the k0(0) multiple of the sum is the
    integer count n0 of those x; the nonzero log parts, each times its
    count, go through one flog_combine."""
    minus = sl.minus
    fld = minus.field
    kappas = minus._kappa
    plus = sl.plus
    E = sl.coset(eta_label).den
    scale = 2 * plus.g * E * E
    top = num * scale // den
    td = den * scale
    logs = []
    n0 = 0
    for _, mu, x in sl.eta_pairs(eta_label):
        for N, count in plus.norm_counts(x, E, top).items():
            tn = num * scale - N * den
            g = math.gcd(tn, td)
            key = (mu.label, tn // g, td // g)
            value = kappas.get(key)
            if value is None:
                value = kappas[key] = kappa_at(fld, minus, mu, Fraction(tn, td))
            if value.kzero_multiple:
                n0 += count
            elif value.log_part:
                logs.append((count, value.log_part))
    log_part = flog_combine(logs)
    return KappaValue(log_part, Fraction(n0)) if n0 else KappaValue(log_part)


def _inner_sum(form, sl):
    """sum_eta sum_{m >= 0} c_eta(-m) kappa_eta(m) over the principal part
    and constant terms of the form; its k0(0) multiple is c00.

    The sum is computed once per lattice and kept on the form, unscaled,
    so log_psi_product, phi_average and c00_contraction share it at any
    vol_KT; a lattice other than the form's own is checked first."""
    value = form._inner_sums.get(sl)
    if value is None:
        if sl is not form._lattice:
            form.check_lattice(sl)
        value = form._inner_sums[sl] = _combine(
            (c, _kappa_eta_entry(sl, (label, -num, den)))
            for (label, num, den), c in form.terms.items()
            if num <= 0
        )
    return value


@dataclass(frozen=True)
class PhiAverage:
    """Both normalizations of the averaged theta lift."""

    inner: KappaValue      # sum_eta sum_{m>=0} c_eta(-m) kappa_eta(m)
    value: KappaValue      # 2 * inner (the SO(U) integral)
    cycle_sum: KappaValue  # (4 / vol_KT) * inner (sum over Z(U)_K)
    vol_kt: Fraction


@functools.cache
def default_vol_kt(fld):
    """2 / h, made once per field."""
    return Fraction(2, fld.h)


def _checked_vol_kt(fld, vol_kt):
    """vol_kt as a positive Fraction; default_vol_kt(fld) when None."""
    if vol_kt is None:
        return default_vol_kt(fld)
    vol_kt = Fraction(vol_kt)
    if vol_kt <= 0:
        raise ValueError("vol_KT must be positive")
    return vol_kt


def _over_vol_kt(c, vol_kt, value):
    """(c / vol_kt) * value for an int c, as one integer scaling by
    c b / a with vol_kt = a/b, reduced by gcd(c, a)."""
    a = vol_kt.numerator
    g = math.gcd(c, a)
    return value._scaled(c // g * vol_kt.denominator, a // g)


def phi_average(form, sl, fld, vol_kt=None):
    check_field(fld, sl.minus.field.d)
    vol_kt = _checked_vol_kt(fld, vol_kt)
    inner = _inner_sum(form, sl)
    return PhiAverage(
        inner=inner,
        value=inner._scaled(2, 1),
        cycle_sum=_over_vol_kt(4, vol_kt, inner),
        vol_kt=vol_kt,
    )


@dataclass(frozen=True)
class CMValueReport:
    """The factorization  prod ||Psi(z)||^2 = rat * base^exponent  with
    base = (4 d pi)^{-1} exp(2 sum_a chi(a) log Gamma(a/d) * w/(2h)).

    rational_part is log(rat); kzero_coeff is the coefficient of k0(0) in
    the log of the product, so exponent = -kzero_coeff.
    """

    rational_part: FactoredLog
    kzero_coeff: Fraction
    c00: Fraction
    degree: int
    vol_kt: Fraction
    d: int

    @property
    def transcendental_exponent(self):
        return -self.kzero_coeff

    def rational_value(self):
        """exp(rational_part) as an exact Fraction when possible."""
        return self.rational_part.exp_rational()

    def numeric(self, fld, prec=64):
        """sum_z log ||Psi(z)||^2 at prec digits: rational_part plus
        kzero_coeff times k0(0) at prec digits, summed in fixed-point
        integers and rounded once to dps_to_prec(prec + 20) bits (see
        FactoredLog.fixed_point_value for the error budget).  Every report
        checks prec, and fld must be the field of the report."""
        _check_prec(prec)
        check_field(fld, self.d)
        k0 = kappa_zero_constant(fld, prec) if self.kzero_coeff else None
        return self.rational_part.fixed_point_value(
            dps_to_prec(prec + 20), self.kzero_coeff, k0
        )


def log_psi_product(form, sl, fld, vol_kt=None):
    """CMValueReport for sum_z log ||Psi(z; F)||^2 = (-2 / vol_KT) *
    sum_eta sum_{m>=0} c_eta(-m) kappa_eta(m)."""
    check_field(fld, sl.minus.field.d)
    vol_kt = _checked_vol_kt(fld, vol_kt)
    inner = _inner_sum(form, sl)
    scaled = _over_vol_kt(-2, vol_kt, inner)
    return CMValueReport(
        rational_part=scaled.log_part,
        kzero_coeff=scaled.kzero_multiple,
        c00=inner.kzero_multiple,
        degree=2 * fld.h,
        vol_kt=vol_kt,
        d=fld.d,
    )


def check_prime_support(report, fld, form):
    """Verify that every prime in the rational part is ramified, or inert
    with p <= d * m_max(F).  Returns (ok, violations)."""
    check_field(fld, report.d)
    d = fld.d
    top, bottom = _m_max_ratio(form)
    violations = []
    for p in report.rational_part.primes():
        if d % p == 0:
            continue
        if fld.splitting(p) == INERT and p * bottom <= d * top:
            continue
        violations.append(p)
    return not violations, violations
