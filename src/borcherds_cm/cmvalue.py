"""Averaged CM values of the theta lift: contraction coefficients, the
constants kappa_eta(m), the averaged Phi value, and the rational /
transcendental factorization of the product of Petersson norms.

All exact data flows through KappaValue (FactoredLog plus a rational
multiple of the constant k0(0)); the transcendental part exponentiates
k0(0) and is evaluated numerically only on request.

Each SplitLattice keeps its table of kappa_eta(m) values per field, keyed
within the field by the integer triple (eta label, num, den) with
m = num/den in lowest terms, so the reports of many forms on one lattice
share the double sum.  FourierForm.terms uses the same (label, num, den)
keys, so _inner_sum and c00_contraction fetch the field's table once per
call and then look up tuples of ints; a Fraction m is made only when an
entry is computed.  Each entry also keeps n0, the number of vectors x
with Q(x) = m over the pairs whose mu is zero, which the double sum walks
anyway; c00_contraction sums c_eta(-m) * n0 from these entries.
Each FourierForm keeps one inner sum per (lattice, field), before the
vol_KT scaling, so log_psi_product and phi_average on one form compute it
once whatever vol_KT they take.
quadfield.kappa_zero_constant keeps k0(0) per field and precision, and
CMValueReport.numeric adds its multiple to the rational part in one
fixed-point integer sum (FactoredLog.fixed_point_value), rounded once.
SplitLattice.eta_pairs gives, per eta, the pairs (lambda, mu,
eta_+ + lambda_+) with mu the canonical coset of eta_- + lambda_-, built
on the first request for that eta, so kappa_eta and contraction_coeffs
find each coset once.
Every exact sum (kappa_eta(m) and the inner sum) is added up in one pass
into one prime -> numerator dict over one denominator and one k0(0)
multiple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import dps_to_prec

from .arith import FactoredLog, _ratio, flog_combine
from .forms import m_max
from .kappa import KAPPA_ZERO, KappaValue, kappa_at
from .quadfield import INERT, kappa_zero_constant


def _combine(pairs):
    """sum_i c_i * v_i over (c_i, KappaValue v_i), in one pass: one
    FactoredLog sum and one k0(0) multiple over the nonzero multiples."""
    pairs = list(pairs)
    return KappaValue(
        flog_combine((c, v.log_part) for c, v in pairs),
        sum(
            (c * v.kzero_multiple for c, v in pairs if v.kzero_multiple),
            Fraction(0),
        ),
    )


def contraction_coeffs(form, sl, m_values):
    """The table C_{eta, lambda}(m) = sum_{m1+m2=m} c_eta(m1) d_{eta_+ +
    lambda_+}(m2), for m in m_values.

    Returns a dict (eta_label, lambda_index, m) -> rational.  The m1 sum
    runs over the finite support of c_eta; d counts vectors of norm m2 >= 0.
    """
    coeffs = form.coeffs
    table = {}
    for eta in sl.etas:
        support = [
            (m1, c) for (label, m1), c in coeffs.items() if label == eta.label
        ]
        if not support:
            continue
        for li, _, coset in sl.eta_pairs(eta.label):
            for m in m_values:
                m = Fraction(m)
                total = Fraction(0)
                for m1, c in support:
                    m2 = m - m1
                    if m2 >= 0:
                        total += c * sl.plus.count_vectors(coset, m2)
                if total:
                    table[(eta.label, li, m)] = total
    return table


def c00_contraction(form, sl):
    """The zeroth coefficient of <F, theta_+>:
    sum_eta sum_{lambda : eta_- + lambda_- = 0} C_{eta, lambda_+}(0),
    that is sum_eta sum_{m >= 0} c_eta(-m) n0 with n0 from the kappa_eta
    entry of (eta, m) over the lattice's own field."""
    fld = sl.minus.field
    table = _field_table(sl, fld)
    return Fraction(sum(
        c * _kappa_eta_entry(table, fld, sl, (label, -num, den))[1]
        for (label, num, den), c in form.terms.items()
        if num <= 0
    ))


def kappa_eta(fld, sl, eta_label, m):
    """kappa_eta(m) = sum_lambda sum_{x in eta_+ + lambda_+ + L_+}
    kappa_{eta_- + lambda_-}(m - Q(x)), a finite sum since Q(x) >= 0 and
    kappa vanishes at negative arguments.

    Each value is computed once per lattice and kept in its table; a
    KappaValue is immutable, so callers may share it."""
    num, den = _ratio(m)
    if num < 0:
        return KAPPA_ZERO
    key = (eta_label, num, den)
    return _kappa_eta_entry(_field_table(sl, fld), fld, sl, key)[0]


def _field_table(sl, fld):
    """The lattice's kappa_eta table of one field: (eta label, num, den) ->
    (kappa_eta(m), n0) with m = num/den >= 0 in lowest terms."""
    table = sl._kappa_eta.get(fld)
    if table is None:
        table = sl._kappa_eta[fld] = {}
    return table


def _kappa_eta_entry(table, fld, sl, key):
    """The entry (kappa_eta(m), n0) of key = (eta label, num, den) in the
    field's table, with n0 = #{x in eta_+ + lambda_+ + L_+ : Q(x) = m}
    summed over the lambda with mu = eta_- + lambda_- zero; computed on
    first request."""
    entry = table.get(key)
    if entry is None:
        label, num, den = key
        entry = table[key] = _kappa_eta_sum(fld, sl, label, Fraction(num, den))
    return entry


def _kappa_eta_sum(fld, sl, eta_label, m):
    pairs = []
    n0 = 0
    for _, mu, coset in sl.eta_pairs(eta_label):
        norms = sl.plus.vector_norms_up_to(coset, m)
        pairs.extend(
            (count, kappa_at(fld, sl.minus, mu, m - qx))
            for qx, count in norms.items()
        )
        if mu.is_zero:
            n0 += norms.get(m, 0)
    return _combine(pairs), n0


def _inner_sum(form, sl, fld):
    """sum_eta sum_{m >= 0} c_eta(-m) kappa_eta(m) over the principal part
    and constant terms of the form.

    Each value is computed once per (lattice, field) and kept on the form,
    unscaled, so log_psi_product and phi_average share it at any vol_KT."""
    key = (sl, fld)
    value = form._inner_sum.get(key)
    if value is None:
        table = _field_table(sl, fld)
        value = form._inner_sum[key] = _combine(
            (c, _kappa_eta_entry(table, fld, sl, (label, -num, den))[0])
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


def phi_average(form, sl, fld, vol_kt=None):
    vol_kt = _checked_vol_kt(fld, vol_kt)
    inner = _inner_sum(form, sl, fld)
    return PhiAverage(
        inner=inner,
        value=2 * inner,
        cycle_sum=4 / vol_kt * inner,
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

    def is_rational(self):
        return self.kzero_coeff == 0

    def rational_value(self):
        """exp(rational_part) as an exact Fraction when possible."""
        return self.rational_part.exp_rational()

    def numeric(self, fld, prec=64):
        """sum_z log ||Psi(z)||^2 at prec digits: rational_part plus
        kzero_coeff times k0(0) at prec digits, summed in fixed-point
        integers and rounded once to dps_to_prec(prec + 20) bits (see
        FactoredLog.fixed_point_value for the error budget)."""
        k0 = kappa_zero_constant(fld, prec) if self.kzero_coeff else None
        return self.rational_part.fixed_point_value(
            dps_to_prec(prec + 20), self.kzero_coeff, k0
        )


def log_psi_product(form, sl, fld, vol_kt=None):
    """CMValueReport for sum_z log ||Psi(z; F)||^2 = (-2 / vol_KT) *
    sum_eta sum_{m>=0} c_eta(-m) kappa_eta(m)."""
    vol_kt = _checked_vol_kt(fld, vol_kt)
    inner = _inner_sum(form, sl, fld)
    scaled = -2 / vol_kt * inner
    return CMValueReport(
        rational_part=scaled.log_part,
        kzero_coeff=scaled.kzero_multiple,
        c00=c00_contraction(form, sl),
        degree=2 * fld.h,
        vol_kt=vol_kt,
        d=fld.d,
    )


def transcendental_base(fld, prec=64):
    """The base (4 d pi)^{-1} e^{2 L'(0)/L(0)} of the transcendental factor,
    in both forms: the exponential form and the Gamma-product
    [(4 d pi)^{-h} prod_a Gamma(a/d)^{w chi(a)}]^{1/h}."""
    from .quadfield import chowla_selberg_log_deriv

    with mp.workdps(prec + 20):
        cs = chowla_selberg_log_deriv(fld, prec)
        form1 = mp.exp(2 * cs) / (4 * fld.d * mp.pi)
        prod = mp.mpf(1)
        for a in range(1, fld.d):
            c = fld.chi_of_prime(a)
            if c:
                prod *= mp.gamma(mp.mpf(a) / fld.d) ** (fld.w * c)
        form2 = mp.power(prod / mp.power(4 * fld.d * mp.pi, fld.h), mp.mpf(1) / fld.h)
        return +form1, +form2


def check_prime_support(report, fld, form):
    """Verify that every prime in the rational part is ramified, or inert
    with p <= d * m_max(F).  Returns (ok, violations)."""
    bound = fld.d * m_max(form)
    violations = []
    for p in report.rational_part.primes():
        if fld.d % p == 0:
            continue
        if fld.splitting(p) == INERT and p <= bound:
            continue
        violations.append(p)
    return not violations, violations
