"""Normalized local Whittaker functions as exact polynomials in X = p^{-s}.

Provides value/derivative extraction at s = 0 and the reassembly of the
derivative of the weight-one Eisenstein Fourier coefficient.  The assembled
coefficient serves as the independent oracle for the closed-form kappa
module: both must agree exactly as FactoredLog values.

Every coefficient is 0 or +-1, kept as a Python int, so values and
derivatives at X = 1 are int sums.  The assembly builds the ramified factors
first and stops at the first one that is the zero polynomial, before it
factors t.  Its input check is lattice.check_coset, the one kappa makes:
an IdealLattice over the field and one of its cosets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredLog, ZERO_LOG, factorize, valuation
from .lattice import check_coset


@dataclass(frozen=True)
class WhitPoly:
    """A local Whittaker function W*_{t,p}(s) as a polynomial in X = p^{-s}.

    coeffs is the tuple of int coefficients (empty tuple = identically
    zero).  The ramified factors suppress a gamma_q * q^{-1/2} unit; those
    units cancel globally and are never evaluated.
    """

    p: int
    coeffs: tuple

    def is_zero_poly(self):
        return not self.coeffs

    def value_at_one(self):
        """The polynomial value at X = 1, i.e. the s = 0 value."""
        return sum(self.coeffs)

    def x_deriv_at_one(self):
        """d/dX at X = 1."""
        return sum(r * c for r, c in enumerate(self.coeffs))

    def poly_string(self):
        if not self.coeffs:
            return "0"
        parts = []
        for r, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if r == 0:
                parts.append(str(c))
            else:
                mono = "X" if r == 1 else f"X^{r}"
                if c == 1:
                    parts.append(f"+ {mono}" if parts else mono)
                elif c == -1:
                    parts.append(f"- {mono}" if parts else f"-{mono}")
                else:
                    parts.append(f"+ {c}*{mono}" if parts else f"{c}*{mono}")
        return " ".join(parts) if parts else "0"


def whit_unramified(fld, p, t):
    """W*_{t,p} at an unramified prime: sum_{r=0}^{ord_p(t)} (chi_p(p) X)^r.

    Identically zero when ord_p(t) < 0 (the local lattice is unimodular, so
    only t integral at p contributes).
    """
    if fld.d % p == 0:
        raise ValueError(f"{p} is ramified in Q(sqrt(-{fld.d}))")
    a = valuation(t, p)
    if a < 0:
        return WhitPoly(p, ())
    sign = fld.chi_of_prime(p)
    return WhitPoly(p, tuple(sign**r for r in range(a + 1)))


def _t_effective(fld, q, t, norm):
    """Local Whittaker parameter at a ramified q for the ideal lattice
    (a, -Nx/Na): the local lattice is the unimodular ramified lattice with
    its form scaled by the q-unit d^{ord_q(Na)} / Na, so the standard
    formulas apply with t replaced by t * Na / d^{ord_q(Na)}."""
    return Fraction(t * norm, fld.d ** valuation(norm, q))


def whit_ramified_zero(fld, q, t, norm=1):
    """W*_{t,q} at a ramified prime for the zero local coset:
    1 + chi_q(-t_eff) X^{ord_q(t)+1}, with the gamma_q q^{-1/2} unit
    suppressed.  norm is Na; since chi_q(d) = 1 the twist reduces to
    chi_q(-t * Na), trivial for the unit ideal."""
    if fld.d % q != 0:
        raise ValueError(f"{q} is unramified in Q(sqrt(-{fld.d}))")
    a = valuation(t, q)
    if a < 0:
        raise ValueError("whit_ramified_zero requires ord_q(t) >= 0")
    sign = fld.chi(-_t_effective(fld, q, t, norm), q)
    return WhitPoly(q, (1,) + (0,) * a + (sign,))


def whit_ramified_nonzero(fld, q, t, q_mu):
    """W*_{t,q} at a ramified prime for a nonzero local coset: the constant
    char(Q(mu_q) + Z_q)(t), with the gamma_q q^{-1/2} unit suppressed."""
    if fld.d % q != 0:
        raise ValueError(f"{q} is unramified in Q(sqrt(-{fld.d}))")
    diff = t - q_mu
    member = diff == 0 or valuation(diff, q) >= 0
    coeffs = (1,) if member else ()
    return WhitPoly(q, coeffs)


def value_deriv_at_zero(w):
    """(value, s-derivative) of a WhitPoly at s = 0.

    X = p^{-s} gives dX/ds = -log(p) at s = 0, so the derivative is
    -poly'(1) * log(p), returned as a FactoredLog.
    """
    value = w.value_at_one()
    dcoeff = -w.x_deriv_at_one()
    deriv = FactoredLog({w.p: dcoeff}) if dcoeff else ZERO_LOG
    return value, deriv


FLAG_NONVANISHING = "nonvanishing-value"


@dataclass
class EisensteinDerivative:
    """Assembled s-derivative of a normalized Eisenstein Fourier coefficient,
    already divided by -h_k times the archimedean/normalizer constants so
    that value is directly comparable to kappa(t, mu, a)."""

    value: FactoredLog
    flag: str = None


def _ramified_poly(fld, q, mu, t, norm):
    """The local factor at a ramified q; mu_q = 0 exactly when q divides
    both a-basis numerators of mu, tested on them, not on Q(mu) as in kappa."""
    a, b = mu.num
    if a % q or b % q:
        return whit_ramified_nonzero(fld, q, t, mu.q_mod_one)
    if valuation(t, q) < 0:
        return WhitPoly(q, ())
    return whit_ramified_zero(fld, q, t, norm)


def _unramified_polys(fld, n, t):
    """The local factors at the unramified primes dividing the integer n."""
    return {
        p: whit_unramified(fld, p, t)
        for p, _ in (factorize(n) if n > 1 else ())
        if fld.d % p
    }


def _local_polys(fld, mu, t, norm=1):
    """All potentially non-unit local factors of the coefficient at t."""
    t = Fraction(t)
    polys = {q: _ramified_poly(fld, q, mu, t, norm) for q in fld.ramified_primes}
    polys.update(_unramified_polys(fld, t.numerator, t))
    polys.update(_unramified_polys(fld, t.denominator, t))
    return polys


def eisenstein_deriv_coeff(fld, lat, mu, t):
    """Derivative at s = 0 of the coefficient at t > 0, assembled from local
    Whittaker data, normalized to equal kappa(t, mu, a).

    The archimedean factor contributes the constant -2 after the gamma and
    d^{(s+1)/2} prefactor cancellations; division by h_k converts the
    normalized derivative E^{*,'} to E'.  If a local factor is the zero
    polynomial, or two or more local values vanish, the result is zero; if
    none vanish (impossible for an incoherent coefficient) the result
    carries the "nonvanishing-value" flag.

    The ramified factors come first, and the assembly stops at the first
    zero polynomial.  An unramified prime of t's denominator gives the zero
    polynomial too, so only t's numerator is factored, and only when no
    local factor is zero.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("eisenstein_deriv_coeff requires t > 0")
    check_coset(fld, lat, mu)
    polys = {}
    for q in fld.ramified_primes:
        w = _ramified_poly(fld, q, mu, t, lat.norm)
        if w.is_zero_poly():
            return EisensteinDerivative(ZERO_LOG)
        polys[q] = w
    den = t.denominator
    for q in fld.ramified_primes:
        while den % q == 0:
            den //= q
    if den > 1:
        return EisensteinDerivative(ZERO_LOG)
    polys.update(_unramified_polys(fld, t.numerator, t))
    vanishing = [p for p, w in polys.items() if w.value_at_one() == 0]
    if len(vanishing) >= 2:
        return EisensteinDerivative(ZERO_LOG)
    if not vanishing:
        return EisensteinDerivative(ZERO_LOG, FLAG_NONVANISHING)
    p0 = vanishing[0]
    _, deriv = value_deriv_at_zero(polys[p0])
    other = 1
    for p, w in polys.items():
        if p != p0:
            other *= w.value_at_one()
    return EisensteinDerivative(Fraction(-2 * other, fld.h) * deriv)
