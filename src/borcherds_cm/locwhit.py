"""Normalized local Whittaker functions as exact polynomials in X = p^{-s}.

Provides value/derivative extraction at s = 0 and the reassembly of the
derivative of the weight-one Eisenstein Fourier coefficient.  The assembled
coefficient serves as the independent oracle for the closed-form kappa
module: both must agree exactly as FactoredLog values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredLog, ZERO_LOG, valuation
from .quadfield import RAMIFIED

PREFACTOR_NONE = "none"
PREFACTOR_GAMMA_Q_ROOT_Q = "gamma_q_root_q"


@dataclass(frozen=True)
class WhitPoly:
    """A local Whittaker function W*_{t,p}(s) as a polynomial in X = p^{-s}.

    coeffs is the tuple of rational coefficients (empty tuple = identically
    zero).  prefactor_class records a suppressed gamma_q * q^{-1/2} unit;
    those units cancel globally and are never evaluated.
    """

    p: int
    coeffs: tuple
    prefactor_class: str = PREFACTOR_NONE

    def is_zero_poly(self):
        return not self.coeffs

    def value_at_one(self):
        """The polynomial value at X = 1, i.e. the s = 0 value."""
        return sum(self.coeffs, Fraction(0))

    def x_deriv_at_one(self):
        """d/dX at X = 1."""
        return sum(
            (Fraction(r) * c for r, c in enumerate(self.coeffs)), Fraction(0)
        )

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
    return WhitPoly(p, tuple(Fraction(sign**r) for r in range(a + 1)))


def _t_effective(fld, q, t, norm):
    """Local Whittaker parameter at a ramified q for the ideal lattice
    (a, -Nx/Na): the local lattice is the unimodular ramified lattice with
    its form scaled by the q-unit d^{ord_q(Na)} / Na, so the standard
    formulas apply with t replaced by t * Na / d^{ord_q(Na)}."""
    norm = Fraction(norm)
    e = valuation(norm, q)
    return Fraction(t) * norm / Fraction(fld.d) ** e


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
    coeffs = [Fraction(0)] * (a + 2)
    coeffs[0] = Fraction(1)
    coeffs[a + 1] = Fraction(sign)
    return WhitPoly(q, tuple(coeffs), PREFACTOR_GAMMA_Q_ROOT_Q)


def whit_ramified_case_split(fld, q, t, norm=1):
    """The two-case form of the ramified zero-coset Whittaker function,
    using (q,-t)_q for even ord and (q,-dt)_q for odd ord, applied to the
    effective local parameter.

    Provably equal to whit_ramified_zero; kept as an independent check.
    """
    from .arith import hilbert_symbol

    a = valuation(t, q)
    if a < 0:
        raise ValueError("requires ord_q(t) >= 0")
    te = _t_effective(fld, q, t, norm)
    if a % 2 == 0:
        sign = hilbert_symbol(q, -te, q)
    else:
        sign = hilbert_symbol(q, -fld.d * te, q)
    coeffs = [Fraction(0)] * (a + 2)
    coeffs[0] = Fraction(1)
    coeffs[a + 1] = Fraction(sign)
    return WhitPoly(q, tuple(coeffs), PREFACTOR_GAMMA_Q_ROOT_Q)


def whit_ramified_nonzero(fld, q, t, q_mu):
    """W*_{t,q} at a ramified prime for a nonzero local coset: the constant
    char(Q(mu_q) + Z_q)(t), with the gamma_q q^{-1/2} unit suppressed."""
    if fld.d % q != 0:
        raise ValueError(f"{q} is unramified in Q(sqrt(-{fld.d}))")
    diff = Fraction(t) - Fraction(q_mu)
    member = diff == 0 or valuation(diff, q) >= 0
    coeffs = (Fraction(1),) if member else ()
    return WhitPoly(q, coeffs, PREFACTOR_GAMMA_Q_ROOT_Q)


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
    local_polys: dict = None


def _local_polys(fld, mu, t, norm=1):
    """All potentially non-unit local factors of the coefficient at t."""
    t = Fraction(t)
    polys = {}
    for q in fld.ramified_primes:
        if mu.local_zero(q):
            if valuation(t, q) < 0:
                polys[q] = WhitPoly(q, (), PREFACTOR_GAMMA_Q_ROOT_Q)
            else:
                polys[q] = whit_ramified_zero(fld, q, t, norm)
        else:
            polys[q] = whit_ramified_nonzero(fld, q, t, mu.q_value)
    for n in (t.numerator, t.denominator):
        for p in _prime_divisors(n):
            if fld.d % p == 0 or p in polys:
                continue
            polys[p] = whit_unramified(fld, p, t)
    return polys


def _prime_divisors(n):
    from .arith import factorize

    return [p for p, _ in factorize(abs(n))] if abs(n) > 1 else []


def eisenstein_deriv_coeff(fld, lat, mu, t):
    """Derivative at s = 0 of the coefficient at t > 0, assembled from local
    Whittaker data, normalized to equal kappa(t, mu, a).

    The archimedean factor contributes the constant -2 after the gamma and
    d^{(s+1)/2} prefactor cancellations; division by h_k converts the
    normalized derivative E^{*,'} to E'.  If two or more local values vanish
    the result is zero; if none vanish (impossible for an incoherent
    coefficient) the result carries the "nonvanishing-value" flag.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("eisenstein_deriv_coeff requires t > 0")
    if lat.field.d != fld.d:
        raise ValueError("lattice/field mismatch")
    polys = _local_polys(fld, mu, t, lat.norm)
    for w in polys.values():
        if w.is_zero_poly():
            return EisensteinDerivative(ZERO_LOG, None, polys)
    vanishing = [p for p, w in polys.items() if w.value_at_one() == 0]
    if len(vanishing) >= 2:
        return EisensteinDerivative(ZERO_LOG, None, polys)
    if not vanishing:
        return EisensteinDerivative(ZERO_LOG, FLAG_NONVANISHING, polys)
    p0 = vanishing[0]
    _, deriv = value_deriv_at_zero(polys[p0])
    other = Fraction(1)
    for p, w in polys.items():
        if p != p0:
            other *= w.value_at_one()
    coeff = Fraction(-2, fld.h) * other
    return EisensteinDerivative(coeff * deriv, None, polys)
