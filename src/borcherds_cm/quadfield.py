"""Imaginary quadratic field data for k = Q(sqrt(-d)) with -d an odd
fundamental discriminant.

Covers the quadratic character and prime splitting, the class number via
reduced binary quadratic forms, the ideal-norm counting function rho, and
the L-function values and derivatives that enter the constant k0(0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .arith import INFINITE_PLACE, factorize, hilbert_symbol, kronecker

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class UnsupportedDiscriminantError(ValueError):
    """Raised for d outside the supported family (d > 3, d = 3 mod 4, squarefree)."""


class PrecisionError(ValueError):
    """Raised when a numeric routine cannot meet the requested precision."""


# Largest d accepted: reduced_forms walks about d/3 pairs (a, b), which
# takes about 0.5 s at d = 10^7 on an Intel Xeon.
MAX_D = 10**7


def _fundamental_factors(d):
    """factorize(d) when -d is an odd fundamental discriminant (d > 0,
    d = 3 mod 4, squarefree), else None.  A d above MAX_D is refused
    before any work that grows with d."""
    if d > MAX_D:
        raise UnsupportedDiscriminantError(
            f"d={d} is above the cap of {MAX_D}"
        )
    if d <= 0 or d % 4 != 3:
        return None
    factors = factorize(d)
    return factors if all(e == 1 for _, e in factors) else None


def reduced_forms(d):
    """All reduced primitive binary quadratic forms (a, b, c) of discriminant -d.

    Requires -d to be an odd fundamental discriminant (d = 3 mod 4,
    squarefree) with d <= MAX_D.  Boundary convention: b >= 0 when |b| = a
    or a = c.  Returned in canonical (a, b) order; the list length is the
    class number.
    """
    if _fundamental_factors(d) is None:
        raise UnsupportedDiscriminantError(
            f"d={d}: -d is not an odd fundamental discriminant"
        )
    forms = []
    a_max = math.isqrt(d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    forms.sort()
    return forms


@dataclass(frozen=True)
class QuadField:
    """Immutable data for k = Q(sqrt(-d)), discriminant -d odd fundamental."""

    d: int
    discriminant: int
    ramified_primes: tuple
    h: int
    w: int = 2
    _split_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def chi(self, t, p):
        """Local character chi_p(t) = (t, -d)_p; p a prime or INFINITE_PLACE."""
        return hilbert_symbol(t, -self.d, p)

    def chi_of_prime(self, n):
        """Global character value chi_d(n) = (-d | n); 0 when gcd(n, d) > 1."""
        return kronecker(-self.d, n)

    def splitting(self, p):
        """Splitting type of the rational prime p in O_k."""
        cached = self._split_cache.get(p)
        if cached is not None:
            return cached
        if self.d % p == 0:
            s = RAMIFIED
        else:
            s = SPLIT if kronecker(-self.d, p) == 1 else INERT
        self._split_cache[p] = s
        return s

    def rho(self, t):
        """Number of integral O_k-ideals of norm t, for positive rational t:
        the product over p^a || t of a + 1 for split p, 1 for ramified p,
        and 1 or 0 for inert p as a is even or odd."""
        t = Fraction(t)
        if t <= 0:
            raise ValueError("rho requires t > 0")
        if t.denominator != 1:
            return 0  # no integral ideal has non-integer norm
        result = 1
        for p, a in factorize(t.numerator):
            s = self.splitting(p)
            if s == SPLIT:
                result *= a + 1
            elif s == INERT and a % 2:
                return 0
        return result


def make_field(d):
    """Construct QuadField data for d squarefree, d = 3 mod 4, 3 < d <= MAX_D."""
    d = int(d)
    factors = _fundamental_factors(d)
    if d <= 3 or factors is None:
        raise UnsupportedDiscriminantError(
            f"d={d}: need d > 3, d = 3 (mod 4), squarefree (2-ramified fields "
            "are out of scope)"
        )
    ramified = tuple(p for p, _ in factors)
    h = len(reduced_forms(d))
    return QuadField(d=d, discriminant=-d, ramified_primes=ramified, h=h)


def check_field(fld, d):
    """Refuse a field fld passed next to a lattice (or a report made on
    one) over Q(sqrt(-d)) with fld.d != d: its ramified primes, splitting
    and class number would silently give a wrong answer."""
    if fld.d != d:
        raise ValueError(f"field d={fld.d} is not the lattice's field d={d}")


# ---------------------------------------------------------------------------
# High-precision L-function machinery
# ---------------------------------------------------------------------------


# Most digits any precision option accepts.
MAX_PREC = 10000


def _check_prec(prec, name="prec"):
    """Reject digit counts outside [10, MAX_PREC]; name is the option that
    the message blames."""
    if prec < 10:
        raise PrecisionError(f"{name} must be >= 10, got {prec}")
    if prec > MAX_PREC:
        raise PrecisionError(f"{name}={prec} beyond supported range")


def L_at_one(fld, prec=64):
    """L(1, chi_d) to prec digits.

    Uses the digamma character sum L(1) = -(1/d) sum_a chi(a) psi(a/d),
    obtained by folding the Dirichlet series over residues mod d.
    Independent of the class number formula, which serves as the oracle.
    """
    _check_prec(prec)
    d = fld.d
    with mp.workdps(prec + 20):
        total = mp.mpf(0)
        for a in range(1, d):
            c = fld.chi_of_prime(a)
            if c:
                total += c * mp.digamma(mp.mpf(a) / d)
        return +(-total / d)


def _L_hurwitz(fld, s):
    # L(s, chi_d) = d^{-s} sum_a chi(a) zeta(s, a/d); valid for s != 1.
    d = fld.d
    total = mp.mpf(0)
    for a in range(1, d):
        c = fld.chi_of_prime(a)
        if c:
            total += c * mp.zeta(s, mp.mpf(a) / d)
    return mp.power(d, -s) * total


def L_at_zero(fld):
    """Exact L(0, chi_d) = -(1/d) sum_a a*chi_d(a), as a Fraction."""
    d = fld.d
    s = sum(a * fld.chi_of_prime(a) for a in range(1, d))
    return Fraction(-s, d)


def chowla_selberg_log_deriv(fld, prec=64):
    """L'(0, chi_d)/L(0, chi_d) via the Chowla-Selberg closed form.

    Equals (w_k / 2h_k) * sum_{a=1}^{d-1} chi_d(a) log Gamma(a/d).
    """
    _check_prec(prec)
    d = fld.d
    with mp.workdps(prec + 20):
        total = mp.mpf(0)
        for a in range(1, d):
            c = fld.chi_of_prime(a)
            if c:
                total += c * mp.loggamma(mp.mpf(a) / d)
        return +(total * fld.w / (2 * fld.h))


def l_log_deriv_at_zero_direct(fld, prec=64):
    """Oracle route for the Chowla-Selberg log derivative: central
    difference at s = 0 of log of the character sum sum_a chi(a) zeta(s, a/d).

    This is the normalization (without the d^{-s} prefactor) in which the
    log Gamma closed form holds; it exceeds the log derivative of
    L(s, chi_d) itself by log(d).
    """
    _check_prec(prec)
    with mp.workdps(2 * prec + 40):
        h = mp.mpf(10) ** (-prec // 2 - 5)
        f_plus = mp.power(fld.d, h) * _L_hurwitz(fld, h)
        f_minus = mp.power(fld.d, -h) * _L_hurwitz(fld, -h)
        val = (mp.log(abs(f_plus)) - mp.log(abs(f_minus))) / (2 * h)
    with mp.workdps(prec + 20):
        return +val


def l_log_deriv_at_one_direct(fld, prec=64):
    """L'(1)/L(1) by central difference of log L across the (cancelling)
    Hurwitz-zeta poles at s = 1."""
    _check_prec(prec)
    with mp.workdps(2 * prec + 60):
        h = mp.mpf(10) ** (-prec // 2 - 5)
        lp = mp.log(_L_hurwitz(fld, 1 + h)) - mp.log(_L_hurwitz(fld, 1 - h))
        val = lp / (2 * h)
    with mp.workdps(prec + 20):
        return +val


def lambda_log_deriv_at_one(fld, prec=64):
    """Lambda'(1, chi_d)/Lambda(1, chi_d) for the completed L-function,
    in the normalization  -log(pi)/2 + Gamma'(1) + L'(1)/L(1)  that pairs
    with the Chowla-Selberg form of the s = 0 data (the two conventions
    shift by gamma/2 + log d in lockstep, leaving k0(0) well defined)."""
    _check_prec(prec)
    with mp.workdps(prec + 20):
        return +(
            -mp.log(mp.pi) / 2
            + mp.digamma(1)
            + l_log_deriv_at_one_direct(fld, prec)
        )


@functools.cache
def kappa_zero_constant(fld, prec=64):
    """The constant k0(0) = log(d) + 2 Lambda'(1)/Lambda(1).

    Production path uses the functional-equation form
    k0(0) = log(4*d*pi) - 2 L'(0, chi_d)/L(0, chi_d) with the
    Chowla-Selberg evaluation of L'(0)/L(0).  Computed once per field
    and precision; the mpf result is immutable.
    """
    _check_prec(prec)
    with mp.workdps(prec + 20):
        return +(
            mp.log(4 * fld.d * mp.pi) - 2 * chowla_selberg_log_deriv(fld, prec)
        )


def kappa_zero_direct(fld, prec=64):
    """Oracle route for k0(0): log(d) + 2 Lambda'(1)/Lambda(1) evaluated
    at s = 1 directly."""
    _check_prec(prec)
    with mp.workdps(prec + 20):
        return +(mp.log(fld.d) + 2 * lambda_log_deriv_at_one(fld, prec))
