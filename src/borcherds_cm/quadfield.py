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

# PrecisionError is also read as quadfield.PrecisionError by callers
from .arith import (
    INFINITE_PLACE, PrecisionError, _check_prec, _whole, factorize, hilbert_symbol,
    kronecker,
)

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


class UnsupportedDiscriminantError(ValueError):
    """Raised for d outside the supported family (d > 3, d = 3 mod 4, squarefree)."""


# Largest d accepted: reduced_forms walks about d/3 pairs (a, b), which
# takes about 0.5 s at d = 10^7 on an Intel Xeon.
MAX_D = 10**7


def reduced_forms(d):
    """All reduced primitive binary quadratic forms (a, b, c) of discriminant -d.

    Requires -d to be an odd fundamental discriminant (d = 3 mod 4,
    squarefree) with d <= MAX_D.  Boundary convention: b >= 0 when |b| = a
    or a = c.  Returned in canonical (a, b) order; the list length is the
    class number.

    The walk is the squarefree test; d is not factored.  A form of
    content g > 1 has g^2 | b^2 - 4ac = -d.  If p^2 | d, then p is odd,
    d/p^2 = 3 mod 4 gives d >= 3p^2, and (p, p, (p^2 + d)/4p) is a reduced
    form of content p (Cohen, GTM 138, section 5.3).  So d is refused at
    the first imprimitive form.  A d above MAX_D is refused first.
    """
    d = _whole("d", d)
    if d > MAX_D:
        raise UnsupportedDiscriminantError(
            f"d={d} is above the cap of {MAX_D}"
        )
    not_fundamental = f"d={d}: -d is not an odd fundamental discriminant"
    if d <= 0 or d % 4 != 3:
        raise UnsupportedDiscriminantError(not_fundamental)
    forms = []
    for a in range(1, math.isqrt(d // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                raise UnsupportedDiscriminantError(not_fundamental)
            forms.append((a, b, c))
    forms.sort()
    return forms


@dataclass(frozen=True)
class QuadField:
    """Immutable data for k = Q(sqrt(-d)), discriminant -d odd fundamental.

    d alone fixes the field, so equality and hashing read d only; the
    ramified primes and the class number h are kept, not compared."""

    d: int
    ramified_primes: tuple = field(compare=False)
    h: int = field(compare=False)
    _split_cache: dict = field(default_factory=dict, repr=False, compare=False)
    w = 2  # roots of unity in O_k, 2 for every d > 3

    @property
    def discriminant(self):
        return -self.d

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
    """Construct QuadField data for d squarefree, d = 3 mod 4, 3 < d <= MAX_D:
    h from `reduced_forms`, which refuses any other d but 3, and the
    ramified primes from one factorize(d).  d = 3 is fundamental, but its
    field has w = 6 roots of unity, not the w = 2 every formula here uses."""
    d = _whole("d", d)
    if d == 3:
        raise UnsupportedDiscriminantError(
            "d=3: Q(sqrt(-3)) has w = 6 roots of unity, out of scope (need d > 3)"
        )
    h = len(reduced_forms(d))
    ramified = tuple(p for p, _ in factorize(d))
    return QuadField(d=d, ramified_primes=ramified, h=h)


def check_field(fld, d):
    """Refuse a field fld passed next to a lattice (or a report made on
    one) over Q(sqrt(-d)) with fld.d != d: its ramified primes, splitting
    and class number would silently give a wrong answer."""
    if fld.d != d:
        raise ValueError(f"field d={fld.d} is not the lattice's field d={d}")


# ---------------------------------------------------------------------------
# High-precision L-function machinery
# ---------------------------------------------------------------------------


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
    at s = 1 directly.

    L'(1)/L(1) is a central difference of log L across the (cancelling)
    Hurwitz-zeta poles at s = 1.  Lambda'(1, chi_d)/Lambda(1, chi_d) is
    for the completed L-function, in the normalization
    -log(pi)/2 + Gamma'(1) + L'(1)/L(1) that pairs with the Chowla-Selberg
    form of the s = 0 data (the two conventions shift by gamma/2 + log d
    in lockstep, leaving k0(0) well defined).
    """
    _check_prec(prec)
    with mp.workdps(2 * prec + 60):
        h = mp.mpf(10) ** (-prec // 2 - 5)
        lp = mp.log(_L_hurwitz(fld, 1 + h)) - mp.log(_L_hurwitz(fld, 1 - h))
        l_log_deriv = lp / (2 * h)
    with mp.workdps(prec + 20):
        l_log_deriv = +l_log_deriv
        lambda_log_deriv = -mp.log(mp.pi) / 2 + mp.digamma(1) + l_log_deriv
        return +(mp.log(fld.d) + 2 * lambda_log_deriv)
