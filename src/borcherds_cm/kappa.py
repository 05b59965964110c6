"""The closed-form constants kappa(t, mu, a) for an ideal lattice in an
imaginary quadratic field.

The lattice must be an IdealLattice (a, -Nx/Na) and mu one of its
DualCosets; anything else raises UnsupportedLatticeError, and a field
whose d is not the lattice's raises ValueError.  For t > 0 these
are exact rational combinations of logarithms of primes; at t = 0 the zero
coset contributes the symbolic constant k0(0), kept as a rational multiple
so that rationality of downstream sums stays decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import FactoredLog, ZERO_LOG, _ratio, factorize, valuation
from .lattice import IdealLattice
from .quadfield import INERT, check_field


class KappaValue:
    """An exact value  log_part + kzero_multiple * k0(0).

    Values are immutable.  Equality, hashing and repr are those of the
    pair (log_part, kzero_multiple)."""

    __slots__ = ("log_part", "kzero_multiple")

    def __init__(self, log_part, kzero_multiple=Fraction(0)):
        self.log_part = log_part
        self.kzero_multiple = kzero_multiple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.log_part == other.log_part
            and self.kzero_multiple == other.kzero_multiple
        )

    def __hash__(self):
        return hash((self.log_part, self.kzero_multiple))

    def __repr__(self):
        return (
            f"KappaValue(log_part={self.log_part!r}, "
            f"kzero_multiple={self.kzero_multiple!r})"
        )

    def __add__(self, other):
        return KappaValue(
            self.log_part + other.log_part,
            self.kzero_multiple + other.kzero_multiple,
        )

    def __mul__(self, c):
        return self._scaled(*_ratio(c))

    __rmul__ = __mul__

    def _scaled(self, a, b):
        """self * a/b for ints a and b > 0 in lowest terms."""
        k = self.kzero_multiple
        if k:
            k = Fraction(k.numerator * a, k.denominator * b)
        return KappaValue(self.log_part._scaled(a, b), k)

    def __neg__(self):
        return self * -1

    def is_zero(self):
        return self.log_part.is_zero() and self.kzero_multiple == 0

    def render(self):
        parts = []
        if self.log_part:
            parts.append(self.log_part.log_string())
        if self.kzero_multiple:
            c = self.kzero_multiple
            term = "k0(0)" if c == 1 else f"{c}*k0(0)"
            parts.append(term if not parts else f"+ {term}")
        return " ".join(parts) if parts else "0"


KAPPA_ZERO = KappaValue(ZERO_LOG, Fraction(0))


class UnsupportedLatticeError(ValueError):
    """Raised when the lattice is not an integral O_k-ideal with Q = -Nx/Na."""


def _check_lattice(fld, lat):
    """Refuse lat unless it is an IdealLattice over fld."""
    if not isinstance(lat, IdealLattice):
        raise UnsupportedLatticeError(
            "kappa formulas require an integral-ideal lattice"
        )
    # compared here, so that the kappa_positive of a matching field makes
    # no further call
    if lat.field.d != fld.d:
        check_field(fld, lat.field.d)


def kappa_positive(fld, lat, mu, t):
    """kappa(t, mu, a) for t > 0, as an exact FactoredLog-valued KappaValue.

    kappa = -(1/h_k) * prod_q char(Q(mu_q) + Z_q)(t) * [
        rho(dt) * sum_{q | d, mu_q = 0} eta_q (ord_q(t)+1) log q
        + eta_0 * sum_{p inert} (ord_p(t)+1) rho(dt/p) log p ],

    where, with chi_q = chi_q(-t*Na) over the ramified q with mu_q = 0,
    eta_0 is the product of the (1 + chi_q) (1 when there are none) and
    eta_q has the factor at q replaced by (1 - chi_q).

    The twist by Na (trivial for the unit ideal, and for every ideal in a
    genus whose norms are local norms at each ramified prime) carries the
    unit scaling of the local form -Nx/Na; chi_q(d) = 1 absorbs any
    ramified part of Na.

    The inert sum runs only over primes dividing the numerator of dt; all
    others contribute zero through rho(dt/p).
    """
    _check_lattice(fld, lat)
    t = Fraction(t)
    if t <= 0:
        raise ValueError("kappa_positive requires t > 0")
    d = fld.d
    # char conditions at ramified primes (Q(mu_q) = 0 mod Z_q when mu_q = 0)
    zero_at = {q: mu.local_zero(q) for q in fld.ramified_primes}
    for q, zero in zero_at.items():
        diff = t if zero else t - mu.q_value
        if diff and valuation(diff, q) < 0:
            return KAPPA_ZERO
    dt = d * t
    if dt.denominator != 1:
        # a negative valuation survives at an unramified prime: both the
        # q-sum (through rho(dt)) and every inert term vanish
        return KAPPA_ZERO
    dt_factors = factorize(dt.numerator)
    rho_dt = 1
    for p, a in dt_factors:
        rho_dt *= fld.rho_local(p, a)
        if rho_dt == 0:
            break
    tn = -t * lat.norm
    chi = {q: fld.chi(tn, q) for q, zero in zero_at.items() if zero}
    terms = {}
    if rho_dt:
        for q, c in chi.items():
            e = (1 - c) * math.prod(1 + c2 for q2, c2 in chi.items() if q2 != q)
            if e:
                terms[q] = e * (valuation(t, q) + 1) * rho_dt
    e0 = math.prod(1 + c for c in chi.values())
    if e0:
        for p, a in dt_factors:
            if d % p == 0 or fld.splitting(p) != INERT:
                continue
            # rho(dt/p): the factor at p becomes rho_local(p, a-1); others as in dt
            rho_rest = 1
            for p2, a2 in dt_factors:
                rho_rest *= fld.rho_local(p2, a2 - 1 if p2 == p else a2)
                if rho_rest == 0:
                    break
            if rho_rest:
                terms[p] = terms.get(p, 0) + e0 * (a + 1) * rho_rest
    if not terms:
        return KAPPA_ZERO
    # the keys are primes of factorize(dt) or ramified primes
    num = {p: -c for p, c in terms.items()}
    return KappaValue(FactoredLog._of(num, fld.h))


def kappa_at(fld, lat, mu, m):
    """kappa(m, mu, a) for any rational m: kappa_positive for m > 0, the
    symbolic k0(0) multiple [mu = 0] at m = 0, and zero for m < 0."""
    m = Fraction(m)
    if m > 0:
        return kappa_positive(fld, lat, mu, m)
    _check_lattice(fld, lat)
    if m == 0 and mu.is_zero:
        return KappaValue(ZERO_LOG, Fraction(1))
    return KAPPA_ZERO
