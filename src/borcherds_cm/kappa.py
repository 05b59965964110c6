"""The closed-form constants kappa(t, mu, a) for an ideal lattice in an
imaginary quadratic field.

The lattice must be an IdealLattice (a, -Nx/Na) and mu one of its cosets,
which kappa reads only through Q(mu) mod 1.  That precondition is
lattice.check_coset, shared with the locwhit oracle: another lattice
raises UnsupportedLatticeError, and a field whose d is not the lattice's,
or a coset the lattice does not list, raises ValueError.  At t = 0 the zero
coset (Q(mu) = 0 mod 1) contributes the symbolic constant k0(0), kept as
a rational multiple so that rationality of downstream sums stays
decidable.

For t > 0, kappa is nonzero only when t is in Q(mu) + Z and exactly one
prime l obstructs t (a ramified q with mu_q = 0 and chi_q(-t*Na) = -1, or an
inert p with ord_p(dt) odd), and it then lives on l alone, as in
Gross-Zagier's singular moduli:

    kappa = -(2^r/h_k) * (ord_l(t)+1) * prod_{split p | dt} (ord_p(dt)+1) * log l,

with r the number of ramified q with mu_q = 0 (see kappa_positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredLog, ZERO_LOG, _ratio, factorize, valuation
from .lattice import check_coset
from .quadfield import INERT, SPLIT


@dataclass(slots=True, unsafe_hash=True)
class KappaValue:
    """An exact value  log_part + kzero_multiple * k0(0).

    Values are immutable.  Equality, hashing and repr are those of the
    pair (log_part, kzero_multiple)."""

    log_part: FactoredLog
    kzero_multiple: Fraction = Fraction(0)

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


def kappa_positive(fld, lat, mu, t):
    """kappa(t, mu, a) for t > 0, as an exact FactoredLog-valued KappaValue.

    The sum over local Whittaker terms reads

    kappa = -(1/h_k) * prod_q char(Q(mu_q) + Z_q)(t) * [
        rho(dt) * sum_{q in Z} eta_q (ord_q(t)+1) log q
        + eta_0 * sum_{p inert} (ord_p(t)+1) rho(dt/p) log p ],

    where, with chi_q = chi_q(-t*Na) over the set Z of ramified q with
    mu_q = 0 and r = |Z|, eta_0 is the product of the (1 + chi_q) and eta_q
    has the factor at q replaced by (1 - chi_q).  Call the q in Z with
    chi_q = -1 and the inert p with ord_p(dt) odd the obstructions to t.
    Then eta_0 is 2^r when no chi_q is -1 and 0 otherwise; eta_q is 2^r
    exactly when q is the only q with chi_q = -1, and 0 otherwise; rho(dt)
    is nonzero exactly when no inert p has ord_p(dt) odd, and rho(dt/p)
    for an inert p exactly when p is the only such prime.  In each of
    those cases rho is the product of the ord_p(dt) + 1 over the split
    p | dt.  So at most one term survives: when exactly one obstruction l
    exists,

    kappa = -(2^r/h_k) * (ord_l(t)+1) * prod_{split p | dt} (ord_p(dt)+1) * log l,

    and kappa = 0 otherwise.

    The support is one congruence.  Q mod 1 is nondegenerate on the cyclic
    L^v/L of squarefree order d (Nikulin, Math. USSR Izv. 14 (1980)), so
    mu_q = 0 exactly when q does not divide den Q(mu), and mu = 0 exactly
    when Q(mu) is in Z.  The char conditions at the ramified q and the
    integral dt that an ideal of norm dt or dt/p needs together say that t
    is in Q(mu) + Z, and the set Z above is the q prime to den Q(mu).

    The twist by Na (trivial for the unit ideal, and for every ideal in a
    genus whose norms are local norms at each ramified prime) carries the
    unit scaling of the local form -Nx/Na; chi_q(d) = 1 absorbs any
    ramified part of Na.
    """
    check_coset(fld, lat, mu)
    t = Fraction(t)
    if t <= 0:
        raise ValueError("kappa_positive requires t > 0")
    q_mu = mu.q_mod_one
    if (t - q_mu).denominator != 1:
        return KAPPA_ZERO
    zeros = [q for q in fld.ramified_primes if q_mu.denominator % q]
    tn = -t * lat.norm
    obstructions = [q for q in zeros if fld.chi(tn, q) == -1]
    n = 1 << len(zeros)
    # dt is an integer, as t - Q(mu) and d Q(mu) are
    for p, a in factorize(fld.d * t.numerator // t.denominator):
        s = fld.splitting(p)
        if s == SPLIT:
            n *= a + 1
        elif s == INERT and a % 2:
            obstructions.append(p)
    if len(obstructions) != 1:
        return KAPPA_ZERO
    (ell,) = obstructions
    # ell is a prime of factorize(dt) or a ramified prime
    num = {ell: -n * (valuation(t, ell) + 1)}
    return KappaValue(FactoredLog._of(num, fld.h))


def kappa_at(fld, lat, mu, m):
    """kappa(m, mu, a) for any rational m: kappa_positive for m > 0, the
    symbolic k0(0) multiple [mu = 0] at m = 0, read as [Q(mu) = 0 mod 1],
    and zero for m < 0."""
    m = Fraction(m)
    if m > 0:
        return kappa_positive(fld, lat, mu, m)
    check_coset(fld, lat, mu)
    if m == 0 and mu.q_mod_one == 0:
        return KappaValue(ZERO_LOG, Fraction(1))
    return KAPPA_ZERO
