"""Exact integer and rational arithmetic primitives.

Factorization, p-adic valuations, Kronecker and local Hilbert symbols, and
the FactoredLog value type: a finite rational-coefficient combination
sum_p e_p * log(p) over distinct primes, with exact (decidable) equality.
Valuations and Hilbert symbols read the numerator and denominator of an int
or a Fraction and strip p from them in integers; they build no Fractions.
A FactoredLog keeps integer numerators over one denominator, in lowest
terms, so its sums and scalings are integer work as well; Fraction
exponents are made only when read.  Its numeric value is an integer sum
of n_p * round(log(p) 2^w) over the denominator, rounded once to an
mpmath real.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import (
    dps_to_prec, from_int, from_rational, mpf_log, mpf_shift, round_nearest,
    to_fixed,
)

INFINITE_PLACE = math.inf


class UndefinedValuationError(ValueError):
    """Raised when the valuation of zero is requested."""


class PrecisionError(ValueError):
    """Raised when a numeric routine cannot meet the requested precision."""


# Most digits any precision option accepts.
MAX_PREC = 10000


def _check_prec(prec, name="prec"):
    """Reject digit counts outside [10, MAX_PREC]; name is the option that
    the message blames."""
    if prec < 10:
        raise PrecisionError(f"{name} must be >= 10, got {prec}")
    if prec > MAX_PREC:
        raise PrecisionError(f"{name}={prec} beyond supported range")


def _whole(name, value):
    """value as an int; a ValueError naming it if it is not a whole number."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name}={value!r} is not an integer")
    return n


# Miller-Rabin to the twelve prime bases up to 37 is a proof of primality
# below this bound (Sorenson and Webster, 2015).
PRIME_PROOF_BOUND = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin to the prime bases up to 37, deterministic for
    n < PRIME_PROOF_BOUND."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    # Floyd's cycle detection; n must be composite and odd.
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n):
    """Factor a positive integer into a sorted list of (prime, exponent).

    Trial division up to 10^6; a composite cofactor left after it has all
    its prime factors above 10^6, so it exceeds 10^12, and Pollard rho
    splits it.  Rho has no useful time bound on large cofactors, so a
    composite cofactor above PRIME_PROOF_BOUND raises a ValueError that
    names it; below the bound every factor is proven prime.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    n = int(n)
    factors = {}
    for p in (2, 3, 5):
        if n % p == 0:
            factors[p], n = _remove(n, p)
    # wheel mod 30: the residues coprime to 2, 3 and 5
    p = 7
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < 10**6:
        if n % p == 0:
            factors[p], n = _remove(n, p)
        p += incs[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
            elif m > PRIME_PROOF_BOUND:
                raise ValueError(
                    f"cannot factor: the cofactor {m} left after trial "
                    f"division is composite and above the cap of "
                    f"{PRIME_PROOF_BOUND}"
                )
            else:
                d = _pollard_rho(m)
                stack.extend((d, m // d))
    return sorted(factors.items())


def _remove(n, p):
    """(v, n / p^v) for the largest v with p^v dividing n, where p divides
    n != 0.  It removes the largest power of p^2 first, by the same routine,
    then at most one p: O(log v) divisions, where removing one p at a time
    takes v, each as long as n."""
    q = p * p
    if n % q:
        return 1, n // p
    v, n = _remove(n, q)
    if n % p:
        return 2 * v, n
    return 2 * v + 1, n // p


def _ratio(t):
    """Numerator and denominator (> 0) of a rational; ints and Fractions are
    read directly, anything else goes through Fraction once."""
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    return t.numerator, t.denominator


def _strip(num, den, p):
    """(v, num', den') with num/den = p^v * num'/den' and p dividing
    neither num' nor den'; num must be nonzero."""
    v = 0
    if num % p == 0:
        v, num = _remove(num, p)
    if den % p == 0:
        w, den = _remove(den, p)
        v -= w
    return v, num, den


def valuation(t, p):
    """The p-adic valuation of a nonzero rational."""
    num, den = _ratio(t)
    if num == 0:
        raise UndefinedValuationError("valuation of 0 is undefined")
    return _strip(num, den, p)[0]


def kronecker(a, n):
    """The Kronecker symbol (a|n) for integers a, n."""
    a, n = int(a), int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # pull out factors of 2 in n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n) for odd n > 0
    result = sign
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a, p):
    """A square root of a modulo an odd prime p (Tonelli-Shanks); 0 when p
    divides a, and a ValueError when a is not a square mod p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # invariants: r^2 = a t, c has order 2^m and t order dividing 2^(m-1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def hilbert_symbol(a, b, p):
    """The local quadratic Hilbert symbol (a, b)_p in {+1, -1}.

    p is a prime or INFINITE_PLACE (math.inf) for the real place.  With
    a = p^alpha * u, the integer num(u) * den(u) = u * den(u)^2 stands for
    the p-unit u: it has u's square class mod p, and mod 8 when p = 2.
    """
    an, ad = _ratio(a)
    bn, bd = _ratio(b)
    if an == 0 or bn == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if p == INFINITE_PLACE:
        return -1 if (an < 0 and bn < 0) else 1
    alpha, an, ad = _strip(an, ad, p)
    beta, bn, bd = _strip(bn, bd, p)
    u = an * ad
    v = bn * bd
    if p == 2:
        ui = u % 8
        vi = v % 8
        eps_u = (ui - 1) // 2
        eps_v = (vi - 1) // 2
        om_u = (ui * ui - 1) // 8
        om_v = (vi * vi - 1) // 8
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and p % 4 == 3:
        sign = -1
    if beta % 2:
        sign *= kronecker(u % p, p)
    if alpha % 2:
        sign *= kronecker(v % p, p)
    return sign


class FactoredLog:
    """An exact finite sum  sum_p e_p * log(p)  with rational exponents e_p
    over distinct primes p.

    The exponents are integer numerators n_p over one denominator den > 0,
    e_p = n_p / den, in lowest terms: no n_p is zero, den is prime to the
    gcd of the n_p, and den = 1 for the empty sum.  Equal values thus have
    equal numerators and denominators, so equality and hashing read
    integers.  Addition is integer work with one lcm and one gcd, and a
    rational scaling with at most two small gcds; Fraction exponents are
    made only when read.  Values are immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        exps = {}
        if terms:
            for p, e in dict(terms).items():
                e = Fraction(e)
                if e == 0:
                    continue
                p = int(p)
                if p < 2 or not is_prime(p):
                    raise ValueError(f"FactoredLog key {p} is not prime")
                exps[p] = e
        # each e is in lowest terms, so over the lcm of their denominators
        # the numerators already have no common factor with it
        den = math.lcm(*(e.denominator for e in exps.values()))
        self._num = {
            p: e.numerator * (den // e.denominator) for p, e in exps.items()
        }
        self._den = den

    @classmethod
    def _of(cls, num, den):
        """A FactoredLog on integer numerators {p: n} over den > 0 whose keys
        are already known primes (those of existing values, or of
        factorize); zero numerators are dropped and the fraction is brought
        to lowest terms, nothing else is validated."""
        num = {p: n for p, n in num.items() if n}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {p: n // g for p, n in num.items()}
        flog = object.__new__(cls)
        flog._num = num
        flog._den = den
        return flog

    def _exponents(self):
        """(p, a, b) with e_p = a/b in lowest terms, b > 0, in term order."""
        den = self._den
        for p, n in self._num.items():
            g = math.gcd(n, den)
            yield p, n // g, den // g

    @property
    def terms(self):
        return {p: Fraction(n, self._den) for p, n in self._num.items()}

    def primes(self):
        return sorted(self._num)

    def __getitem__(self, p):
        return Fraction(self._num.get(p, 0), self._den)

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, FactoredLog):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((frozenset(self._num.items()), self._den))

    def __add__(self, other):
        if not isinstance(other, FactoredLog):
            return NotImplemented
        return flog_combine(((1, self), (1, other)))

    def __sub__(self, other):
        if not isinstance(other, FactoredLog):
            return NotImplemented
        return flog_combine(((1, self), (-1, other)))

    def __neg__(self):
        return self * -1

    def __mul__(self, c):
        return self._scaled(*_ratio(c))

    def _scaled(self, a, b):
        """self * a/b for ints a and b > 0 in lowest terms.  As den is prime
        to the gcd of the n_p, only gcd(a, den) and gcd(b, all n_p) can
        cancel; each is taken only when its side is not 1."""
        num = self._num
        if not a or not num:
            return ZERO_LOG
        den = self._den
        if den != 1:
            g = math.gcd(a, den)
            if g != 1:
                a //= g
                den //= g
        if b != 1:
            g = math.gcd(b, *num.values())
            if g != 1:
                b //= g
                num = {p: n // g for p, n in num.items()}
        flog = object.__new__(FactoredLog)
        flog._num = {p: a * n for p, n in num.items()}
        flog._den = den * b
        return flog

    __rmul__ = __mul__

    def __repr__(self):
        return f"FactoredLog({self.terms!r})"

    def serialize(self):
        """Canonical text form: "p^(a/b)" terms joined by "*"; "1" if empty."""
        if not self._num:
            return "1"
        return "*".join(
            f"{p}^({a}/{b})" for p, a, b in sorted(self._exponents())
        )

    def log_string(self):
        """Human-readable form like "-2*log(7) + 1/2*log(3)"; "0" if empty."""
        if not self._num:
            return "0"
        parts = []
        for p, a, b in sorted(self._exponents()):
            if a == b:
                term = f"log({p})"
            else:
                term = f"{a}*log({p})" if b == 1 else f"{a}/{b}*log({p})"
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f"- {term[1:]}")
            else:
                parts.append(f"+ {term}")
        return " ".join(parts)

    def exp_rational(self):
        """exp(self) as an exact Fraction; requires all integer exponents."""
        if self._den != 1:
            raise ValueError("non-integer exponent; value is irrational")
        num = Fraction(1)
        for p, n in self._num.items():
            num *= Fraction(p) ** n
        return num

    def numeric(self, prec=50):
        """The value as an mpmath real, rounded to dps_to_prec(prec + 10)
        bits (prec + 10 digits); see fixed_point_value.  prec is checked
        first."""
        _check_prec(prec)
        return self.fixed_point_value(dps_to_prec(prec + 10))

    def fixed_point_value(self, bits, c=0, x=None):
        """self + c * x for a rational c and an mpmath real x (x is read only
        when c is nonzero), as an mpmath real rounded once to `bits` bits.

        The sum is integer work.  With e_p = n_p / den and c = a/b, b den 2^w
        times the value is  N = b sum_p n_p L_p + a den X,  where
        L_p = round(log(p) 2^w) is kept per (p, w) and X = floor(x 2^w).
        Error budget, in units of 2^-w: each L_p and X is within one unit,
        so N is within S = b sum_p |n_p| + |a| den units, and N / (b den 2^w)
        is within S 2^-w <= 2^-(bits + _GUARD_BITS) of the value, as
        w = bits + bitlength(S) + _GUARD_BITS.  Rounding N / (b den 2^w) to
        `bits` bits adds at most |value| 2^-bits.  Any error of x itself
        comes in times |c|.  The empty value with c = 0 is exactly 0.

        N / (b den) is rounded and then scaled by 2^-w: mpmath exponents are
        unbounded, so that is the same value, bit for bit, as rounding
        N / (b den 2^w), without the w trailing zero bits in the divisor.
        """
        a, b = _ratio(c)
        den = self._den
        weight = b * sum(map(abs, self._num.values())) + abs(a) * den
        w = bits + weight.bit_length() + _GUARD_BITS
        total = b * sum(n * _log_fixed(p, w) for p, n in self._num.items())
        if a:
            total += a * den * int(to_fixed(x._mpf_, w))
        return mp.make_mpf(mpf_shift(
            from_rational(total, b * den, bits, round_nearest), -w
        ))


# bits that a fixed-point sum keeps below its output precision, beyond the
# bit length of its error bound
_GUARD_BITS = 8


@functools.cache
def _log_fixed(p, w):
    """round(log(p) 2^w), within 1/2 + 2^-9 of it: log p < bitlength(p) is
    taken to w + 10 + bitlength(bitlength(p)) relative bits, so to within
    2^-(w + 10) absolute, and floored at w + 1 bits.  Computed once per
    (p, w)."""
    wp = w + 10 + p.bit_length().bit_length()
    log_p = mpf_log(from_int(p), wp)
    return (int(to_fixed(log_p, w + 1)) + 1) >> 1


ZERO_LOG = FactoredLog()


def flog_combine(pairs):
    """Exact linear combination sum_i c_i * F_i of FactoredLog values, in
    integers: each term goes over the lcm of the denominators of c_i * F_i,
    numerators are summed into one prime -> numerator dict, and one gcd
    brings the result to lowest terms; no nonzero term gives ZERO_LOG."""
    scaled = []
    for c, flog in pairs:
        if flog._num:
            a, b = _ratio(c)
            scaled.append((a, b * flog._den, flog._num))
    if not scaled:
        return ZERO_LOG
    den = math.lcm(*(b for _, b, _ in scaled))
    num = {}
    for a, b, terms in scaled:
        k = a * (den // b)
        for p, n in terms.items():
            num[p] = num.get(p, 0) + k * n
    return FactoredLog._of(num, den)
