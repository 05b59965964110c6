"""Numerical verification channel via singular moduli.

Enumerates CM points through reduced binary quadratic forms, evaluates the
j-function as an eta quotient, forms the product of differences of
singular moduli over two class groups, recognizes the integer, factors it,
and checks the prime-support prediction.

j(tau) = (1 + 256 x)^3 / x with x = Delta(2 tau) / Delta(tau)
= q (E(q^2) / E(q))^24, where q = e^{2 pi i tau} and E(q) = prod (1 - q^n)
is summed as Euler's pentagonal series (Cohen, GTM 138, section 7.6).
At a reduced form's CM point |q| <= e^{-pi sqrt 3} < 0.0044, so the series
is short and E(q) is within 1 % of 1.  The forms (a, b, c) and (a, -b, c)
have conjugate j values, so each class evaluates j once per such pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .arith import factorize, kronecker
from .quadfield import reduced_forms


class RoundingFailure(ArithmeticError):
    """The product did not round to an integer within the margin, even
    after precision doubling up to the cap."""


@dataclass(frozen=True)
class GZResult:
    d1: int
    d2: int
    product: int
    factorization: tuple  # ((p, e), ...); sign carried by product
    precision_used: int
    margin: float
    doublings: int = 0

    def factored_string(self):
        sign = "-" if self.product < 0 else ""
        if not self.factorization:
            return f"{self.product}"
        body = " * ".join(
            f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factorization
        )
        return sign + body


def _euler(q):
    """E(q) = prod_{n >= 1} (1 - q^n) by Euler's pentagonal number theorem,
    sum_k (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}), for |q| small.

    Each power comes from the previous one by multiplication, and the sum
    stops once a term falls below 2^-(mp.prec + 8).
    """
    total = mp.mpf(1)
    sign = -1
    qk = q  # q^k
    low = q  # q^{k(3k-1)/2}
    while True:
        high = low * qk  # q^{k(3k+1)/2}
        total += sign * (low + high)
        if mp.mag(high) < -(mp.prec + 8):
            return total
        qk_next = qk * q
        low = high * qk * qk_next  # k(3k+1)/2 + k + (k+1) = (k+1)(3k+2)/2
        qk = qk_next
        sign = -sign


def j_value(form, d, prec=64):
    """j((-b + sqrt(-d)) / (2a)) as the eta quotient (1 + 256 x)^3 / x,
    x = q (E(q^2) / E(q))^24, with E summed by `_euler`.

    This is safe for every reduced form: a <= sqrt(d/3), so
    |q| = e^{-pi sqrt(d) / a} <= e^{-pi sqrt 3} < 0.0044.  Then E(q) lies
    within 1 % of 1 and no step cancels.  The series shares nothing with
    the package's q-expansion code.  Since |j(tau)| is about
    e^{pi sqrt(d)/a}, the work precision carries that many extra digits on
    top of prec + 15, which keeps the result accurate to roughly 10^{-prec}
    absolute.  For the form (a, -b, c), tau is -conj(tau) of (a, b, c),
    and j has integer Fourier coefficients, so the value is the conjugate.
    """
    if prec < 30:
        raise ValueError("j_value requires prec >= 30")
    a, b, c = form
    if b * b - 4 * a * c != -d:
        raise ValueError("form discriminant does not match -d")
    size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
    with mp.workdps(prec + 15 + size_digits):
        q = mp.expjpi((-b + mp.sqrt(-d)) / a)
        x = q * (_euler(q * q) / _euler(q)) ** 24
        return (1 + 256 * x) ** 3 / x


def _class_j_values(forms, d, digits):
    """j_value at each form, in order, with one evaluation per pair
    (a, +-b, c): the form with b < 0 takes the conjugate of its mirror."""
    values = {}
    for a, b, c in sorted(forms, key=lambda f: f[1] < 0):
        mirror = values.get((a, -b, c))
        if mirror is None:
            values[(a, b, c)] = j_value((a, b, c), d, digits)
        else:
            values[(a, b, c)] = mp.conj(mirror)
    return [values[f] for f in forms]


_MAX_DOUBLINGS = 4


def gz_product(d1, d2, prec=None):
    """prod over CM point pairs of (j(tau_1) - j(tau_2)), recognized as an
    exact integer and factored.

    d1, d2 must be coprime with -d1, -d2 odd fundamental discriminants.
    Precision is chosen from the a-priori size bound log|product| <=
    h1 h2 (pi sqrt(d_max) + 30) and doubled on rounding failure; a
    positive prec raises the starting digits to at least prec.
    """
    if prec is not None and prec <= 0:
        raise ValueError(f"prec={prec} must be a positive number of digits")
    d1, d2 = int(d1), int(d2)
    if math.gcd(d1, d2) != 1:
        raise ValueError(f"d1={d1}, d2={d2} are not coprime")
    forms1 = reduced_forms(d1)
    forms2 = reduced_forms(d2)
    h1, h2 = len(forms1), len(forms2)
    size_bound = h1 * h2 * (math.pi * math.sqrt(max(d1, d2)) + 30)
    digits = int(size_bound / math.log(10)) + 40
    if prec is not None:
        digits = max(digits, int(prec))
    for attempt in range(_MAX_DOUBLINGS + 1):
        with mp.workdps(digits + 20):
            j1 = _class_j_values(forms1, d1, digits)
            j2 = _class_j_values(forms2, d2, digits)
            product = mp.mpc(1)
            for x in j1:
                for y in j2:
                    product *= x - y
            nearest = int(mp.nint(product.real))
            margin = max(abs(product.real - nearest), abs(product.imag))
            threshold = mp.mpf(10) ** -20
            if margin < threshold:
                return GZResult(
                    d1=d1,
                    d2=d2,
                    product=nearest,
                    factorization=tuple(factorize(abs(nearest))),
                    precision_used=digits,
                    margin=float(margin),
                    doublings=attempt,
                )
        digits *= 2
    raise RoundingFailure(
        f"gz_product({d1},{d2}) failed to round at {digits // 2} digits"
    )


def gz_support_check(result):
    """Every prime factor must be non-split in both Q(sqrt(-d1)) and
    Q(sqrt(-d2)), and bounded by d1*d2/4.  Returns (ok, violations)."""
    bound = result.d1 * result.d2 / 4
    violations = []
    for p, _ in result.factorization:
        if kronecker(-result.d1, p) == 1 or kronecker(-result.d2, p) == 1:
            violations.append((p, "split"))
        elif p > bound:
            violations.append((p, "too-large"))
    return not violations, violations
