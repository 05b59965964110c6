"""Numerical verification channel via singular moduli.

Enumerates CM points through reduced binary quadratic forms, evaluates the
j-function as an eta quotient, forms the product of differences of
singular moduli over two class groups, recognizes the integer, factors it,
and checks the prime-support prediction.

j(tau) = (1 + 256 x)^3 / x with x = Delta(2 tau) / Delta(tau)
= q (E(q^2) / E(q))^24, where q = e^{2 pi i tau} and E(q) = prod (1 - q^n)
is summed as Euler's pentagonal series (Cohen, GTM 138, section 7.6).
At a reduced form's CM point |q| <= e^{-pi sqrt 3} < 0.0044, so the series
is short and E(q) is within 1 % of 1.  That makes fixed point relative
precision: q, E(q), E(q^2), their ratio to the 24th power, x and j are
complex numbers held as pairs of Python integers scaled by 2^W, and each
product is one integer product pair and a shift, written out in place.
|q| and x carry a separate power of two, so they keep W relative bits
however small they are.  q comes from mpmath's fixed-point kernels for
pi, ln 2, exp and cos/sin, and j becomes an mpmath number, exactly (see
`j_value` for W and the error budget).  At the forms with |b| = a the
rotation is exactly -1 and q is real; there every imaginary part is
exactly 0, so `j_value` runs the same steps on single integers, with the
same bits.  The forms (a, b, c) and (a, -b, c) have conjugate j values,
so each class evaluates j once per such pair.

`gz_product` fixes its digits a priori from the size of each form's j,
|j| <= e^{pi sqrt(d) / a} + 2079, summed over the pairs of forms (Enge,
Math. Comp. 78 (2009) sizes class polynomials from the same per-form
terms).  It reads each j back exactly as integers at one scale 2^W, and
the product of differences, one inline loop of truncating products, its
rounding to the nearest integer and the rounding margin are integer work
as well; only the margin becomes a float, for the report.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, to_float
from mpmath.libmp.libelefun import (
    cos_sin_fixed,
    exp_basecase,
    ln2_fixed,
    pi_fixed,
)

from .arith import MAX_PREC, PrecisionError, _whole, factorize, kronecker
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


# Bits carried beyond the digits j_value works at; see j_value.
_GUARD_BITS = 20


def _euler(q, w):
    """E(q) = prod_{n >= 1} (1 - q^n) by Euler's pentagonal number theorem,
    sum_k (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}), for |q| < 0.0045.

    q and the result are pairs (re, im) of integers scaled by 2^w.  Each
    power comes from the previous one by one truncating complex product,
    written out in place, and the sum stops once a term is within one unit
    2^-w in both parts.
    """
    qr, qi = q
    tr, ti = 1 << w, 0
    sign = -1
    kr, ki = qr, qi  # q^k
    lr, li = qr, qi  # q^{k(3k-1)/2}
    while True:
        hr = (lr * kr - li * ki) >> w  # q^{k(3k+1)/2}
        hi = (lr * ki + li * kr) >> w
        tr += sign * (lr + hr)
        ti += sign * (li + hi)
        if -2 < hr < 2 and -2 < hi < 2:
            return tr, ti
        nr = (kr * qr - ki * qi) >> w  # q^{k+1}
        ni = (kr * qi + ki * qr) >> w
        # k(3k+1)/2 + k + (k+1) = (k+1)(3k+2)/2
        lr, li = (hr * kr - hi * ki) >> w, (hr * ki + hi * kr) >> w
        lr, li = (lr * nr - li * ni) >> w, (lr * ni + li * nr) >> w
        kr, ki = nr, ni
        sign = -sign


def _euler_real(q, w):
    """`_euler` at real q, on the real parts alone: with q's imaginary part
    0, every imaginary part of `_euler` is exactly 0, so this returns the
    real part of `_euler((q, 0), w)`, bit for bit."""
    t = 1 << w
    sign = -1
    qk = low = q
    while True:
        high = (low * qk) >> w
        t += sign * (low + high)
        if -2 < high < 2:
            return t
        qk_next = (qk * q) >> w
        low = (((high * qk) >> w) * qk_next) >> w
        qk = qk_next
        sign = -sign


def j_value(form, d, prec=64):
    """j((-b + sqrt(-d)) / (2a)) as the eta quotient (1 + 256 x)^3 / x,
    x = q R, R = (E(q^2) / E(q))^24, with E summed by `_euler`.

    This is safe for every form with 0 < a and |b| <= a <= c, so for
    every reduced form and its mirror (a, -b, c); other forms raise a
    ValueError.  For these d = 4ac - b^2 >= 3a^2, so
    |q| = e^{-pi sqrt(d) / a} <= e^{-pi sqrt 3} < 0.0044.  Then E(q) lies
    within 1 % of 1, so fixed point is relative precision for E and R, and
    no step cancels.  Since |j(tau)| is about e^{pi sqrt(d)/a}, that is
    size_digits digits, every step is an integer operation at scale 2^W,
    W = dps_to_prec(prec + 15 + size_digits) + _GUARD_BITS.  Only the
    result becomes an mpmath number, exactly, so mp.prec plays no part.

    With t = pi sqrt(d) / a and (k, r) = divmod(t, ln 2), q is 2^-k M,
    M = e^{-r} e^{-i pi b / a}, 1/2 < |M| <= 1.  So x = 2^-k M R keeps W
    relative bits however small q is.  Error budget in units 2^-W per part:
    - t, r and the angle pi b / a come from pi_fixed, ln2_fixed and
      isqrt(d 2^2V) at V = W + bitlength(d) + 4 bits.  pi and sqrt(d) are
      off by one unit of 2^-V each and ln 2 by one unit times k < 5 sqrt(d),
      so r is within (6 sqrt(d) + 6) 2^-V < 2^-W.  exp_basecase and
      cos_sin_fixed add a few units of 2^-V, and M's two truncating
      products one unit each: M is within 3 units.
    - q = 2^-k M and q^2 are truncated once each: one unit in each E.
    - `_euler` makes 4 truncating products per index k, one unit each,
      and multiplies every earlier error only by factors of modulus
      < 0.0045.  So each k's two terms are off by at most 4 units.  The
      sum stops by the first k with |q|^{k(3k+1)/2} < 2^-(W+1), and
      |q| < 2^-7.85, so it takes K < sqrt((W + 1) / 11.77) + 1 values of
      k: K = 10 at W = 1000, and K = 64 at W = 47 700, which is above
      all that `gz_product` asks for (10 000 digits, and size_digits
      <= 4315 at d <= 10^7).  Each E is within 4K + 1 units.
    - E(q) and E(q^2) lie within 0.0045 of 1, so E(q^2) / E(q), with one
      unit for the division, is within 2.02 (4K + 1) + 1 < 9K + 4 units.
    - That ratio has modulus below 1.0046, so the 24th power multiplies
      its error by at most 24 * 1.0046^23 < 27, and its five truncations
      add at most 30 units: R is within 243K + 138 < 2^8 (K + 1) units.
    - X = M R, 0.44 < |X| < 1.12, takes |M| <= 1 times R's error, |R|
      times M's 3 units and one truncation: 2^8 (K + 2) units.  So
      x = 2^-k X is good to 2^(10 - W) (K + 2) relative, and
      1 / |x| < 2^(k + 1.2).
    - u = 1 + 256 x takes 256 * 2^-k <= 2 times X's error (k >= 7) and
      one truncation: 2^9 (K + 2) + 1 units.  As |u| < 2.26, u^3 is
      within 2^13 (K + 2).
    - j = u^3 conj(X) 2^k / |X|^2 takes one floor division per part.  As
      |j| < 11.6 / |x|, j is within 2^13 (K + 2) / |x|
      + |j| 2^(10 - W) (K + 2) + 1 < 2^(k + 16) (K + 2) units.
    Since 2^k <= 10^size_digits and 2^W >= 2^20 10^(prec + 15 + size_digits),
    j is accurate to (K + 2) / 16 * 10^-(prec + 15) absolute: below
    5 * 10^-(prec + 15) up to W = 47 700, and below 10^-(prec + 14) for
    every W under 290 000 bits (K < 158), so the 20 guard bits cover
    every precision `gz_product` or `bcm gz --prec` reaches.  The series
    shares nothing with the package's q-expansion code.

    When |b| = a the rotation e^{-i pi b / a} is exactly -1, so it skips
    cos_sin_fixed and q is real.  Then every imaginary part of the steps
    above is exactly 0, and the real path runs the same truncations on the
    real parts alone, E by `_euler_real`.  Its two divisions drop the
    common factor of the complex ones, as
    floor(a b 2^W / b^2) = floor(a 2^W / b), so j is the complex steps'
    value bit for bit, and the budget above holds as it stands.

    For the form (a, -b, c), tau is -conj(tau) of (a, b, c), and j has
    integer Fourier coefficients, so the value is the conjugate.
    """
    prec = _whole("prec", prec)
    if prec < 30:
        raise ValueError("j_value requires prec >= 30")
    a, b, c = form
    if b * b - 4 * a * c != -d:
        raise ValueError("form discriminant does not match -d")
    if not (0 < a and abs(b) <= a <= c):
        raise ValueError(
            f"form {form} is outside j_value's error budget: "
            "it needs 0 < a and |b| <= a <= c"
        )
    size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
    w = dps_to_prec(prec + 15 + size_digits) + _GUARD_BITS
    v = w + d.bit_length() + 4
    pi = int(pi_fixed(v))
    k, r = divmod((pi * math.isqrt(d << 2 * v) >> v) // a, int(ln2_fixed(v)))
    m = int(exp_basecase(-r, v))
    shift = 2 * v - w
    if abs(b) == a:
        # e^{-i pi b / a} = -1, so q and every step below are real
        qm = -(m << v) >> shift
        q = qm >> k
        e = (_euler_real((q * q) >> w, w) << w) // _euler_real(q, w)
        e = (e * e) >> w
        e = (e * e) >> w
        e = (e * e) >> w
        x = (qm * ((((e * e) >> w) * e) >> w)) >> w
        u = (1 << w) + ((x << 8) >> k)
        u = (((u * u) >> w) * u) >> w
        return mp.make_mpc((from_man_exp((u << (k + w)) // x, -w), fzero))
    cos, sin = cos_sin_fixed(pi * b // a, v, pi >> 1)
    qmr, qmi = (m * int(cos)) >> shift, -(m * int(sin)) >> shift
    qr, qi = qmr >> k, qmi >> k
    ar, ai = _euler(((qr * qr - qi * qi) >> w, (qr * qi + qi * qr) >> w), w)
    br, bi = _euler((qr, qi), w)
    # E(q^2) / E(q) = E(q^2) conj(E(q)) / |E(q)|^2, then its 24th power
    # as r^16 r^8 from four squarings and one product
    den = br * br + bi * bi
    rr = ((ar * br + ai * bi) << w) // den
    ri = ((ai * br - ar * bi) << w) // den
    rr, ri = (rr * rr - ri * ri) >> w, (rr * ri + ri * rr) >> w
    rr, ri = (rr * rr - ri * ri) >> w, (rr * ri + ri * rr) >> w
    rr, ri = (rr * rr - ri * ri) >> w, (rr * ri + ri * rr) >> w
    sr, si = (rr * rr - ri * ri) >> w, (rr * ri + ri * rr) >> w
    rr, ri = (sr * rr - si * ri) >> w, (sr * ri + si * rr) >> w
    xr, xi = (qmr * rr - qmi * ri) >> w, (qmr * ri + qmi * rr) >> w
    ur, ui = (1 << w) + ((xr << 8) >> k), (xi << 8) >> k
    sr, si = (ur * ur - ui * ui) >> w, (ur * ui + ui * ur) >> w
    ur, ui = (sr * ur - si * ui) >> w, (sr * ui + si * ur) >> w
    den = xr * xr + xi * xi
    jr = ((ur * xr + ui * xi) << (k + w)) // den
    ji = ((ui * xr - ur * xi) << (k + w)) // den
    return mp.make_mpc((from_man_exp(jr, -w), from_man_exp(ji, -w)))


def _class_j_values(forms, d, digits):
    """j_value at each form, in order, as (re, re_exp, im, im_exp): each
    part exactly, as a signed mantissa and its exponent, with one
    evaluation per pair (a, +-b, c): the form with b < 0 takes its
    mirror's value with the imaginary mantissa negated."""
    values = {}
    for a, b, c in sorted(forms, key=lambda f: f[1] < 0):
        mirror = values.get((a, -b, c))
        if mirror is None:
            (r_sign, re, re_exp, _), (i_sign, im, im_exp, _) = j_value(
                (a, b, c), d, digits
            )._mpc_
            re, im = -re if r_sign else re, -im if i_sign else im
            values[(a, b, c)] = re, re_exp, im, im_exp
        else:
            re, re_exp, im, im_exp = mirror
            values[(a, b, c)] = re, re_exp, -im, im_exp
    return [values[f] for f in forms]


_MAX_DOUBLINGS = 4


def gz_product(d1, d2, prec=None):
    """prod over CM point pairs of (j(tau_1) - j(tau_2)), recognized as an
    exact integer and factored.

    d1, d2 must be coprime with -d1, -d2 odd fundamental discriminants.
    Precision is chosen from the a-priori size bound log|product| <=
    size_bound, digits = int(size_bound / ln 10) + 40, and doubled on
    rounding failure; a positive prec raises the starting digits to at
    least prec.  Digits above MAX_PREC are refused before any j is
    evaluated, whether prec asks for them or the size bound does, and
    the doublings stop there.  d1, d2 and prec must be whole numbers.

    The bound is summed over the pairs of forms.  j(tau) - 1/q has the
    coefficients c(n) >= 0 of j, and Im tau >= sqrt(3) / 2 at a reduced
    form, so |j(tau) - 1/q| <= j(i sqrt(3) / 2) - e^{pi sqrt 3} < 2079.
    With t = pi sqrt(d) / a, |1/q| = e^t, so |j| <= e^t + 2079, and the
    factor of forms f1, f2 has |j1 - j2| <= 4 max(e^t1, e^t2, 2079):

        size_bound = sum over (f1, f2) of max(t1, t2, ln 2079) + ln 4.

    At each rung j_value gives each j at digits, whatever mp.prec is, and
    every part of every j is read back exactly and aligned, by left shifts
    only, to one scale 2^W, W = max(dps_to_prec(digits + 20), -exponent
    of every part).  The product is one inline loop of truncating complex
    products at that scale, j2 within j1 in forms order, which fixes its
    bits; nearest = round(P_re) and margin = max(|P_re - nearest|, |P_im|)
    are integers, and the rung succeeds when margin < 10^-20.  Each
    truncating product adds at most one unit 2^-W per part, which the
    later factors multiply by their moduli.  Each factor's bound is at
    least 4 * 2079 > 1, so the moduli multiply to at most
    e^size_bound < 10^(digits - 39), and truncation costs at most
    h1 h2 2^(1-W) 10^(digits - 39) < 10^-55:
    each factor adds at least ln(4 * 2079) > 9.02 to size_bound, so
    h1 h2 < 2550 below MAX_PREC digits, and 2^-W < 10^-(digits + 20).
    """
    d1, d2 = _whole("d1", d1), _whole("d2", d2)
    if prec is not None:
        prec = _whole("prec", prec)
        if prec <= 0:
            raise ValueError(f"prec={prec} must be a positive number of digits")
        if prec > MAX_PREC:
            raise PrecisionError(
                f"prec={prec} beyond supported range (at most {MAX_PREC} digits)"
            )
    if math.gcd(d1, d2) != 1:
        raise ValueError(f"d1={d1}, d2={d2} are not coprime")
    forms1 = reduced_forms(d1)
    forms2 = reduced_forms(d2)
    h1, h2 = len(forms1), len(forms2)
    floor = math.log(2079)
    t1 = sorted(max(math.pi * math.sqrt(d1) / a, floor) for a, _, _ in forms1)
    t2 = sorted(max(math.pi * math.sqrt(d2) / a, floor) for a, _, _ in forms2)
    # the sum of max(x, y) over t1 x t2: each y is the max against the
    # x <= y, each x against the y < x
    size_bound = (
        sum(y * bisect_right(t1, y) for y in t2)
        + sum(x * bisect_left(t2, x) for x in t1)
        + h1 * h2 * math.log(4)
    )
    digits = int(size_bound / math.log(10)) + 40
    if prec is not None:
        digits = max(digits, prec)
    if digits > MAX_PREC:
        raise PrecisionError(
            f"d1={d1}, d2={d2} need {digits} digits, beyond supported range "
            f"(at most {MAX_PREC} digits)"
        )
    ladder = [
        digits << i for i in range(_MAX_DOUBLINGS + 1) if digits << i <= MAX_PREC
    ]
    for attempt, digits in enumerate(ladder):
        j1 = _class_j_values(forms1, d1, digits)
        j2 = _class_j_values(forms2, d2, digits)
        w = dps_to_prec(digits + 20)
        for _, re_exp, _, im_exp in j1 + j2:
            w = max(w, -re_exp, -im_exp)
        j1 = [(re << (re_exp + w), im << (im_exp + w)) for re, re_exp, im, im_exp in j1]
        j2 = [(re << (re_exp + w), im << (im_exp + w)) for re, re_exp, im, im_exp in j2]
        pr, pi = 1 << w, 0
        for xr, xi in j1:
            for yr, yi in j2:
                zr, zi = xr - yr, xi - yi
                pr, pi = (pr * zr - pi * zi) >> w, (pr * zi + pi * zr) >> w
        nearest = (pr + (1 << (w - 1))) >> w
        margin = max(abs(pr - (nearest << w)), abs(pi))
        if margin * 10**20 < 1 << w:
            return GZResult(
                d1=d1,
                d2=d2,
                product=nearest,
                factorization=tuple(factorize(abs(nearest))),
                precision_used=digits,
                margin=to_float(from_man_exp(margin, -w)),
                doublings=attempt,
            )
    raise RoundingFailure(
        f"gz_product({d1},{d2}) failed to round at {digits} digits"
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
