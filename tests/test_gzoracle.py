import hashlib
import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import fzero, to_fixed

from borcherds_cm import gzoracle
from borcherds_cm.arith import MAX_PREC, factorize, kronecker
from borcherds_cm.forms import classical_qexp
from borcherds_cm.gzoracle import (
    GZResult,
    RoundingFailure,
    gz_product,
    gz_support_check,
    j_value,
)
from borcherds_cm.quadfield import (
    MAX_D,
    PrecisionError,
    UnsupportedDiscriminantError,
    reduced_forms,
)


def test_j_value_d3_is_zero():
    # j(rho) = 0: these are the bits the series steps give at each of
    # these precs, and j_value must return them without the series
    for form in [(1, 1, 1), (1, -1, 1)]:
        for prec in [*range(30, 401), 1000, 2500, 5000, 10000]:
            assert j_value(form, 3, prec)._mpc_ == (fzero, fzero), (form, prec)


def test_j_value_d7():
    with mp.workdps(60):
        v = j_value((1, 1, 2), 7, 40)
        assert abs(v - (-3375)) < mp.mpf("1e-25")


def test_j_value_d43():
    with mp.workdps(80):
        v = j_value((1, 1, 11), 43, 60)
        assert abs(v - (-884736000)) < mp.mpf("1e-20")


def _j_from_qexp(form, d, prec):
    """j at the CM point of form by Horner's rule on the exact q-expansion
    of j, cut where e^{4 pi sqrt(n)} |q|^n drops below 10^{-(prec + 15)}."""
    a, b, _ = form
    abs_log_q = math.pi * math.sqrt(d) / a
    n = 1
    while n * abs_log_q - 4 * math.pi * math.sqrt(n) < (prec + 15) * math.log(10):
        n += 1
    jq = classical_qexp("j", n)
    with mp.workdps(prec + 30):
        q = mp.exp(2j * mp.pi * (-b + mp.sqrt(-d)) / (2 * a))
        acc = mp.mpc(0)
        for coeff in reversed(jq.coeffs):
            acc = acc * q + int(coeff)
        return acc * q**jq.leading


@pytest.mark.parametrize(
    "d, form, prec",
    [
        (3, (1, 1, 1), 60),
        (7, (1, 1, 2), 60),
        (23, (1, 1, 6), 60),
        (23, (2, 1, 3), 60),
        (23, (2, -1, 3), 60),
        (95, (4, 1, 6), 250),
    ],
)
def test_j_value_matches_exact_qexp(d, form, prec):
    with mp.workdps(prec + 30):
        diff = abs(j_value(form, d, prec) - _j_from_qexp(form, d, prec))
        assert diff < mp.mpf(10) ** -(prec - 5)


# 704 = 44 * 2^4 is the top of gz_product(3, 7)'s doubling ladder; 896
# lies beyond it.
@pytest.mark.parametrize("prec", [60, 250, 704, 896])
@pytest.mark.parametrize("d", [3, 7, 23, 39, 47, 55, 71, 95, 995])
def test_j_value_matches_kleinj(d, prec):
    # forms with a = b, a = c, conjugate pairs (a, +-b, c) and, at
    # d = 995 with a = 1, |j| near 10^43
    tol = mp.mpf(10) ** -(prec - 5)
    for a, b, c in reduced_forms(d):
        # 40 digits beyond the size of j leave a margin for kleinj
        size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
        with mp.workdps(prec + 40 + size_digits):
            reference = 1728 * mp.kleinj((-b + mp.sqrt(-d)) / (2 * a))
            value = j_value((a, b, c), d, prec)
            assert abs(value - reference) < tol, (a, b, c)
            assert abs(j_value((a, -b, c), d, prec) - mp.conj(value)) < tol


def test_j_value_at_9000_digits_and_d_2000003():
    # W near 30 000 bits: _euler sums about 51 indices, beyond the range
    # of the tests above
    d, (a, b, c) = 2000003, (791, -731, 801)
    assert (a, b, c) in reduced_forms(d)
    prec = 9000
    size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
    with mp.workdps(prec + 40 + size_digits):
        reference = 1728 * mp.kleinj((-b + mp.sqrt(-d)) / (2 * a))
        diff = abs(j_value((a, b, c), d, prec) - reference)
        assert diff < mp.mpf(10) ** -(prec - 5)


def _pinned_forms(bound):
    """(form, d) for every d < bound that reduced_forms accepts: its
    forms, then the mirrors (a, -b, c) with 0 < b < a < c."""
    out = []
    for d in range(3, bound, 4):
        try:
            forms = reduced_forms(d)
        except UnsupportedDiscriminantError:
            continue
        out += [(f, d) for f in forms]
        out += [((a, -b, c), d) for a, b, c in forms if 0 < b < a < c]
    return out


# sha256 prefixes of every bit of j at 3010 forms (257 at prec 896): a
# change to j_value's kernel must keep each truncation where it is
@pytest.mark.parametrize(
    "prec, bound, digest",
    [
        (30, 1000, "dbee82f1633fa774"),
        (60, 1000, "2acaa9ecedaef140"),
        (250, 1000, "3170650fd9335355"),
        (896, 200, "ab2a73ff32e84c60"),
    ],
)
def test_j_value_bits_are_pinned(prec, bound, digest):
    forms = _pinned_forms(bound)
    assert len(forms) == {1000: 3010, 200: 257}[bound]
    h = hashlib.sha256()
    for form, d in forms:
        h.update(repr(j_value(form, d, prec)._mpc_).encode())
    assert h.hexdigest()[:16] == digest


def test_j_value_accuracy_ignores_caller_precision():
    # at mpmath's default 15 digits, j_value must still return 60 digits
    with mp.workdps(15):
        value = j_value((1, 1, 6), 23, 60)
    with mp.workdps(120):
        reference = 1728 * mp.kleinj((-1 + mp.sqrt(-23)) / 2)
        assert abs(value - reference) < mp.mpf(10) ** -55


@pytest.mark.parametrize("d1, d2", [(7, 43), (15, 7)])
def test_gz_product_ignores_caller_precision(d1, d2):
    # j_value and the integer product read no mp.prec
    with mp.workdps(15):
        low = gz_product(d1, d2)
    with mp.workdps(300):
        high = gz_product(d1, d2)
    assert low == high


def _squarefree(n):
    return all(e == 1 for _, e in factorize(n))


@given(
    d=st.integers(min_value=0, max_value=1249).map(lambda n: 4 * n + 3).filter(
        _squarefree
    ),
    index=st.integers(min_value=0, max_value=100),
    prec=st.integers(min_value=30, max_value=1000),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_j_value_matches_kleinj_random_forms(d, index, prec):
    # d < 5000 reaches |j| near 10^95 at a = 1; the comparison runs 40
    # digits beyond the size of j, or the subtraction itself shows an error
    forms = reduced_forms(d)
    a, b, c = forms[index % len(forms)]
    size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
    with mp.workdps(prec + 40 + size_digits):
        reference = 1728 * mp.kleinj((-b + mp.sqrt(-d)) / (2 * a))
        diff = abs(j_value((a, b, c), d, prec) - reference)
        assert diff < mp.mpf(10) ** -(prec - 5), (a, b, c)


@given(
    digits=st.integers(min_value=30, max_value=1000),
    radius=st.floats(min_value=0, max_value=1),
    turn=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fixed_point_euler_matches_qpochhammer(digits, radius, turn):
    # |q| <= e^{-pi sqrt 3}, the bound at every reduced form's CM point,
    # against mpmath's q-Pochhammer (q; q)_oo, which shares no code with
    # the fixed-point kernel
    with mp.workdps(digits):
        q = radius * mp.exp(-mp.pi * mp.sqrt(3)) * mp.expjpi(2 * turn)
        w = mp.prec + gzoracle._GUARD_BITS
        qf = int(to_fixed(q.real._mpf_, w)), int(to_fixed(q.imag._mpf_, w))
        er, ei = gzoracle._euler(qf, w)
    with mp.workdps(digits + 20):
        err = abs(mp.mpc(mp.ldexp(er, -w), mp.ldexp(ei, -w)) - mp.qp(q))
        # one unit for q and 4 per index k (k <= 17 at 1000 digits): at
        # most 69 units of 2^-w
        assert err < mp.ldexp(1, 8 - w), (digits, radius, turn)


@given(
    digits=st.integers(min_value=30, max_value=1000),
    radius=st.floats(min_value=-1, max_value=1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fixed_point_real_euler_matches_qpochhammer(digits, radius):
    # the real kernel of the forms with |b| = a, at real q of either sign
    # up to |q| = e^{-pi sqrt 3}, with the bound of the complex kernel
    with mp.workdps(digits):
        q = radius * mp.exp(-mp.pi * mp.sqrt(3))
        w = mp.prec + gzoracle._GUARD_BITS
        e = gzoracle._euler_real(int(to_fixed(q._mpf_, w)), w)
    with mp.workdps(digits + 20):
        err = abs(mp.ldexp(e, -w) - mp.qp(q))
        assert err < mp.ldexp(1, 8 - w), (digits, radius)


def test_j_value_domain():
    with pytest.raises(ValueError):
        j_value((1, 1, 2), 11, 40)  # discriminant mismatch
    with pytest.raises(ValueError):
        j_value((1, 1, 2), 7, 10)  # prec too small
    with pytest.raises(ValueError, match=re.escape("prec=30.5 is not an integer")):
        j_value((1, 1, 2), 7, 30.5)


def test_prec_refusals_are_the_shared_digit_check():
    with pytest.raises(PrecisionError, match="^prec must be >= 30, got 29$"):
        j_value((1, 1, 2), 7, 29)
    with pytest.raises(PrecisionError, match="^prec must be >= 1, got 0$"):
        gz_product(3, 7, 0)


def test_j_value_refuses_inputs_beyond_its_error_budget():
    # the budget is worked out up to MAX_PREC digits and d = MAX_D
    with pytest.raises(PrecisionError, match=f"prec={MAX_PREC + 1} .*at most {MAX_PREC}"):
        j_value((1, 1, 2), 7, MAX_PREC + 1)
    with pytest.raises(ValueError, match=f"d=10000003 .*MAX_D={MAX_D}"):
        j_value((1, 1, 2500001), 10000003)


def test_j_at_i_sqrt3_over_2_is_within_2079_of_its_leading_term():
    # the coefficients of j - 1/q are >= 0, so at Im tau >= sqrt(3)/2
    # |j(tau) - 1/q| is at most this value, the constant of gz_product's
    # size bound
    with mp.workdps(50):
        gap = 1728 * mp.kleinj(1j * mp.sqrt(3) / 2) - mp.exp(mp.pi * mp.sqrt(3))
        assert abs(gap.imag) < mp.mpf(10) ** -40
        assert 2078 < gap.real < 2079


def test_j_value_within_its_size_bound():
    # |j| <= e^{pi sqrt(d) / a} + 2079 at every reduced form with d < 2000
    count = 0
    for d in _odd_fundamental(1999):
        for a, b, c in reduced_forms(d):
            size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
            with mp.workdps(30 + size_digits):
                bound = mp.exp(mp.pi * mp.sqrt(d) / a) + 2079
                assert abs(j_value((a, b, c), d, 30)) <= bound, (d, a, b)
            count += 1
    assert count > 5000


@pytest.mark.parametrize("form", [(-1, 1, -2), (-2, 1, -1), (2, 3, 2), (2, -3, 2)])
def test_j_value_refuses_forms_outside_its_error_budget(form):
    # each has discriminant -7, but |q| <= e^{-pi sqrt 3} needs
    # 0 < a and |b| <= a <= c
    with pytest.raises(ValueError, match=re.escape(f"form {form} is outside")):
        j_value(form, 7, 40)


# d = 39, 51, 95 and 195 have forms (a, a, c) with a > 1 as well.
@pytest.mark.parametrize("prec", [30, 250])
@pytest.mark.parametrize("d", [3, 7, 39, 51, 95, 195])
def test_j_value_rotates_ambiguous_forms_by_exactly_minus_one(monkeypatch, d, prec):
    # at |b| = a, e^{-i pi b / a} = -1 needs no cos/sin kernel, and the
    # mirror (a, -a, c) is tau + 1, the same j bit for bit
    def no_kernel(*args):
        raise AssertionError("cos_sin_fixed called at |b| = a")

    monkeypatch.setattr(gzoracle, "cos_sin_fixed", no_kernel)
    ambiguous = [(a, b, c) for a, b, c in reduced_forms(d) if b == a]
    assert ambiguous
    for a, b, c in ambiguous:
        size_digits = math.ceil(math.pi * math.sqrt(d) / (a * math.log(10)))
        with mp.workdps(prec + 40 + size_digits):
            value = j_value((a, b, c), d, prec)
            assert j_value((a, -b, c), d, prec) == value
            reference = 1728 * mp.kleinj((-b + mp.sqrt(-d)) / (2 * a))
            assert abs(value - reference) < mp.mpf(10) ** -(prec - 5), (a, b, c)


def test_gz_3_7():
    r = gz_product(3, 7)
    assert r.product == 3375
    assert r.factorization == ((3, 3), (5, 3))
    assert r.margin < 1e-20
    assert r.factored_string() == "3^3 * 5^3"


def test_gz_7_43():
    r = gz_product(7, 43)
    assert abs(r.product) == 3**6 * 5**3 * 7 * 19 * 73
    assert r.product == 884732625  # j(tau_7) - j(tau_43) > 0
    assert r.factorization == ((3, 6), (5, 3), (7, 1), (19, 1), (73, 1))
    assert r.margin < 1e-20


# Pairs with class number above 1 on at least one side: (product,
# factorization), computed from the exact q-expansion of j.
PINNED_PRODUCTS = {
    (3, 23): (12771880859375, ((5, 9), (11, 3), (17, 3))),
    (7, 15): (-754606125, ((3, 6), (5, 3), (7, 2), (13, 2))),
    (15, 19): (613629807921, ((3, 6), (13, 2), (29, 1), (41, 1), (59, 1), (71, 1))),
    (3, 95): (
        5**12 * 17**6 * 23**6 * 29**3 * 41**3 * 59**3 * 71**3,
        ((5, 12), (17, 6), (23, 6), (29, 3), (41, 3), (59, 3), (71, 3)),
    ),
}


@pytest.mark.parametrize("pair", sorted(PINNED_PRODUCTS))
def test_gz_pinned_products(pair):
    r = gz_product(*pair)
    assert (r.product, r.factorization) == PINNED_PRODUCTS[pair]
    assert r.margin < 1e-20


def _odd_fundamental(bound):
    """d <= bound with -d an odd fundamental discriminant."""
    ds = []
    for d in range(3, bound + 1, 4):
        try:
            reduced_forms(d)
        except UnsupportedDiscriminantError:
            continue
        ds.append(d)
    return ds


# SHA-256 of one repr((d1, d2, product, factorization, precision_used,
# doublings)) line per pair of the sweep below, in sweep order.
SWEEP_1000_DIGEST = "2d85e8dbda004122e035994abbc116da742a7244b7c9166a1edf9c803276f4c1"
# SHA-256 of one repr(margin) line per pair of the same sweep: the margin
# reads the truncation bits of the product, so it moves with W or with
# the order of the factors.
SWEEP_1000_MARGIN_DIGEST = (
    "358d9a95bd13030dd79ede3cd6f05e1139b1554eaf1e4b78175b5da07c3e823a"
)


def test_gz_sweep_pinned():
    # every coprime pair of odd fundamental discriminants with d1 < d2 and
    # d1 * d2 <= 1000, as criterion 9 enumerates them
    ds = _odd_fundamental(1000 // 3)
    pairs = [
        (d1, d2)
        for i, d1 in enumerate(ds)
        for d2 in ds[i + 1 :]
        if d1 * d2 <= 1000 and math.gcd(d1, d2) == 1
    ]
    assert len(pairs) == 110
    lines, margins = [], []
    for d1, d2 in pairs:
        r = gz_product(d1, d2)
        assert r.margin < 1e-20, (d1, d2, r.margin)
        record = (r.d1, r.d2, r.product, r.factorization, r.precision_used, r.doublings)
        lines.append(repr(record))
        margins.append(repr(r.margin))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SWEEP_1000_DIGEST
    digest = hashlib.sha256("\n".join(margins).encode()).hexdigest()
    assert digest == SWEEP_1000_MARGIN_DIGEST


def _trial_factor(m):
    """{p: e} with m = prod p^e, by trial division."""
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = 1
    return factors


def _gz_formula_valuations(d1, d2):
    """{p: v_p(prod_x F((d1 d2 - x^2) / 4))} over x^2 < d1 d2 with
    x = d1 d2 (mod 2), both signs, F(m) = prod_{n n' = m} n^eps(n'),
    eps multiplicative with eps(p) = chi_{-d1}(p) if p does not divide
    d1, else chi_{-d2}(p) (Gross-Zagier, "On singular moduli", Thm 1.3)."""

    def eps(p):
        return kronecker(-d1, p) if d1 % p else kronecker(-d2, p)

    D = d1 * d2
    total = {}
    for x in range(-math.isqrt(D), math.isqrt(D) + 1):
        if (D - x) % 2:
            continue
        factors = sorted(_trial_factor((D - x * x) // 4).items())
        # n runs over the divisors of m by exponent vectors; then
        # v_p(F(m)) = sum over n of v_p(n) eps(m / n)
        for ks in itertools.product(*(range(e + 1) for _, e in factors)):
            sign = math.prod(eps(p) ** (e - k) for (p, e), k in zip(factors, ks))
            for (p, _), k in zip(factors, ks):
                total[p] = total.get(p, 0) + sign * k
    return total


def test_gz_product_matches_gross_zagier_formula():
    # J = prod (j(tau_1) - j(tau_2))^(4 / (w1 w2)) has J^2 = +-prod_x F(...),
    # so 8 v_p(product) = w1 w2 sum_x v_p(F(...)) for every prime p
    ds = _odd_fundamental(2000 // 3)
    pairs = [
        (d1, d2)
        for d1 in ds
        for d2 in ds
        if d1 != d2 and d1 * d2 <= 2000 and math.gcd(d1, d2) == 1
    ]
    assert len(pairs) == 488
    for d1, d2 in pairs:
        units = (6 if d1 == 3 else 2) * (6 if d2 == 3 else 2)
        product = dict(gz_product(d1, d2).factorization)
        formula = _gz_formula_valuations(d1, d2)
        for p in product.keys() | formula.keys():
            assert 8 * product.get(p, 0) == units * formula.get(p, 0), (d1, d2, p)


def test_gz_symmetry_sign():
    a = gz_product(3, 7)
    b = gz_product(7, 3)
    assert b.product == -a.product  # h1 = h2 = 1 flips the single factor


def test_gz_doubling_invariance():
    a = gz_product(3, 7)
    b = gz_product(3, 7, prec=2 * a.precision_used)
    assert a.product == b.product


def test_gz_counts_doublings(monkeypatch):
    base = gz_product(3, 7)
    exact_j = gzoracle.j_value

    def noisy_below_double(form, d, prec):
        # perturb j(tau_3) only, so the error does not cancel in j1 - j2
        value = exact_j(form, d, prec)
        if d == 3 and prec < 2 * base.precision_used:
            return value + mp.mpf("1e-10")
        return value

    monkeypatch.setattr(gzoracle, "j_value", noisy_below_double)
    r = gz_product(3, 7)
    assert r.product == base.product
    assert (r.doublings, r.precision_used) == (1, 2 * base.precision_used)
    assert base.doublings == 0


@pytest.mark.parametrize(
    "prec, ladder", [(None, [44, 88, 176, 352, 704]), (5000, [5000, 10000])]
)
def test_gz_doublings_stop_at_max_prec(monkeypatch, prec, ladder):
    precs = []

    def never_rounds(form, d, digits):
        precs.append(digits)
        return mp.mpc(0.5 if d == 3 else 0)

    monkeypatch.setattr(gzoracle, "j_value", never_rounds)
    with pytest.raises(RoundingFailure, match=f"at {ladder[-1]} digits"):
        gz_product(3, 7, prec)
    # one form for each of d = 3 and d = 7 per rung
    assert precs == [p for p in ladder for _ in (3, 7)]


def test_gz_evaluates_j_once_per_conjugate_pair(monkeypatch):
    calls = []
    exact_j = gzoracle.j_value

    def counting_j(form, d, prec):
        calls.append(d)
        return exact_j(form, d, prec)

    monkeypatch.setattr(gzoracle, "j_value", counting_j)
    r = gz_product(3, 95)
    assert (r.product, r.factorization) == PINNED_PRODUCTS[(3, 95)]
    # d = 95 has 8 forms: 3 pairs (a, +-b, c) and 2 ambiguous forms
    assert len(reduced_forms(95)) == 8
    assert calls == [3] + [95] * 5


@pytest.mark.parametrize(
    "args, name",
    [
        ((7.5, 3), "d1=7.5"),
        ((7, 3.5), "d2=3.5"),
        ((7, 3, 60.5), "prec=60.5"),
        (("7", 3), "d1='7'"),
    ],
)
def test_gz_refuses_non_integral_arguments(args, name):
    with pytest.raises(ValueError, match=re.escape(f"{name} is not an integer")):
        gz_product(*args)


def _mpc_class_j_values(forms, d, digits):
    values = {}
    for a, b, c in sorted(forms, key=lambda f: f[1] < 0):
        mirror = values.get((a, -b, c))
        if mirror is None:
            values[(a, b, c)] = gzoracle.j_value((a, b, c), d, digits)
        else:
            values[(a, b, c)] = mp.conj(mirror)
    return [values[f] for f in forms]


def _size_bound(d1, d2):
    """gz_product's a-priori bound on log|product|, factor by factor:
    |j1 - j2| <= 4 max(e^t1, e^t2, 2079), t = pi sqrt(d) / a."""
    t1 = [math.pi * math.sqrt(d1) / a for a, _, _ in reduced_forms(d1)]
    t2 = [math.pi * math.sqrt(d2) / a for a, _, _ in reduced_forms(d2)]
    return sum(max(x, y, math.log(2079)) + math.log(4) for x in t1 for y in t2)


def _mpc_gz_product(d1, d2):
    """gz_product's ladder with the product, rounding and margin in
    mpmath complex arithmetic at workdps(digits + 20): (product,
    factorization, precision_used, doublings, margin)."""
    forms1, forms2 = reduced_forms(d1), reduced_forms(d2)
    digits = int(_size_bound(d1, d2) / math.log(10)) + 40
    for attempt in range(5):
        with mp.workdps((digits << attempt) + 20):
            j1 = _mpc_class_j_values(forms1, d1, digits << attempt)
            j2 = _mpc_class_j_values(forms2, d2, digits << attempt)
            product = mp.mpc(1)
            for x in j1:
                for y in j2:
                    product *= x - y
            nearest = int(mp.nint(product.real))
            margin = max(abs(product.real - nearest), abs(product.imag))
            if margin < mp.mpf(10) ** -20:
                factorization = tuple(factorize(abs(nearest)))
                return nearest, factorization, digits << attempt, attempt, float(margin)
    raise RoundingFailure


_DS_5000 = _odd_fundamental(5000 // 3)
ORDERED_PAIRS_5000 = [
    (d1, d2)
    for d1 in _DS_5000
    for d2 in _DS_5000
    if d1 != d2 and d1 * d2 <= 5000 and math.gcd(d1, d2) == 1
]


@given(pair=st.sampled_from(ORDERED_PAIRS_5000))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_gz_integer_product_matches_mpc_reference(pair):
    r = gz_product(*pair)
    product, factorization, precision_used, doublings, margin = _mpc_gz_product(*pair)
    assert (r.product, r.factorization) == (product, factorization)
    assert (r.precision_used, r.doublings) == (precision_used, doublings)
    assert r.margin < 1e-20 and margin < 1e-20


def test_gz_rejects_non_coprime():
    with pytest.raises(ValueError):
        gz_product(7, 7)
    with pytest.raises(ValueError):
        gz_product(15, 35)


def test_gz_bounds_prec():
    # the library refuses what bcm gz refuses, before any j evaluation
    with pytest.raises(PrecisionError, match="prec=10001"):
        gz_product(3, 7, 10001)


def test_gz_bounds_size_bound_digits(monkeypatch):
    # h(5000003) = 476 puts the a-priori bound above MAX_PREC
    calls = []
    monkeypatch.setattr(gzoracle, "j_value", lambda *args: calls.append(args))
    with pytest.raises(PrecisionError, match="d1=3, d2=5000003 need 11753 digits"):
        gz_product(3, 5000003)
    assert calls == []


def test_gz_products_within_size_bound():
    # the criterion-9 pairs: coprime, d1 < d2 and d1 * d2 <= 2000
    ds = _odd_fundamental(2000 // 3)
    pairs = [
        (d1, d2)
        for i, d1 in enumerate(ds)
        for d2 in ds[i + 1 :]
        if d1 * d2 <= 2000 and math.gcd(d1, d2) == 1
    ]
    assert len(pairs) == 244
    for d1, d2 in pairs:
        r = gz_product(d1, d2)
        bound = _size_bound(d1, d2)
        assert math.log(abs(r.product)) <= bound, (d1, d2)
        assert r.precision_used == int(bound / math.log(10)) + 40, (d1, d2)


# SHA-256 of repr((product, factorization)) of gz_product(3, 10007).
GZ_3_10007_DIGEST = "9469e10ace2370704a31b554ad010151684c15930a9a53b0f4efc0fec475246b"


def test_gz_3_10007_runs_below_max_prec():
    # h(10007) = 77; the a-priori bound asks for 1020 digits
    r = gz_product(3, 10007)
    assert (r.doublings, r.precision_used) == (0, 1020)
    assert r.margin < 1e-20
    assert gz_support_check(r) == (True, [])
    digest = hashlib.sha256(repr((r.product, r.factorization)).encode()).hexdigest()
    assert digest == GZ_3_10007_DIGEST


def test_gz_support_check_pass():
    ok, violations = gz_support_check(gz_product(3, 7))
    assert ok and not violations
    ok, violations = gz_support_check(gz_product(7, 43))
    assert ok and not violations


def test_gz_support_check_flags_split_prime():
    # 11 splits in Q(sqrt(-7)): -7 = 4 is a square mod 11
    fake = GZResult(
        d1=7,
        d2=43,
        product=11,
        factorization=((11, 1),),
        precision_used=50,
        margin=0.0,
    )
    ok, violations = gz_support_check(fake)
    assert not ok
    assert (11, "split") in violations


def test_gz_support_check_flags_large_prime():
    fake = GZResult(
        d1=3,
        d2=7,
        product=17,
        factorization=((17, 1),),
        precision_used=50,
        margin=0.0,
    )
    ok, violations = gz_support_check(fake)
    assert not ok
    assert any(v[1] in ("split", "too-large") for v in violations)
