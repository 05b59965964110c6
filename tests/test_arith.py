import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_rational, round_nearest, to_fixed

from borcherds_cm import arith, quadfield
from borcherds_cm.arith import (
    FactoredLog,
    INFINITE_PLACE,
    MAX_PREC,
    PRIME_PROOF_BOUND,
    PrecisionError,
    UndefinedValuationError,
    ZERO_LOG,
    factorize,
    flog_combine,
    hilbert_symbol,
    is_prime,
    kronecker,
    sqrt_mod,
    valuation,
)
from borcherds_cm.cmvalue import CMValueReport
from borcherds_cm.forms import QExpansion
from borcherds_cm.kappa import KappaValue
from borcherds_cm.locwhit import WhitPoly
from borcherds_cm.quadfield import kappa_zero_constant, make_field


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_sqrt_mod_small_primes():
    # every residue mod every odd prime below 300: a root of each square
    # (p = 1 mod 8 needs several Tonelli-Shanks steps), an error otherwise
    for p in filter(is_prime, range(3, 300)):
        squares = {x * x % p for x in range(p)}
        for a in range(-p, p):
            if a % p in squares:
                r = sqrt_mod(a, p)
                assert 0 <= r < p and (r * r - a) % p == 0
            else:
                with pytest.raises(ValueError, match="not a square"):
                    sqrt_mod(a, p)


def test_sqrt_mod_large_prime():
    p = 2**61 - 1
    for x in (3, 12345678901234567, p - 2):
        r = sqrt_mod(x * x, p)
        assert r in (x, p - x)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(21) == [(3, 1), (7, 1)]
    assert factorize(884732625) == [(3, 6), (5, 3), (7, 1), (19, 1), (73, 1)]
    assert factorize(2**10) == [(2, 10)]


def test_factorize_above_trial_bound():
    # cofactors with every prime above the 10^6 trial bound go to rho
    p, q, r = 1000003, 1000033, 1000037
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(p * p) == [(p, 2)]
    assert factorize(8 * p * q * r) == [(2, 3), (p, 1), (q, 1), (r, 1)]


def test_factorize_refuses_a_composite_cofactor_above_the_cap():
    # (10^15 + 37)(3 * 10^15 + 37) is past the bound where the twelve
    # Miller-Rabin bases are a proof, and rho would run without end
    cofactor = (10**15 + 37) * (3 * 10**15 + 37)
    assert cofactor == 3000000000000148000000000001369
    assert cofactor > PRIME_PROOF_BOUND == 3317044064679887385961981
    message = (
        f"cannot factor: the cofactor {cofactor} left after trial division "
        f"is composite and above the cap of {PRIME_PROOF_BOUND}"
    )
    for n in (cofactor, 8 * 7**3 * cofactor):
        with pytest.raises(ValueError) as exc:
            factorize(n)
        assert str(exc.value) == message


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_multiplies_back(n):
    prod = 1
    for p, e in factorize(n):
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(5, 8), 2) == -3
    assert valuation(Fraction(9, 5), 3) == 2
    with pytest.raises(UndefinedValuationError):
        valuation(0, 3)


def _strip_one_at_a_time(n, p):
    """(v, n / p^v) with p^v the largest power of p dividing n, removed
    one p at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _trial_factors(n):
    """factorize(n) by trial division by every integer up to sqrt(n)."""
    factors, q = [], 2
    while q * q <= n:
        e, n = _strip_one_at_a_time(n, q)
        if e:
            factors.append((q, e))
        q += 1
    return factors + [(n, 1)] * (n > 1)


@given(
    st.sampled_from((2, 3, 5, 7, 11, 101, 997)),
    st.integers(0, 10**4),
    st.integers(1, 10**6),
)
@example(2, 10**4, 1)
@example(997, 10**4, 997 * 996)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_valuation_and_factorize_at_high_prime_powers(p, v, m):
    # valuation and factorize remove p^v in O(log v) divisions
    n = p**v * m
    w, rest = _strip_one_at_a_time(n, p)
    assert valuation(n, p) == valuation(-n, p) == w
    t = Fraction(m, p**v)
    assert valuation(t, p) == (
        _strip_one_at_a_time(t.numerator, p)[0]
        - _strip_one_at_a_time(t.denominator, p)[0]
    )
    assert factorize(n) == sorted([(p, w)] * (w > 0) + _trial_factors(rest))


def test_kronecker_table():
    # (a|7) matches the Legendre symbol
    squares = {pow(x, 2, 7) for x in range(1, 7)}
    for a in range(1, 7):
        assert kronecker(a, 7) == (1 if a in squares else -1)
    assert kronecker(7, 7) == 0
    assert kronecker(-7, 2) == 1   # -7 = 1 mod 8
    assert kronecker(-15, 2) == 1  # -15 = 1 mod 8


def test_hilbert_symbol_basic():
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, 2, INFINITE_PLACE) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(7, 7, 7) == -1  # (7,7)_7 = (-1|7)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)


@given(
    st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
    st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
)
@settings(max_examples=300, deadline=None)
def test_hilbert_reciprocity(a, b):
    places = {2, INFINITE_PLACE}
    for n in (a, b):
        for p, _ in factorize(abs(n)) if abs(n) > 1 else ():
            places.add(p)
    prod = 1
    for v in places:
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


def _hilbert_reference(a, b, p):
    # the textbook formula on t = p^v * u, with the p-units u as Fractions
    a, b = Fraction(a), Fraction(b)
    if p == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a / Fraction(p) ** alpha, b / Fraction(p) ** beta
    if p == 2:
        ui = u.numerator * u.denominator % 8
        vi = v.numerator * v.denominator % 8
        e = ((ui - 1) // 2) * ((vi - 1) // 2) + alpha * ((vi * vi - 1) // 8) \
            + beta * ((ui * ui - 1) // 8)
        return -1 if e % 2 else 1
    sign = -1 if (alpha * beta) % 2 and p % 4 == 3 else 1
    if beta % 2:
        sign *= kronecker(u.numerator * u.denominator % p, p)
    if alpha % 2:
        sign *= kronecker(v.numerator * v.denominator % p, p)
    return sign


hilbert_places = st.sampled_from((2, 3, 5, 7, 11, 13, 101, 1009, INFINITE_PLACE))


@st.composite
def nonzero_rationals(draw, place):
    # a random rational times a power of the place, so that valuations of
    # both parities and both signs occur
    num = draw(st.integers(min_value=1, max_value=10**6)) * draw(st.sampled_from((1, -1)))
    t = Fraction(num, draw(st.integers(min_value=1, max_value=10**4)))
    if place != INFINITE_PLACE:
        t *= Fraction(place) ** draw(st.integers(min_value=-4, max_value=4))
    if draw(st.booleans()) and t.denominator == 1:
        return t.numerator
    return t


@st.composite
def hilbert_inputs(draw):
    p = draw(hilbert_places)
    return draw(nonzero_rationals(p)), draw(nonzero_rationals(p)), p


@given(hilbert_inputs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_hilbert_symbol_matches_the_unit_part_formula(case):
    a, b, p = case
    assert hilbert_symbol(a, b, p) == _hilbert_reference(a, b, p)


@given(hilbert_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_hilbert_symbol_is_symmetric_and_trivial_on_a_minus_a(case):
    a, b, p = case
    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
    assert hilbert_symbol(a, -a, p) == 1


def test_hilbert_bimultiplicative():
    for p in (2, 3, 7, INFINITE_PLACE):
        for a in (-6, 5, 14):
            for b in (-1, 3, 10):
                for c in (2, -21):
                    lhs = hilbert_symbol(a * c, b, p)
                    rhs = hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p)
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# FactoredLog
# ---------------------------------------------------------------------------

flog_terms = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
)


def test_factored_log_requires_primes():
    with pytest.raises(ValueError):
        FactoredLog({4: 1})


def test_factored_log_drops_zeros():
    f = FactoredLog({3: 0, 7: Fraction(1, 2)})
    assert f.primes() == [7]
    assert f[3] == 0


@given(flog_terms, flog_terms)
@settings(max_examples=100, deadline=None)
def test_factored_log_add_commutes(a, b):
    fa, fb = FactoredLog(a), FactoredLog(b)
    assert fa + fb == fb + fa
    assert fa - fa == ZERO_LOG
    assert (fa + fb) - fb == fa


@given(flog_terms, st.fractions(min_value=-4, max_value=4, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_factored_log_scaling(a, c):
    fa = FactoredLog(a)
    assert c * fa == fa * c
    assert 1 * fa == fa
    assert 0 * fa == ZERO_LOG
    assert -1 * fa == -fa


@given(flog_terms, flog_terms)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_factored_log_arithmetic_matches_the_public_constructor(a, b):
    fa, fb = FactoredLog(a), FactoredLog(b)
    primes = set(a) | set(b)
    cases = [
        (fa + fb, {p: Fraction(a.get(p, 0)) + b.get(p, 0) for p in primes}),
        (fa - fb, {p: Fraction(a.get(p, 0)) - b.get(p, 0) for p in primes}),
        (-fa, {p: -Fraction(e) for p, e in a.items()}),
        (0 * fa, {}),
        (fa + (-fa), {}),
        (Fraction(3, 7) * fa, {p: Fraction(3, 7) * e for p, e in a.items()}),
    ]
    for got, terms in cases:
        want = FactoredLog(terms)
        assert got == want
        assert hash(got) == hash(want)
        assert got.serialize() == want.serialize()
        assert all(e != 0 for e in got.terms.values())
    with pytest.raises(ValueError):
        FactoredLog({4: 1})


def deserialize(text):
    """The FactoredLog whose serialize() is text."""
    text = text.strip()
    if text == "1":
        return FactoredLog()
    terms = {}
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        exp = exp.strip()
        if not (exp.startswith("(") and exp.endswith(")")):
            raise ValueError(f"malformed FactoredLog term {part!r}")
        terms[int(base)] = Fraction(exp[1:-1])
    return FactoredLog(terms)


def _reference(*pairs):
    """sum_i c_i * terms_i as a prime -> nonzero Fraction dict."""
    total = {}
    for c, terms in pairs:
        for p, e in terms.items():
            total[p] = total.get(p, 0) + Fraction(c) * Fraction(e)
    return {p: e for p, e in total.items() if e}


def _assert_canonical(flog, terms):
    """flog holds exactly terms, as integer numerators over one denominator
    in lowest terms."""
    den, num = flog._den, flog._num
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n != 0 for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert flog.terms == terms


@given(
    flog_terms,
    flog_terms,
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_factored_log_integer_arithmetic_matches_fractions(a, b, k, c):
    fa, fb = FactoredLog(a), FactoredLog(b)
    cases = [
        (fa, _reference((1, a))),
        (fa + fb, _reference((1, a), (1, b))),
        (fa - fb, _reference((1, a), (-1, b))),
        (-fa, _reference((-1, a))),
        (k * fa, _reference((k, a))),
        (fa * c, _reference((c, a))),
        (
            flog_combine([(k, fa), (c, fb), (0, fa)]),
            _reference((k, a), (c, b)),
        ),
    ]
    for got, terms in cases:
        _assert_canonical(got, terms)
        if not terms:
            assert got._den == 1 and got == ZERO_LOG
    # one value by four routes: the same integers, hash and text
    s = fa + fb
    routes = [
        FactoredLog(_reference((1, a), (1, b))),
        flog_combine([(1, fb), (1, fa)]),
        deserialize(s.serialize()),
        (2 * fa + 2 * fb) * Fraction(1, 2),
    ]
    for other in routes:
        assert other == s
        assert hash(other) == hash(s)
        assert other.serialize() == s.serialize()


@given(flog_terms)
@settings(max_examples=100, deadline=None)
def test_factored_log_serialize_round_trip(a):
    fa = FactoredLog(a)
    assert deserialize(fa.serialize()) == fa


def test_serialize_format():
    assert ZERO_LOG.serialize() == "1"
    f = FactoredLog({7: -2, 3: Fraction(1, 2)})
    assert f.serialize() == "3^(1/2)*7^(-2/1)"
    assert f.log_string() == "1/2*log(3) - 2*log(7)"
    with pytest.raises(ValueError):
        deserialize("7^2")


# The three sum printers as they were before signed_sum and monomial, each
# joining its signed terms by its own rules; the printers must still give
# these strings byte for byte.
def _old_log_string(flog):
    if not flog.terms:
        return "0"
    parts = []
    for p, e in sorted(flog.terms.items()):
        a, b = e.numerator, e.denominator
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


def _old_qexp_render(f, max_terms):
    terms = [(f.leading + i, c) for i, c in enumerate(f.coeffs) if c]
    parts = []
    for n, c in terms[:max_terms]:
        if n == 0:
            parts.append(str(c))
        else:
            mono = "q" if n == 1 else f"q^{n}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    if len(terms) > max_terms:
        parts.append("...")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _old_poly_string(coeffs):
    if not coeffs:
        return "0"
    parts = []
    for r, c in enumerate(coeffs):
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


def _old_kappa_render(value):
    parts = []
    if value.log_part:
        parts.append(value.log_part.log_string())
    if value.kzero_multiple:
        c = value.kzero_multiple
        term = "k0(0)" if c == 1 else f"{c}*k0(0)"
        parts.append(term if not parts else f"+ {term}")
    return " ".join(parts) if parts else "0"


@given(
    flog_terms,
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.integers(-4, 4),
    st.lists(st.integers(-3, 3) | st.integers(-10**30, 10**30), max_size=12),
    st.integers(0, 10),
    # local Whittaker coefficients are 0 or +-1
    st.lists(st.sampled_from([-1, 0, 1]), max_size=8),
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_sum_printers_match_their_old_joins(
    terms, kzero, leading, qcoeffs, max_terms, wcoeffs
):
    flog = FactoredLog(terms)
    assert flog.log_string() == _old_log_string(flog)
    f = QExpansion(leading, qcoeffs)
    assert f.render(max_terms) == _old_qexp_render(f, max_terms)
    assert WhitPoly(2, tuple(wcoeffs)).poly_string() == _old_poly_string(wcoeffs)
    # the one change: a negative k0(0) multiple after log terms reads
    # "- c*k0(0)", no longer "+ -c*k0(0)"
    value = KappaValue(flog, kzero)
    old = _old_kappa_render(value)
    assert value.render() == old.replace(" + -", " - ")
    assert (" + -" in old) == (bool(flog) and kzero < 0)


def test_exp_rational():
    f = FactoredLog({2: 3, 5: -1})
    assert f.exp_rational() == Fraction(8, 5)
    with pytest.raises(ValueError):
        FactoredLog({2: Fraction(1, 2)}).exp_rational()


def test_numeric_matches_math_log():
    f = FactoredLog({2: 1, 7: Fraction(-1, 2)})
    expect = math.log(2) - math.log(7) / 2
    assert abs(float(f.numeric(30)) - expect) < 1e-12


@pytest.mark.parametrize(
    "prec, message",
    [
        (-100, "prec must be >= 10, got -100"),
        (0, "prec must be >= 10, got 0"),
        (9, "prec must be >= 10, got 9"),
        (MAX_PREC + 1, f"prec={MAX_PREC + 1} beyond supported range"),
    ],
)
def test_numeric_checks_prec(prec, message):
    assert quadfield.PrecisionError is PrecisionError
    with pytest.raises(PrecisionError, match=message):
        FactoredLog({7: 2}).numeric(prec)


def _log_reference(terms, prec):
    """sum_p e_p log(p), term by term in mpmath at prec + 30 digits."""
    with mp.workdps(prec + 30):
        return mp.fsum(
            mp.mpf(e.numerator) / e.denominator * mp.log(p)
            for p, e in terms.items()
        )


@given(flog_terms, st.sampled_from([30, 64, 200]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fixed_point_numeric_matches_an_mpmath_sum(terms, prec):
    got = FactoredLog(terms).numeric(prec)
    with mp.workdps(prec + 30):
        assert abs(got - _log_reference(terms, prec)) < mp.mpf(10) ** -(prec + 5)


@given(
    flog_terms,
    st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool),
    st.sampled_from([7, 15, 23]),
    st.sampled_from([30, 64, 200]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fixed_point_report_numeric_matches_an_mpmath_sum(terms, kzero, d, prec):
    """The report adds kzero_coeff * k0(0) in the same integer sum."""
    fld = make_field(d)
    report = CMValueReport(
        rational_part=FactoredLog(terms),
        kzero_coeff=kzero,
        c00=Fraction(0),
        degree=2 * fld.h,
        vol_kt=Fraction(2, fld.h),
        d=d,
    )
    got = report.numeric(fld, prec)
    with mp.workdps(prec + 30):
        want = _log_reference(terms, prec) + (
            mp.mpf(kzero.numerator) / kzero.denominator
            * kappa_zero_constant(fld, prec + 30)
        )
        assert abs(got - want) < mp.mpf(10) ** -(prec + 5)


def test_fixed_point_numeric_of_the_empty_value_is_zero():
    fld = make_field(7)
    report = CMValueReport(
        rational_part=FactoredLog(),
        kzero_coeff=Fraction(0),
        c00=Fraction(0),
        degree=2,
        vol_kt=Fraction(2),
        d=7,
    )
    for prec in (30, 64, 200):
        for value in (ZERO_LOG.numeric(prec), report.numeric(fld, prec)):
            assert isinstance(value, mp.mpf) and value == 0


def _divided_by_the_shifted_denominator(flog, bits, c, x):
    """The mpf tuple of flog + c x by the route fixed_point_value took when
    it divided the integer sum by (b den) << w in one from_rational."""
    a, b = c.numerator, c.denominator
    den = flog._den
    weight = b * sum(map(abs, flog._num.values())) + abs(a) * den
    w = bits + weight.bit_length() + arith._GUARD_BITS
    total = b * sum(n * arith._log_fixed(p, w) for p, n in flog._num.items())
    if a:
        total += a * den * int(to_fixed(x._mpf_, w))
    return from_rational(total, (b * den) << w, bits, round_nearest)


@given(
    flog_terms,
    st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(
            lambda c: c.denominator > 1
        ),
        st.integers(min_value=-6, max_value=6).map(Fraction),
    ),
    st.sampled_from([7, 15, 23]),
    st.sampled_from([30, 64, 200]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fixed_point_value_rounds_as_the_shifted_denominator_route(
    terms, c, d, prec
):
    """Rounding N / (b den) and then scaling by 2^-w gives the same mpf
    tuple, bit for bit, as rounding N / (b den 2^w), for the empty value
    too, at the bits of FactoredLog.numeric and of CMValueReport.numeric."""
    x = kappa_zero_constant(make_field(d), prec)
    for flog in (FactoredLog(terms), ZERO_LOG):
        for bits in (dps_to_prec(prec + 10), dps_to_prec(prec + 20)):
            got = flog.fixed_point_value(bits, c, x)._mpf_
            assert got == _divided_by_the_shifted_denominator(flog, bits, c, x)


def test_flog_combine():
    a = FactoredLog({2: 1})
    b = FactoredLog({2: -2, 3: 1})
    assert flog_combine([(2, a), (1, b)]) == FactoredLog({3: 1})
