import math
import re
from fractions import Fraction

import pytest
from mpmath import mp

from borcherds_cm import quadfield
from borcherds_cm.arith import factorize
from borcherds_cm.quadfield import (
    INERT,
    MAX_D,
    L_at_one,
    RAMIFIED,
    SPLIT,
    UnsupportedDiscriminantError,
    chowla_selberg_log_deriv,
    kappa_zero_constant,
    kappa_zero_direct,
    l_log_deriv_at_zero_direct,
    make_field,
    reduced_forms,
)


def test_reduced_forms_examples():
    assert reduced_forms(7) == [(1, 1, 2)]
    assert reduced_forms(3) == [(1, 1, 1)]
    assert len(reduced_forms(23)) == 3
    assert reduced_forms(15) == [(1, 1, 4), (2, 1, 2)]


def test_discriminant_cap():
    # h(2000003) = 357, which the Gross-Zagier size bound reads
    assert len(reduced_forms(2000003)) == 357
    for fn in (reduced_forms, make_field):
        with pytest.raises(
            UnsupportedDiscriminantError,
            match=f"d=100000000003 is above the cap of {MAX_D}",
        ):
            fn(100000000003)


def test_reduced_forms_rejects_bad_discriminants():
    # 21 = 1 mod 4; 63 = 9*7, 75 = 25*3, 171 = 9*19, 275 = 25*11 not squarefree
    for d in (5, 8, 21, 63, 75, 171, 275):
        with pytest.raises(UnsupportedDiscriminantError):
            reduced_forms(d)


def _has_square_factor(d):
    return any(d % (p * p) == 0 for p in range(2, math.isqrt(d) + 1))


def test_reduced_forms_refuses_exactly_the_non_squarefree():
    # the walk's first imprimitive form is the squarefree test
    for d in range(3, 4000, 4):
        try:
            reduced_forms(d)
            refused = False
        except UnsupportedDiscriminantError as exc:
            assert str(exc) == f"d={d}: -d is not an odd fundamental discriminant"
            refused = True
        assert refused == _has_square_factor(d), d


def _reduced_forms_both_parities(d):
    """The reduced forms of discriminant -d from a walk over every b with
    |b| <= a, or None at the first imprimitive form."""
    forms = []
    for a in range(1, math.isqrt(d // 3) + 1):
        for b in range(-a, a + 1):
            c, rem = divmod(b * b + d, 4 * a)
            if rem or c < a or (b < 0 and (a == -b or a == c)):
                continue
            if math.gcd(a, b, c) != 1:
                return None
            forms.append((a, b, c))
    return sorted(forms)


def test_reduced_forms_walk_over_odd_b_misses_nothing():
    # d is odd, so for even b 4a never divides b^2 + d
    for d in range(3, 4000, 4):
        try:
            forms = reduced_forms(d)
        except UnsupportedDiscriminantError:
            forms = None
        assert forms == _reduced_forms_both_parities(d), d


def test_factorize_calls(monkeypatch):
    # reduced_forms factors nothing; make_field factors d once
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(quadfield, "factorize", counting)
    assert reduced_forms(7) == [(1, 1, 2)]
    assert len(reduced_forms(2000003)) == 357
    for d in (63, 75, 9999999):
        with pytest.raises(UnsupportedDiscriminantError):
            reduced_forms(d)
    assert calls == []
    assert make_field(991).ramified_primes == (991,)
    assert calls == [991]


@pytest.mark.parametrize("fn", [reduced_forms, make_field])
def test_non_whole_d_refused(fn):
    for d in (7.5, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"d={d} is not an integer")):
            fn(d)
    assert fn(15.0) == fn(15)


def test_class_numbers():
    for d, h in ((7, 1), (11, 1), (15, 2), (19, 1), (23, 3), (47, 5), (71, 7)):
        assert make_field(d).h == h


def test_make_field_domain():
    # one refusal routine: reduced_forms' message, and make_field's own only
    # at d = 3, which is fundamental but has w = 6
    for d in (-7, 0, 5, 21, 63, 75):
        with pytest.raises(UnsupportedDiscriminantError) as exc:
            make_field(d)
        assert str(exc.value) == f"d={d}: -d is not an odd fundamental discriminant"
    with pytest.raises(UnsupportedDiscriminantError, match="w = 6"):
        make_field(3)
    fld = make_field(15)
    assert fld.discriminant == -15
    assert fld.ramified_primes == (3, 5)
    assert fld.w == 2


def test_splitting_d7():
    fld = make_field(7)
    assert fld.splitting(2) == SPLIT
    assert fld.splitting(3) == INERT
    assert fld.splitting(7) == RAMIFIED
    assert fld.splitting(11) == SPLIT
    assert fld.splitting(13) == INERT


def test_chi_of_prime_multiplicative():
    fld = make_field(23)
    for a in range(1, 40):
        for b in range(1, 40):
            assert fld.chi_of_prime(a * b) == fld.chi_of_prime(a) * fld.chi_of_prime(b)


def test_rho_values_d7():
    fld = make_field(7)
    assert fld.rho(1) == 1
    assert fld.rho(2) == 2      # split
    assert fld.rho(3) == 0      # inert
    assert fld.rho(9) == 1
    assert fld.rho(7) == 1      # ramified
    assert fld.rho(49) == 1
    assert fld.rho(4) == 3
    assert fld.rho(14) == 2
    assert fld.rho(Fraction(1, 2)) == 0
    with pytest.raises(ValueError):
        fld.rho(0)


def test_rho_local():
    # rho(p^a), the local ideal counts that rho multiplies together
    fld = make_field(15)
    assert fld.rho(Fraction(1, 2)) == 0   # 2^-1
    assert fld.rho(1) == 1      # 2^0
    assert fld.rho(2**3) == 4   # 2 splits in Q(sqrt(-15))
    assert fld.rho(7) == 0      # 7 inert
    assert fld.rho(7**2) == 1
    assert fld.rho(3**5) == 1   # ramified


def test_class_number_formula_quick():
    fld = make_field(11)
    with mp.workdps(50):
        series = L_at_one(fld, 40)
        closed = 2 * mp.pi * fld.h / (fld.w * mp.sqrt(11))
        assert abs(series - closed) < mp.mpf("1e-35")


def test_kzero_routes_quick():
    fld = make_field(7)
    with mp.workdps(50):
        r1 = kappa_zero_direct(fld, 40)
        r2 = kappa_zero_constant(fld, 40)
        assert abs(r1 - r2) < mp.mpf("1e-30")
        cs = chowla_selberg_log_deriv(fld, 40)
        fd = l_log_deriv_at_zero_direct(fld, 40)
        assert abs(cs - fd) < mp.mpf("1e-30")


def test_prec_domain():
    fld = make_field(7)
    with pytest.raises(ValueError):
        L_at_one(fld, 5)
