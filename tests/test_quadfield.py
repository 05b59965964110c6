from fractions import Fraction

import pytest
from mpmath import mp

from borcherds_cm.quadfield import (
    INERT,
    MAX_D,
    L_at_one,
    L_at_zero,
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
    for d in (5, 8, 21, 63):  # 21 = 1 mod 4; 63 = 9*7 not squarefree
        with pytest.raises(UnsupportedDiscriminantError):
            reduced_forms(d)


def test_class_numbers():
    for d, h in ((7, 1), (11, 1), (15, 2), (19, 1), (23, 3), (47, 5), (71, 7)):
        assert make_field(d).h == h


def test_make_field_domain():
    for d in (3, 5, 21, 63):
        with pytest.raises(UnsupportedDiscriminantError):
            make_field(d)
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


def test_L_at_zero_class_number():
    # L(0, chi_d) = 2h/w for odd fundamental discriminants
    for d in (7, 15, 23, 47):
        fld = make_field(d)
        assert L_at_zero(fld) == Fraction(2 * fld.h, fld.w)


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
