from fractions import Fraction

import pytest

from borcherds_cm.arith import FactoredLog, ZERO_LOG, hilbert_symbol, valuation
from borcherds_cm.lattice import enumerate_dual_cosets, make_ideal_lattice
from borcherds_cm.locwhit import (
    FLAG_NONVANISHING,
    WhitPoly,
    _t_effective,
    eisenstein_deriv_coeff,
    value_deriv_at_zero,
    whit_ramified_nonzero,
    whit_ramified_zero,
    whit_unramified,
)
from borcherds_cm.quadfield import make_field


def test_unramified_inert():
    fld = make_field(7)
    w = whit_unramified(fld, 3, 9)
    assert w.coeffs == (1, -1, 1)
    assert w.value_at_one() == 1


def test_unramified_split():
    fld = make_field(7)
    w = whit_unramified(fld, 2, 4)
    assert w.coeffs == (1, 1, 1)
    assert w.value_at_one() == 3


def test_unramified_negative_valuation_is_zero():
    fld = make_field(7)
    w = whit_unramified(fld, 3, Fraction(1, 3))
    assert w.is_zero_poly()
    assert w.value_at_one() == 0


def test_unramified_rejects_ramified_prime():
    fld = make_field(7)
    with pytest.raises(ValueError):
        whit_unramified(fld, 7, 1)


def test_ramified_zero_poly():
    fld = make_field(7)
    # chi_7(-1) = (-1,-7)_7 = -1, so t = 1 gives the vanishing 1 - X
    w = whit_ramified_zero(fld, 7, 1)
    assert w.coeffs == (1, -1)
    assert w.value_at_one() == 0
    assert w.x_deriv_at_one() == -1


def whit_ramified_case_split(fld, q, t, norm=1):
    """The two-case form of the ramified zero-coset Whittaker function,
    using (q,-t)_q for even ord and (q,-dt)_q for odd ord, applied to the
    effective local parameter.

    Provably equal to whit_ramified_zero; kept as an independent check.
    """
    a = valuation(t, q)
    if a < 0:
        raise ValueError("requires ord_q(t) >= 0")
    te = _t_effective(fld, q, t, norm)
    if a % 2 == 0:
        sign = hilbert_symbol(q, -te, q)
    else:
        sign = hilbert_symbol(q, -fld.d * te, q)
    return WhitPoly(q, (1,) + (0,) * a + (sign,))


def test_ramified_two_case_form_agrees():
    # Lemma-level identity: the single closed form equals the parity case
    # split, across fields, cosets of valuations, and ideal norms
    for d in (7, 15, 23):
        fld = make_field(d)
        for q in fld.ramified_primes:
            for norm in (1, 2, 4):
                for a in range(0, 7):
                    for u in (1, 2, -1, 5, -3):
                        t = Fraction(u) * Fraction(q) ** a
                        if t < 0:
                            continue
                        w1 = whit_ramified_zero(fld, q, t, norm)
                        w2 = whit_ramified_case_split(fld, q, t, norm)
                        assert w1.coeffs == w2.coeffs, (d, q, norm, t)


def test_ramified_zero_norm_twist():
    # d = 15: chi_3(2) = -1, so the norm-2 ideal flips the sign at q = 3
    fld = make_field(15)
    w1 = whit_ramified_zero(fld, 3, 1, norm=1)
    w2 = whit_ramified_zero(fld, 3, 1, norm=2)
    assert w1.coeffs[-1] == -w2.coeffs[-1]


def test_ramified_nonzero_char():
    fld = make_field(7)
    w = whit_ramified_nonzero(fld, 7, Fraction(5, 7), Fraction(5, 7))
    assert w.coeffs == (1,)
    w = whit_ramified_nonzero(fld, 7, Fraction(1, 7), Fraction(5, 7))
    assert w.is_zero_poly()
    # integral shifts stay in the coset
    w = whit_ramified_nonzero(fld, 7, Fraction(5, 7) + 3, Fraction(5, 7))
    assert w.coeffs == (1,)


def test_value_deriv_at_zero():
    w = WhitPoly(7, (Fraction(1), Fraction(-1)))
    value, deriv = value_deriv_at_zero(w)
    assert value == 0
    assert deriv == FactoredLog({7: 1})
    value, deriv = value_deriv_at_zero(WhitPoly(3, (Fraction(2),)))
    assert value == 2 and deriv == ZERO_LOG


def test_eisenstein_deriv_desk_value():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = enumerate_dual_cosets(lat)[0]
    res = eisenstein_deriv_coeff(fld, lat, mu0, 1)
    assert res.flag is None
    assert res.value == FactoredLog({7: -2})


def test_eisenstein_deriv_flag_never_fires_small_sweep():
    fld = make_field(15)
    for ideal in ("unit", "prime:2"):
        lat = make_ideal_lattice(fld, ideal)
        for mu in enumerate_dual_cosets(lat):
            for a in range(1, 31):
                res = eisenstein_deriv_coeff(fld, lat, mu, Fraction(a, 15))
                assert res.flag is None, (ideal, mu.label, a)
    assert FLAG_NONVANISHING == "nonvanishing-value"


def test_eisenstein_deriv_requires_positive_t():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = enumerate_dual_cosets(lat)[0]
    with pytest.raises(ValueError):
        eisenstein_deriv_coeff(fld, lat, mu0, 0)
