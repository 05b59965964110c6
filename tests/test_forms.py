import functools
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import borcherds_cm
from borcherds_cm.cmvalue import log_psi_product
from borcherds_cm.forms import (
    FourierForm,
    IntegralityViolation,
    QExpansion,
    SupportCongruenceViolation,
    classical_qexp,
    load_form,
    m_max,
)
from borcherds_cm.lattice import PosLattice, SplitLattice, make_ideal_lattice
from borcherds_cm.quadfield import make_field

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from workloads import build_pool  # noqa: E402


# ---------------------------------------------------------------------------
# QExpansion arithmetic
# ---------------------------------------------------------------------------


def test_qexp_basic():
    f = QExpansion(0, (1, 2, 3))
    assert f.leading == 0 and f.coeffs == (1, 2, 3)
    g = QExpansion(-1, (1, 0, 5))
    assert g.leading == -1 and g.coeffs == (1, 0, 5)


def test_qexp_normalizes_leading_zeros():
    f = QExpansion(-1, (0, 0, 5))
    assert f.leading == 1 and f.coeffs == (5,)


def test_qexp_mul_tracks_order():
    a = QExpansion(0, (1, 1))       # order 1
    b = QExpansion(1, (1, 0, 1))    # order 3
    c = a * b
    assert c.leading == 1
    assert c.coeffs == (1, 1)  # exact to q^2, min(1 + 1, 3 + 0)


def test_qexp_inverse_identity():
    delta = classical_qexp("delta", 20)
    one = delta * delta.inverse()
    assert one.leading == 0
    assert one.coeffs[0] == 1
    assert all(c == 0 for c in one.coeffs[1:])


def _convolve(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=8
).filter(lambda xs: xs[0] != 0)


@given(st.integers(-3, 3), series, st.integers(-3, 3), series,
       st.integers(1, 5))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_qexp_products_match_convolution(va, a, vb, b, e):
    fa, fb = QExpansion(va, a), QExpansion(vb, b)
    prod = fa * fb
    assert (prod.leading, prod.coeffs) == (va + vb, tuple(_convolve(a, b)))
    power = a
    for _ in range(e - 1):
        power = _convolve(power, a)
    pw = fa**e
    assert (pw.leading, pw.coeffs) == (e * va, tuple(power))
    unit = QExpansion(va, [1 if a[0] > 0 else -1] + a[1:])
    inv = unit.inverse()
    assert inv.leading == -va and all(type(c) is int for c in inv.coeffs)
    one = _convolve(list(unit.coeffs), list(inv.coeffs))
    assert one == [1] + [0] * (len(a) - 1)


def test_qexp_inverse_needs_unit_first_coefficient():
    for coeffs in [(2, 1), (-3, 0, 1)]:
        with pytest.raises(ValueError, match="first coefficient"):
            QExpansion(1, coeffs).inverse()
    inv = QExpansion(1, (-1, 2)).inverse()
    assert (inv.leading, inv.coeffs) == (-1, (-1, -2))


# ---------------------------------------------------------------------------
# Classical expansions
# ---------------------------------------------------------------------------


def test_delta_expansion():
    d = classical_qexp("delta", 3)
    assert d.leading == 1
    assert d.coeffs == (1, -24, 252)


def test_delta_tau_values():
    d = classical_qexp("delta", 10)
    # Ramanujan tau
    assert d.leading == 1
    assert d.coeffs[5 - 1] == 4830
    assert d.coeffs[10 - 1] == -115920


def test_e4_e6():
    e4 = classical_qexp("e4", 2)
    assert e4.coeffs == (1, 240, 2160)
    e6 = classical_qexp("e6", 2)
    assert e6.coeffs == (1, -504, -16632)


def test_j_expansion():
    j = classical_qexp("j", 2)
    assert j.leading == -1
    assert j.coeffs == (1, 744, 196884, 21493760)


def test_j_integrality_to_200():
    j = classical_qexp("j", 200)
    assert j.leading == -1
    assert j.coeffs[:3] == (1, 744, 196884)
    assert len(j.coeffs) == 202
    assert all(type(c) is int for c in j.coeffs)


def test_classical_qexp_errors():
    with pytest.raises(ValueError):
        classical_qexp("theta", 5)
    with pytest.raises(ValueError):
        classical_qexp("delta", 0)


# ---------------------------------------------------------------------------
# FourierForm tables
# ---------------------------------------------------------------------------


def _desk_lattice():
    fld = make_field(7)
    sl = SplitLattice(PosLattice(()), make_ideal_lattice(fld, "unit"))
    return fld, sl


def test_fourier_form_basic():
    fld, sl = _desk_lattice()
    form = FourierForm(sl, {(0, Fraction(-1)): 1, (0, Fraction(0)): 3})
    assert form.coeffs == {(0, Fraction(-1)): 1, (0, Fraction(0)): 3}
    assert m_max(form) == 1


def test_integrality_violation():
    fld, sl = _desk_lattice()
    with pytest.raises(IntegralityViolation):
        FourierForm(sl, {(0, Fraction(-1)): Fraction(1, 2)})


def test_support_congruence_violation():
    fld, sl = _desk_lattice()
    # eta 1 has Q = 5/7; an integer m breaks m + Q(eta) in Z
    assert sl.etas[1].q_mod_one == Fraction(5, 7)
    with pytest.raises(SupportCongruenceViolation):
        FourierForm(sl, {(1, Fraction(-1)): 1})
    # the congruent index m = -Q(eta) mod 1, shifted negative, is accepted
    FourierForm(sl, {(1, Fraction(2, 7) - 1): 1})


def test_label_range():
    fld, sl = _desk_lattice()
    with pytest.raises(ValueError):
        FourierForm(sl, {(99, Fraction(-1)): 1})


def test_a_non_integer_label_is_refused():
    # int(1.5) would read it as eta 1, whose congruent m gives a report
    fld = make_field(7)
    sl = SplitLattice(PosLattice(((2,),)), make_ideal_lattice(fld, "unit"))
    with pytest.raises(ValueError, match="eta label=1.5 is not an integer"):
        FourierForm(sl, {(1.5, Fraction(-19, 28)): 1})


def test_m_max_holomorphic():
    fld, sl = _desk_lattice()
    form = FourierForm(sl, {(0, Fraction(0)): 2})
    assert m_max(form) == 0


def test_save_load_round_trip(tmp_path):
    fld, sl = _desk_lattice()
    path = tmp_path / "form.txt"
    path.write_text("d=7\n0 -2/1 3/1  # principal part\n\n1 2/7 1/2\n")
    loaded = load_form(path, sl)
    assert loaded.coeffs == {
        (0, Fraction(-2)): 3, (1, Fraction(2, 7)): Fraction(1, 2)
    }


def test_load_form_errors(tmp_path):
    fld, sl = _desk_lattice()
    path = tmp_path / "bad.txt"
    path.write_text("0 -1\n")
    with pytest.raises(ValueError):
        load_form(path, sl)
    path.write_text("0 -1/1 1/1\n0 -1/1 2/1\n")
    with pytest.raises(ValueError):
        load_form(path, sl)


# Every message as the Fraction-keyed table wrote it, for m and c given as
# an int, a str "a/b" or a Fraction; eta 1 of the desk lattice has
# Q(eta) = 5/7 mod 1 and eta 2 has 6/7.
VIOLATIONS = [
    ({(0, -1): "1/2"}, IntegralityViolation,
     "c_0(-1) = 1/2 must be an integer for m <= 0"),
    ({(0, "-2/2"): Fraction(3, 2)}, IntegralityViolation,
     "c_0(-1) = 3/2 must be an integer for m <= 0"),
    ({(0, Fraction(0)): "-5/3"}, IntegralityViolation,
     "c_0(0) = -5/3 must be an integer for m <= 0"),
    ({(0, 0): Fraction(1, 2)}, IntegralityViolation,
     "c_0(0) = 1/2 must be an integer for m <= 0"),
    ({(1, "-9/7"): "1/2"}, IntegralityViolation,
     "c_1(-9/7) = 1/2 must be an integer for m <= 0"),
    ({(1, -1): 1}, SupportCongruenceViolation,
     "c_1(-1) nonzero but -1 + Q(eta) = -2/7 is not an integer"),
    ({(1, "-3/7"): 2}, SupportCongruenceViolation,
     "c_1(-3/7) nonzero but -3/7 + Q(eta) = 2/7 is not an integer"),
    ({(1, Fraction(-3, 7)): -1}, SupportCongruenceViolation,
     "c_1(-3/7) nonzero but -3/7 + Q(eta) = 2/7 is not an integer"),
    ({(0, "1/7"): 1}, SupportCongruenceViolation,
     "c_0(1/7) nonzero but 1/7 + Q(eta) = 1/7 is not an integer"),
    ({(0, Fraction(2, 3)): "1/3"}, SupportCongruenceViolation,
     "c_0(2/3) nonzero but 2/3 + Q(eta) = 2/3 is not an integer"),
    ({(2, "-2/7"): 1}, SupportCongruenceViolation,
     "c_2(-2/7) nonzero but -2/7 + Q(eta) = 4/7 is not an integer"),
]


@pytest.mark.parametrize("coeffs, error, message", VIOLATIONS)
def test_violation_messages_are_unchanged(coeffs, error, message):
    fld, sl = _desk_lattice()
    with pytest.raises(error) as info:
        FourierForm(sl, coeffs)
    assert str(info.value) == message


@functools.cache
def _pool():
    return build_pool(borcherds_cm)


def _as(kind, x):
    """The rational x as an int (when integral), a str "a/b" or a Fraction."""
    if kind == 0 and x.denominator == 1:
        return int(x)
    if kind == 1:
        return f"{x.numerator}/{x.denominator}"
    return x


@st.composite
def pool_forms(draw):
    """A pool lattice index, a principal part by the corpus rule (up to three
    terms c_eta(m), m = -(Q(eta) mod 1) - {1, 2, 3}, and maybe a constant
    term on an eta with Q(eta) = 0 mod 1) as a Fraction dict, and the same
    table with each m and c written as an int, a str or a Fraction."""
    li = draw(st.integers(0, len(_pool()) - 1))
    sl = _pool()[li][1]
    coeffs = {}
    for _ in range(draw(st.integers(1, 3))):
        label = draw(st.integers(0, len(sl.etas) - 1))
        m = (-sl.etas[label].q_mod_one) % 1 - draw(st.integers(1, 3))
        coeffs[(label, m)] = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    zero_ok = [e.label for e in sl.etas if e.q_mod_one == 0]
    if zero_ok and draw(st.booleans()):
        coeffs[(draw(st.sampled_from(zero_ok)), Fraction(0))] = Fraction(
            draw(st.integers(-5, 5))
        )
    written = {
        (label, _as(draw(st.integers(0, 2)), m)): _as(draw(st.integers(0, 2)), c)
        for (label, m), c in coeffs.items()
    }
    return li, coeffs, written


@given(pool_forms())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_integer_terms_match_the_fraction_table(case):
    """A form given with int, str and Fraction entries on a pool lattice has
    the Fraction views, m_max and report of a form built from the Fraction
    dict on a second, fresh lattice object."""
    li, coeffs, written = case
    fld, sl = _pool()[li]
    fresh = SplitLattice(sl.plus, sl.minus, sl.basis)
    form = FourierForm(sl, written)
    ref = FourierForm(fresh, coeffs)
    nonzero = {k: c for k, c in coeffs.items() if c}
    assert form.coeffs == ref.coeffs == nonzero
    assert all(type(c) is Fraction for c in form.coeffs.values())
    assert all(type(c) is int for c in form.terms.values())
    negative = sorted(k for k in nonzero if k[1] < 0)
    assert m_max(form) == m_max(ref) == max(
        (-m for _, m in negative), default=Fraction(0)
    )
    assert log_psi_product(form, sl, fld) == log_psi_product(ref, fresh, fld)
