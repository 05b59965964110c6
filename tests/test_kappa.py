import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from borcherds_cm.acceptance import D_SET
from borcherds_cm.arith import FactoredLog, ZERO_LOG, is_prime
from borcherds_cm.kappa import KAPPA_ZERO, KappaValue, kappa_at, kappa_positive
from borcherds_cm.lattice import (
    Coset,
    PosLattice,
    SplitLattice,
    UnsupportedLatticeError,
    enumerate_dual_cosets,
    make_ideal_lattice,
)
from borcherds_cm.locwhit import eisenstein_deriv_coeff
from borcherds_cm.quadfield import SPLIT, UnsupportedDiscriminantError, make_field


def _mu(lat, label):
    return next(c for c in enumerate_dual_cosets(lat) if c.label == label)


def test_kappa_value_algebra():
    a = KappaValue(FactoredLog({7: 1}), Fraction(1, 2))
    b = KappaValue(FactoredLog({7: -1}), Fraction(1, 2))
    s = a + b
    assert s.log_part == ZERO_LOG and s.kzero_multiple == 1
    assert (2 * a).log_part == FactoredLog({7: 2})
    assert (-a + a).is_zero()
    assert KAPPA_ZERO.is_zero()
    assert "k0(0)" in s.render()


# scalars whose numerators and denominators share factors with the
# denominators and numerators of the values below
scalars = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@given(
    st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=4,
    ),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    scalars,
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scaling_matches_a_fraction_reference(terms, kzero, c):
    """KappaValue and FactoredLog scaled by an int or a Fraction (negative
    or zero too), by `*` and by `_scaled` on its numerator and denominator,
    equal the values the validating constructors build from Fraction
    products: the same canonical integers, ==, hash and repr."""
    value = KappaValue(FactoredLog(terms), kzero)
    c = Fraction(c)
    want = KappaValue(
        FactoredLog({p: c * e for p, e in terms.items()}), c * kzero
    )
    got = [c * value, value * c, value._scaled(c.numerator, c.denominator)]
    if c.denominator == 1:
        got.append(int(c) * value)
    for v in got:
        flog = v.log_part
        assert type(flog._den) is int and flog._den >= 1
        assert all(type(n) is int and n != 0 for n in flog._num.values())
        assert math.gcd(flog._den, *flog._num.values()) == 1
        if not flog._num:
            assert flog._den == 1
        for x, y in ((v, want), (flog, want.log_part)):
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert v.kzero_multiple == want.kzero_multiple
        assert type(v.kzero_multiple) is Fraction
    flog = FactoredLog(terms)
    assert flog._scaled(c.numerator, c.denominator) == want.log_part
    assert (-value).log_part == FactoredLog({p: -e for p, e in terms.items()})


def test_kappa_value_repr_eq_and_hash():
    a = KappaValue(FactoredLog({7: 1}), Fraction(1, 2))
    assert repr(a) == (
        "KappaValue(log_part=FactoredLog({7: Fraction(1, 1)}), "
        "kzero_multiple=Fraction(1, 2))"
    )
    assert repr(KAPPA_ZERO) == (
        "KappaValue(log_part=FactoredLog({}), kzero_multiple=Fraction(0, 1))"
    )
    assert KappaValue(ZERO_LOG) == KAPPA_ZERO
    assert hash(a) == hash((a.log_part, a.kzero_multiple))
    assert a != (a.log_part, a.kzero_multiple)
    assert {a: 1}[KappaValue(FactoredLog({7: 1}), Fraction(1, 2))] == 1


def test_kappa_d7_reference_values():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = _mu(lat, 0)
    assert kappa_positive(fld, lat, mu0, 1).log_part == FactoredLog({7: -2})
    assert kappa_positive(fld, lat, mu0, 2).log_part == FactoredLog({7: -4})
    assert kappa_positive(fld, lat, mu0, 3).log_part == FactoredLog({3: -4})
    assert kappa_positive(fld, lat, mu0, 4).log_part == FactoredLog({7: -6})


def test_kappa_fractional_off_coset_is_zero():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = _mu(lat, 0)
    assert kappa_positive(fld, lat, mu0, Fraction(1, 7)).is_zero()
    assert kappa_positive(fld, lat, mu0, Fraction(2, 7)).is_zero()
    # off the Q(mu) + Z support at a ramified prime
    mu1 = _mu(lat, 1)
    assert kappa_positive(fld, lat, mu1, Fraction(1, 7)).is_zero()


def test_kappa_at_zero_and_negative():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = _mu(lat, 0)
    mu1 = _mu(lat, 1)
    k = kappa_at(fld, lat, mu0, 0)
    assert k.log_part == ZERO_LOG and k.kzero_multiple == 1
    assert kappa_at(fld, lat, mu1, 0).is_zero()
    assert kappa_at(fld, lat, mu0, -1).is_zero()
    assert kappa_at(fld, lat, mu0, Fraction(-1, 7)).is_zero()


def test_kappa_norm_twist_nonprincipal_ideal():
    # d = 15, norm-2 prime ideal: the genus twist chi_3(2) = -1 changes the
    # eta factors; the oracle fixes the value at -log 3
    fld = make_field(15)
    lat = make_ideal_lattice(fld, "prime:2")
    mu6 = _mu(lat, 6)
    t = Fraction(1, 5)
    val = kappa_positive(fld, lat, mu6, t)
    assert val.log_part == FactoredLog({3: -1})
    oracle = eisenstein_deriv_coeff(fld, lat, mu6, t)
    assert oracle.flag is None
    assert oracle.value == val.log_part


def test_kappa_oracle_agreement_small_sweep():
    for d in (7, 15):
        fld = make_field(d)
        ideals = ["unit"] + (["prime:2"] if fld.h > 1 else [])
        for ideal in ideals:
            lat = make_ideal_lattice(fld, ideal)
            cosets = enumerate_dual_cosets(lat)
            for a in range(1, 4 * d + 1):
                t = Fraction(a, d)
                for mu in cosets:
                    formula = kappa_positive(fld, lat, mu, t)
                    oracle = eisenstein_deriv_coeff(fld, lat, mu, t)
                    assert oracle.flag is None
                    assert formula.log_part == oracle.value, (d, ideal, mu.label, t)


# SHA-256 of one repr((d, ideal, mu.label, t, kappa, oracle, flag)) line per
# tuple of the criterion-1 sweep at t_multiplier=20, in sweep order; kappa and
# oracle are serialized FactoredLogs.  Criterion 1 only checks that the two
# agree, so this also catches a shared helper that moves both the same way.
SWEEP_20_DIGEST = "fbbcb40bc29edcd6a12d5d36d6b724c7489bc8ec34d3dfe7d754d7451bee3505"


def test_kappa_sweep_pinned():
    lines = []
    for d in D_SET:
        fld = make_field(d)
        ideals = ["unit"] + (["prime:2"] if fld.h > 1 else [])
        for ideal in ideals:
            lat = make_ideal_lattice(fld, ideal)
            cosets = enumerate_dual_cosets(lat)
            for a in range(1, 20 * d + 1):
                t = Fraction(a, d)
                for mu in cosets:
                    formula = kappa_positive(fld, lat, mu, t)
                    oracle = eisenstein_deriv_coeff(fld, lat, mu, t)
                    record = (d, ideal, mu.label, t, formula.log_part.serialize(),
                              oracle.value.serialize(), oracle.flag)
                    lines.append(repr(record))
    assert len(lines) == 33560
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SWEEP_20_DIGEST


def _odd_fundamental(d):
    try:
        make_field(d)
    except UnsupportedDiscriminantError:
        return False
    return True


# odd fundamental d <= 1000 that the fixed sweep of criterion 1 leaves out
RANDOM_D = [d for d in range(7, 1001, 4) if d not in D_SET and _odd_fundamental(d)]


@st.composite
def lattice_cases(draw):
    """(d, ideal, ((mu label, t), ...)): five (mu, t) on one ideal lattice
    of a field that criterion 1 leaves out."""
    d = draw(st.sampled_from(RANDOM_D), label="d")
    fld = make_field(d)
    split = [p for p in range(2, 60) if is_prime(p) and fld.splitting(p) == SPLIT]
    ideal = draw(st.sampled_from(["unit"] + [f"prime:{p}" for p in split]), label="ideal")
    cosets = enumerate_dual_cosets(make_ideal_lattice(fld, ideal))
    # t drawn from the support Q(mu) + Z, where kappa can be nonzero, as a/d,
    # or as a/b with b = 1, d*q (q^2 in the denominator at a ramified q) or
    # any b <= 4d (a negative valuation at an unramified prime)
    denominators = st.one_of(
        st.just(1),
        st.sampled_from([d * q for q in fld.ramified_primes]),
        st.integers(min_value=1, max_value=4 * d),
    )
    cases = []
    for _ in range(5):
        mu = draw(st.sampled_from(cosets), label="mu")
        kind = draw(st.sampled_from(["support", "a/d", "a/b"]), label="kind")
        if kind == "support":
            t = mu.q_mod_one + draw(st.integers(min_value=1, max_value=200), label="n")
        else:
            b = d if kind == "a/d" else draw(denominators, label="b")
            t = Fraction(draw(st.integers(min_value=1, max_value=200 * d), label="a"), b)
        cases.append((mu.label, t))
    return d, ideal, tuple(cases)


# three ramified primes, all with mu_q = 0 on the zero coset (r = 3): the
# only obstruction is ramified (t = 2) or inert (t = 17 and 33), or there
# are three, two ramified and one inert (t = 23 at d = 231, 11 at d = 399);
# at t = 1/2 no integral ideal has norm dt
@example((231, "unit", ((0, Fraction(2)), (0, Fraction(17)), (0, Fraction(23)),
                        (0, Fraction(1, 2)))))
@example((399, "unit", ((0, Fraction(2)), (0, Fraction(33)), (0, Fraction(11)))))
@given(lattice_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_kappa_matches_the_oracle_on_random_fields(case):
    d, ideal, cases = case
    fld = make_field(d)
    lat = make_ideal_lattice(fld, ideal)
    for label, t in cases:
        mu = _mu(lat, label)
        oracle = eisenstein_deriv_coeff(fld, lat, mu, t)
        assert oracle.flag is None, (d, ideal, label, t)
        assert kappa_positive(fld, lat, mu, t).log_part == oracle.value, (d, ideal, label, t)


def test_kappa_requires_positive_t():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = _mu(lat, 0)
    with pytest.raises(ValueError):
        kappa_positive(fld, lat, mu0, 0)


def test_kappa_rejects_non_ideal_lattice():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = _mu(lat, 0)

    class NotAnIdeal:
        # looks like an ideal lattice but is not one
        field, norm = fld, 1

    for bad in (NotAnIdeal(), None):
        with pytest.raises(UnsupportedLatticeError):
            kappa_positive(fld, bad, mu0, 1)


def test_oracle_rejects_non_ideal_lattice():
    # the oracle shares kappa's input check, so a split lattice (which has
    # no field of its own) is refused by name, not by a missing attribute
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    mu0 = _mu(lat, 0)
    split = SplitLattice(PosLattice(((2,),)), lat)
    for bad in (split, None):
        for call in (kappa_positive, eisenstein_deriv_coeff):
            with pytest.raises(
                UnsupportedLatticeError,
                match="kappa formulas require an integral-ideal lattice",
            ):
                call(fld, bad, mu0, 1)


def test_kappa_refuses_a_coset_of_another_lattice():
    # the prime:2 cosets of d = 15 carry the unit ideal's labels, and read
    # as the unit ideal's cosets they would give that lattice's values, with
    # which the oracle would agree
    fld = make_field(15)
    unit = make_ideal_lattice(fld, "unit")
    prime2 = make_ideal_lattice(fld, "prime:2")
    foreign = [
        mu for mu in enumerate_dual_cosets(prime2) if mu != _mu(unit, mu.label)
    ]
    assert len(foreign) == 14
    for mu in foreign:
        match = f"coset label {mu.label} is not a dual coset"
        for call in (kappa_positive, kappa_at, eisenstein_deriv_coeff):
            with pytest.raises(ValueError, match=match):
                call(fld, unit, mu, mu.q_mod_one + 1)
        with pytest.raises(ValueError, match=match):
            kappa_at(fld, unit, mu, 0)
    # the lattice's own cosets, and one equal to them, are its cosets
    mu = _mu(unit, 6)
    twin = Coset(mu.label, mu.num, mu.den, mu.q_mod_one)
    assert kappa_at(fld, unit, twin, 6) == kappa_at(fld, unit, mu, 6)
    with pytest.raises(ValueError, match="coset label 15 "):
        kappa_at(fld, unit, Coset(15, (0, 0), 15, Fraction(0)), 0)
    # the lattice and field checks come first
    with pytest.raises(ValueError, match="field d=7"):
        kappa_positive(make_field(7), unit, foreign[0], 1)
