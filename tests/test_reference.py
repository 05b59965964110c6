"""The whole CM-value report against tests/reference.py, which computes it
from the definitions, on random glued lattices with L_+ of rank 0-3."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from borcherds_cm.arith import is_prime
from borcherds_cm.cmvalue import log_psi_product, phi_average
from borcherds_cm.forms import FourierForm
from borcherds_cm.lattice import PosLattice, SplitLattice, make_ideal_lattice
from borcherds_cm.quadfield import SPLIT, make_field
from reference import _det, reference_report
from test_cmvalue import _same_disc

# -d odd fundamental: d = 3 mod 4, squarefree, d > 3
D_VALUES = [
    d for d in range(7, 100, 4)
    if all(d % (p * p) for p in range(3, 10, 2))
]


def _check(fld, sl, coeffs, basis=None):
    """The library's report and phi_average equal the reference's; returns
    the reference."""
    form = FourierForm(sl, coeffs)
    ref = reference_report(
        sl.minus, sl.plus.gram, basis, coeffs, lambda k: sl.coset(k).num
    )
    report = log_psi_product(form, sl, fld)
    assert report.rational_part.terms == ref.rational_part
    assert (report.kzero_coeff, report.c00) == (ref.kzero_coeff, ref.c00)
    phi = phi_average(form, sl, fld)
    for value, want in ((phi.value, ref.phi_value), (phi.cycle_sum, ref.phi_cycle_sum)):
        assert (value.log_part.terms, value.kzero_multiple) == want
    return ref


def test_reference_reproduces_the_desk_instance():
    # criterion 6: d = 7, unit ideal, c_0(-1) = 1 gives phi_average = -4 log 7
    fld = make_field(7)
    sl = SplitLattice(PosLattice(()), make_ideal_lattice(fld, "unit"))
    ref = _check(fld, sl, {(0, Fraction(-1)): 1})
    assert ref.phi_value == ({7: -4}, 0)


def test_reference_reproduces_the_same_discriminant_report_d23():
    fld, sl = _same_disc(23, "prime:2")
    ref = _check(fld, sl, {(0, Fraction(-1)): 1}, sl.basis)
    assert ref.rational_part == {5: 36, 7: 24, 11: 8, 17: 4, 19: 4, 23: 2}
    assert (ref.kzero_coeff, ref.c00) == (0, 0)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_reports_match_the_reference(data):
    d = data.draw(st.sampled_from(D_VALUES), label="d")
    fld = make_field(d)
    split = [p for p in range(2, 14) if is_prime(p) and fld.splitting(p) == SPLIT]
    spec = data.draw(st.sampled_from(["unit"] + [f"prime:{p}" for p in split]))
    minus = make_ideal_lattice(fld, spec)
    n = data.draw(st.integers(0, 3), label="rank")
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = data.draw(st.sampled_from([2, 4, 6]))
        for j in range(i):
            gram[i][j] = gram[j][i] = data.draw(st.integers(-1, 1))
    basis = None
    if n and data.draw(st.booleans(), label="glued"):
        # glue along v = e_1 / p + mu_- for mu_- of order p in L_-^v/L_-,
        # with q(mu_-) = a/p: L_+ has (e_1, e_1) = 2ps, s = -a mod p, and p
        # divides (e_1, e_j), so e_1 / p is in L_+^v and Q(v) = (s + a)/p
        # is an integer
        p = data.draw(st.sampled_from(fld.ramified_primes), label="p")
        mu = minus.coset(d // p)
        s = -mu.q_mod_one.numerator % p + p * data.draw(st.integers(0, 1))
        gram[0][0] = 2 * p * s
        for j in range(1, n):
            gram[0][j] = gram[j][0] = p * data.draw(st.integers(-1, 1))
        v = (Fraction(1, p),) + (0,) * (n - 1) + mu.minus
        basis = (v,) + tuple(
            tuple(int(i == j) for j in range(n + 2)) for i in range(1, n + 2)
        )
    # positive definite: every leading minor is positive
    assume(all(_det([r[:k] for r in gram[:k]]) > 0 for k in range(1, n + 1)))
    sl = SplitLattice(PosLattice(gram), minus, basis)
    coeffs = {}
    for _ in range(data.draw(st.integers(1, 3), label="terms")):
        label = data.draw(st.integers(0, sl.order - 1), label="eta")
        m = -sl.coset(label).q_mod_one % 1 - data.draw(st.integers(1, 2))
        coeffs[(label, m)] = data.draw(st.sampled_from([-2, -1, 1, 2]))
    if data.draw(st.booleans(), label="constant term"):
        coeffs[(0, Fraction(0))] = data.draw(st.integers(-3, 3))
    _check(fld, sl, coeffs, basis)
