import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from borcherds_cm.lattice import (
    Coset,
    IdealLattice,
    InconsistentEmbeddingError,
    NotAnIdealError,
    PosLattice,
    SplitLattice,
    _smith_cosets,
    _transpose,
    check_coset,
    coset_of_element,
    enumerate_dual_cosets,
    glue,
    load_lattice,
    make_ideal_lattice,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from borcherds_cm import lattice
from borcherds_cm.arith import is_prime
from borcherds_cm.cmvalue import contraction_coeffs, log_psi_product
from borcherds_cm.forms import FourierForm
from borcherds_cm.kappa import kappa_at
from borcherds_cm.quadfield import INERT, SPLIT, UnsupportedDiscriminantError, make_field


# ---------------------------------------------------------------------------
# Smith normal form and quotients
# ---------------------------------------------------------------------------


def test_snf_index_two_example():
    M = ((2, 0), (1, 1))
    diag, U, V = smith_normal_form(M)
    assert diag == (1, 2)
    assert mat_mul(mat_mul(U, M), V) == ((1, 0), (0, 2))


small_mats = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
)


@given(small_mats)
@settings(max_examples=150, deadline=None)
def test_snf_properties(M):
    M = tuple(map(tuple, M))
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assume(det != 0)
    diag, U, V = smith_normal_form(M)
    assert all(x > 0 for x in diag)
    assert diag[1] % diag[0] == 0
    assert diag[0] * diag[1] == abs(det)
    prod = mat_mul(mat_mul(U, M), V)
    assert prod == ((diag[0], 0), (0, diag[1]))
    for W in (U, V):
        assert abs(W[0][0] * W[1][1] - W[0][1] * W[1][0]) == 1


def _label(y, diag, V):
    """The canonical label of an integer coordinate vector y of
    Z^k / Z^k M, U M V = diag(d_i): the mixed-radix number whose digits
    are (y V)_i mod d_i."""
    label = 0
    for wi, di in zip(mat_vec(y, V), diag):
        label = label * di + wi % di
    return label


def _check_quotient_labels(M):
    """_smith_cosets makes the coset of Z^k / Z^k M with each label: its
    numerators z over D give integer coordinates y = z M / D whose label is
    the one asked for.  Returns the order D."""
    diag, U, V = smith_normal_form(M)
    order = math.prod(diag)
    coset = _smith_cosets(diag, U, order)
    reps = [coset(label).num for label in range(order)]
    assert len(reps) == order
    assert reps[0] == (0,) * len(M)
    for index, z in enumerate(reps):
        y = mat_vec(z, M)
        assert all(x % order == 0 for x in y)
        assert _label(tuple(x // order for x in y), diag, V) == index
    for row in M:
        assert _label(row, diag, V) == 0
    return order


def test_integer_quotient_labels():
    # the 3x3 matrix has SNF diag (1, 2, 6)
    for M, order in ((((2, 0), (1, 3)), 6),
                     (((1, 0, 0), (1, 2, 2), (1, 2, 8)), 12)):
        assert _check_quotient_labels(M) == order


@given(small_mats)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_integer_quotient_labels_on_random_matrices(M):
    M = tuple(map(tuple, M))
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assume(det != 0)
    assert _check_quotient_labels(M) == abs(det)


@st.composite
def multi_digit_grams(draw):
    """Nonsingular symmetric integer 3x3 matrices with at least two Smith
    digits > 1: P diag(g S, m) P^T for a nonsingular 2x2 block g S with
    g >= 2, m != 0 and a unimodular P, so the g-part of the group has rank
    two."""
    g = draw(st.integers(2, 4))
    a, b, c = (draw(st.integers(-4, 4)) for _ in range(3))
    assume(a * c != b * b)
    m = draw(st.integers(-6, 6).filter(bool))
    G0 = ((g * a, g * b, 0), (g * b, g * c, 0), (0, 0, m))
    x, y, z = (draw(st.integers(-2, 2)) for _ in range(3))
    P = ((1, x, y), (0, 1, z), (0, 0, 1))
    return mat_mul(mat_mul(P, G0), _transpose(P))


@given(multi_digit_grams())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cosets_from_their_label_match_the_definition(G):
    # the routine decodes each label; the definition takes the Smith digits
    # in itertools.product order: z = w rows, q = (z G z^T mod 2D^2) / 2D^2
    diag, U, V = smith_normal_form(G)
    D = math.prod(diag)
    assert sum(di > 1 for di in diag) >= 2
    rows = tuple(tuple(D // di * x for x in row) for di, row in zip(diag, U))
    coset = _smith_cosets(diag, U, D, G)
    digits = list(itertools.product(*map(range, diag)))
    assert len(digits) == D
    for label, w in enumerate(digits):
        mu = coset(label)
        z = tuple(sum(w[i] * rows[i][j] for i in range(3)) for j in range(3))
        assert (mu.label, mu.num, mu.den) == (label, z, D)
        zG = tuple(sum(z[i] * G[i][j] for i in range(3)) for j in range(3))
        q = sum(a * b for a, b in zip(zG, z)) % (2 * D * D)
        assert mu.q_mod_one == Fraction(q, 2 * D * D)
        assert _label(tuple(x // D for x in zG), diag, V) == label


# ---------------------------------------------------------------------------
# Ideal lattices
# ---------------------------------------------------------------------------


def _zero_at(mu, n):
    """Whether n divides both a-basis numerators of an ideal-lattice coset:
    mu_q = 0 for a ramified prime n = q, and mu = 0 for n = d."""
    return all(x % n == 0 for x in mu.num)


def test_unit_ideal_d7():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "unit")
    assert lat.norm == 1
    assert lat.gram == ((-2, -1), (-1, -4))
    cosets = enumerate_dual_cosets(lat)
    assert len(cosets) == 7
    assert cosets[0].label == 0 and _zero_at(cosets[0], 7)
    for c in cosets:
        assert 0 <= c.q_mod_one < 1
        assert c.q_mod_one.denominator in (1, 7)


def test_prime_ideal_norms():
    fld = make_field(7)
    assert make_ideal_lattice(fld, "prime:2").norm == 2
    fld15 = make_field(15)
    assert make_ideal_lattice(fld15, "prime:2").norm == 2
    assert make_ideal_lattice(fld15, "prime:3").norm == 3
    with pytest.raises(NotAnIdealError):
        make_ideal_lattice(fld15, "prime:7")  # 7 inert in Q(sqrt(-15))


def _scan_prime_basis(d, p):
    """The basis of (p, omega - r) for the smallest r in range(p) with
    r^2 - r + (1+d)/4 = 0 mod p, by a linear scan; None when there is none."""
    c = (1 + d) // 4
    r = next((r for r in range(p) if (r * r - r + c) % p == 0), None)
    return None if r is None else ((p, 0), (-r, 1))


def test_prime_ideal_basis_matches_the_linear_scan():
    for d in (7, 15, 23, 71):
        fld = make_field(d)
        for p in filter(is_prime, range(2000)):
            expected = _scan_prime_basis(d, p)
            if expected is None:
                with pytest.raises(NotAnIdealError, match=f"{p} is inert"):
                    make_ideal_lattice(fld, f"prime:{p}")
            else:
                assert make_ideal_lattice(fld, f"prime:{p}").basis == expected


def test_large_prime_ideals_need_no_scan():
    fld = make_field(7)
    start = time.perf_counter()
    with pytest.raises(NotAnIdealError, match="inert"):
        make_ideal_lattice(fld, "prime:1000000000039")
    p = next(p for p in range(10**12 + 1, 10**12 + 1000, 2)
             if is_prime(p) and fld.splitting(p) == SPLIT)
    lat = make_ideal_lattice(fld, f"prime:{p}")
    assert time.perf_counter() - start < 1
    r = -lat.basis[1][0]
    assert lat.norm == p and (r * r - r + 2) % p == 0
    assert 0 <= r < (1 - r) % p  # the smaller of the two roots


def test_basis_spec_parsing():
    fld = make_field(7)
    lat = make_ideal_lattice(fld, "basis:2,0;0,2")
    assert lat.norm == 4


def test_non_string_ideal_spec_names_the_forms():
    fld = make_field(15)
    for spec in (("prime", 3), ((2, 0), (0, 2)), 3):
        with pytest.raises(
            NotAnIdealError, match="is not one of unit, prime:p or basis:a,b;c,d"
        ):
            make_ideal_lattice(fld, spec)


def test_not_an_ideal_errors():
    fld = make_field(7)
    with pytest.raises(NotAnIdealError):
        IdealLattice(fld, ((1, 0), (Fraction(1, 2), 1)))  # not in O_k
    with pytest.raises(NotAnIdealError):
        IdealLattice(fld, ((1, 0), (0, 2)))  # not omega-stable
    with pytest.raises(NotAnIdealError):
        IdealLattice(fld, ((1, 0), (2, 0)))  # dependent


def test_coset_round_trip():
    fld = make_field(15)
    for ideal in ("unit", "prime:2"):
        lat = make_ideal_lattice(fld, ideal)
        cosets = enumerate_dual_cosets(lat)
        for mu in cosets:
            num = tuple(int(c * fld.d) for c in mu.minus)
            again = coset_of_element(lat, num, fld.d)
            assert again.label == mu.label
            # any denominator of the element gives the same coset
            assert coset_of_element(lat, tuple(3 * x for x in num), 3 * fld.d) is again
            # shifting by a lattice vector keeps the label, and every field
            # callers read is the same when computed from the shifted element
            shifted = tuple(c + k for c, k in zip(mu.minus, (1, -2)))
            shifted_num = tuple(int(c * fld.d) for c in shifted)
            canonical = coset_of_element(lat, shifted_num, fld.d)
            assert canonical.label == mu.label
            assert canonical is cosets[mu.label]
            G, d = lat.gram, fld.d
            shifted_q = sum(
                shifted_num[i] * G[i][j] * shifted_num[j]
                for i in range(2) for j in range(2)
            )
            fresh = Coset(
                mu.label, shifted_num, d,
                Fraction(shifted_q % (2 * d * d), 2 * d * d),
            )
            assert fresh.q_mod_one == canonical.q_mod_one
            assert _zero_at(fresh, d) == _zero_at(canonical, d)
            for q in fld.ramified_primes:
                assert _zero_at(fresh, q) == _zero_at(canonical, q)
    with pytest.raises(ValueError, match="not in the dual lattice"):
        coset_of_element(lat, (1, 0), 2)


def _odd_fundamental(d):
    try:
        make_field(d)
    except UnsupportedDiscriminantError:
        return False
    return True


def _norm(x, d):
    """N(u + v omega) = u^2 + uv + (1+d)/4 v^2, for omega = (1 + sqrt(-d))/2."""
    u, v = x
    return u * u + u * v + Fraction(1 + d, 4) * v * v


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_dual_coset_q_is_minus_norm_over_na(data):
    d = data.draw(st.sampled_from([d for d in range(7, 1001, 4) if _odd_fundamental(d)]), label="d")
    fld = make_field(d)
    primes = [p for p in (2, 3, 5, 7, 11) if fld.splitting(p) != INERT]
    ideal = data.draw(st.sampled_from(["unit"] + [f"prime:{p}" for p in primes]), label="ideal")
    lat = make_ideal_lattice(fld, ideal)
    cosets = enumerate_dual_cosets(lat)
    assert len(cosets) == d
    for mu in cosets:
        # the element of k with a-basis coordinates mu.minus
        x = tuple(sum(c * row[j] for c, row in zip(mu.minus, lat.basis)) for j in range(2))
        assert mu.q_mod_one == (-_norm(x, d) / lat.norm) % 1


def test_q_mod_one_detects_the_local_and_global_zero():
    # q is nondegenerate on the cyclic L^v/L of squarefree order d, so
    # mu_q = 0 exactly when q does not divide den q(mu), and mu = 0 exactly
    # when q(mu) = 0; checked against the numerators on every coset of the
    # unit ideal and of each prime ideal of norm p < 40, for d < 400
    lattices = cosets = 0
    for d in range(3, 400, 4):
        if not _odd_fundamental(d):
            continue
        fld = make_field(d)
        specs = ["unit"] + [
            f"prime:{p}" for p in range(2, 40)
            if is_prime(p) and fld.splitting(p) != INERT
        ]
        for spec in specs:
            lat = make_ideal_lattice(fld, spec)
            lattices += 1
            for mu in enumerate_dual_cosets(lat):
                cosets += 1
                den = mu.q_mod_one.denominator
                for q in fld.ramified_primes:
                    assert (den % q != 0) == _zero_at(mu, q), (d, spec, mu)
                assert (mu.q_mod_one == 0) == (mu.label == 0) == _zero_at(mu, d)
    assert (lattices, cosets) == (613, 123519)


def test_local_zero_crt_pattern_d15():
    # D^{-1}/O_k = (1/3) x (1/5) components: 5 cosets vanish at 3,
    # 3 vanish at 5, and exactly one (zero) vanishes at both
    fld = make_field(15)
    lat = make_ideal_lattice(fld, "unit")
    cosets = enumerate_dual_cosets(lat)
    at3 = sum(1 for c in cosets if _zero_at(c, 3))
    at5 = sum(1 for c in cosets if _zero_at(c, 5))
    both = sum(1 for c in cosets if _zero_at(c, 3) and _zero_at(c, 5))
    assert (at3, at5, both) == (5, 3, 1)


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ideal_cosets_from_their_label_match_the_definition(data):
    # coset k is k g / d, g = U[1] of the Smith form diag(1, d) of the
    # Gram matrix: its label from the Smith form is k, and its q is
    # Q(k g / d) mod 1 from the Gram matrix
    d = data.draw(
        st.sampled_from([d for d in range(3, 2000, 4) if _odd_fundamental(d)]),
        label="d",
    )
    fld = make_field(d)
    primes = sorted(
        {p for p in range(2, 60) if is_prime(p) and fld.splitting(p) != INERT}
        | set(fld.ramified_primes)
    )
    p = data.draw(st.sampled_from(primes), label="p")
    c = data.draw(st.integers(1, 6), label="c")
    for spec in ("unit", f"prime:{p}", f"basis:{c},0;0,{c}"):
        lat = make_ideal_lattice(fld, spec)
        G = lat.gram
        diag, U, V = smith_normal_form(G)
        assert diag == (1, d)
        cosets = enumerate_dual_cosets(lat)
        assert len(cosets) == d
        for k, mu in enumerate(cosets):
            z = mu.num
            zG = mat_vec(z, G)
            q = sum(a * b for a, b in zip(zG, z)) % (2 * d * d)
            assert (mu.label, z, mu.den) == (k, (k * U[1][0], k * U[1][1]), d)
            assert mu.q_mod_one == Fraction(q, 2 * d * d)
            assert _label(tuple(x // d for x in zG), diag, V) == k
        # the linear form gives k back from k g plus any lattice vector
        g = lat.coset(1).num
        k = data.draw(st.integers(0, d - 1), label="k")
        a, b = (data.draw(st.integers(-50, 50), label="shift") for _ in range(2))
        num = (k * g[0] + a * d, k * g[1] + b * d)
        assert coset_of_element(lat, num, d) is lat.coset(k)
        for label in (-1, d):
            with pytest.raises(ValueError, match=f"no dual coset with label {label}"):
                lat.coset(label)
            mu = Coset(label, (label * g[0], label * g[1]), d, Fraction(0))
            with pytest.raises(ValueError, match=f"coset label {label} is not"):
                check_coset(fld, lat, mu)


def test_one_kappa_at_a_large_ideal_lattice_makes_one_coset(monkeypatch):
    # the lattice makes a coset only when asked: d = 99991 is just below
    # MAX_DUAL_ORDER, and one kappa_at makes one Coset, not d of them
    made = []

    def counting(*args):
        made.append(args[0])
        return Coset(*args)

    monkeypatch.setattr(lattice, "Coset", counting)
    fld = make_field(99991)
    lat = make_ideal_lattice(fld, "unit")
    value = kappa_at(fld, lat, lat.coset(12345), Fraction(171799, 99991))
    assert value.log_part.serialize() == "171799^(-2/205)"
    assert made == [12345]


def test_one_report_at_a_large_split_lattice_makes_few_cosets(monkeypatch):
    # |L^v/L| = 7 * 14284 = 99988 is just below MAX_DUAL_ORDER; a report on
    # the form c_0(-1) = 1 makes the glue vector 0, eta 0 and the ideal
    # coset 0, not the 99988 etas
    made = []

    def counting(*args):
        made.append(args[0])
        return Coset(*args)

    monkeypatch.setattr(lattice, "Coset", counting)
    fld = make_field(7)
    sl = SplitLattice(PosLattice(((14284,),)), make_ideal_lattice(fld, "unit"))
    assert sl.order == 99988
    report = log_psi_product(FourierForm(sl, {(0, -1): 1}), sl, fld)
    assert report.rational_part.serialize() == "7^(2/1)"
    assert report.kzero_coeff == 0
    assert made == [0, 0, 0]
    for label in (-1, sl.order):
        with pytest.raises(ValueError, match=f"no dual coset with label {label}"):
            sl.coset(label)
    assert made == [0, 0, 0]


@pytest.mark.parametrize("kind", ["ideal", "split"])
def test_a_coset_label_must_be_a_whole_number(kind):
    # 1.5 and 2.0 reached the coset routine, which raised a bare TypeError
    # on 1.5, and True was kept as a Coset labelled True
    fld = make_field(15)
    lat = make_ideal_lattice(fld, "prime:2")
    if kind == "split":
        lat = SplitLattice(PosLattice(((2, 1), (1, 8))), lat)
    for label in (1.5, "3", None):
        with pytest.raises(ValueError, match=f"label={label!r} is not an integer"):
            lat.coset(label)
    two = lat.coset(2.0)
    one = lat.coset(True)
    assert (type(two.label), two.label, type(one.label), one.label) == (int, 2, int, 1)
    assert two is lat.coset(2) and one is lat.coset(1)
    assert sorted(lat._cosets) == [1, 2]
    assert all(type(label) is int for label in lat._cosets)


def test_contraction_coeffs_at_a_large_split_lattice_makes_only_its_eta(monkeypatch):
    # |L^v/L| = 99988: the table of a form on eta 0 makes that eta and no
    # other coset
    fld = make_field(7)
    sl = SplitLattice(PosLattice(((14284,),)), make_ideal_lattice(fld, "unit"))
    made = []

    def counting(*args):
        made.append(args[0])
        return Coset(*args)

    monkeypatch.setattr(lattice, "Coset", counting)
    form = FourierForm(sl, {(0, -1): 1})
    table = contraction_coeffs(form, sl, [0, 7141])
    assert table == {(0, 0, Fraction(7141)): Fraction(2)}
    assert made == [0]


# ---------------------------------------------------------------------------
# Positive definite lattices
# ---------------------------------------------------------------------------


def test_pos_lattice_validation():
    with pytest.raises(ValueError):
        PosLattice(((0,),))
    with pytest.raises(ValueError):
        PosLattice(((2, 1), (0, 2)))  # not symmetric
    with pytest.raises(ValueError):
        PosLattice(((1, 2), (2, 1)))  # indefinite


def test_theta_series_a1():
    # gram (2): Q(x) = x^2, theta = 1 + 2q + 2q^4 + 2q^9 + ...
    pl = PosLattice(((2,),))
    for n in range(51):
        r = math.isqrt(n)
        expected = (2 if r * r == n else 0) if n else 1
        assert pl.count_vectors((0,), n) == expected


def test_theta_series_a2():
    pl = PosLattice(((2, 1), (1, 2)))
    # hexagonal lattice: 6 vectors of norm 1, 0 of norm 2, 6 of norm 3
    assert pl.count_vectors((0, 0), 0) == 1
    assert pl.count_vectors((0, 0), 1) == 6
    assert pl.count_vectors((0, 0), 2) == 0
    assert pl.count_vectors((0, 0), 3) == 6
    assert pl.count_vectors((0, 0), 4) == 6


def test_vector_norms_brute_force():
    pl = PosLattice(((4, 1), (1, 4)))
    coset = (Fraction(1, 2), Fraction(0))
    bound = Fraction(12)
    counts = pl.vector_norms_up_to(coset, bound)
    brute = {}
    for x in range(-8, 9):
        for y in range(-8, 9):
            v = (x + coset[0], y + coset[1])
            q = pl.q_of(v)
            if q <= bound:
                brute[q] = brute.get(q, 0) + 1
    assert counts == brute


@st.composite
def pos_grams(draw):
    """A positive-definite Gram (A A^T + diag(d)) / s of rank 1-3, so its
    smallest eigenvalue is at least 1/2; s = 2 gives half-integral entries."""
    n = draw(st.integers(min_value=1, max_value=3))
    A = [[draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    s = draw(st.sampled_from([1, 2]))
    return tuple(
        tuple(
            Fraction(sum(A[i][k] * A[j][k] for k in range(n)) + (diag[i] if i == j else 0), s)
            for j in range(n)
        )
        for i in range(n)
    )


def _brute_norms(gram, coset, bound):
    """{Q(x) : x in coset + Z^n, Q(x) <= bound} by walking a box that holds
    the ellipsoid: the smallest eigenvalue of a pos_grams Gram is at least
    1/2, so Q(x) >= |x|^2 / 4 and |x_i| <= 2 sqrt(bound) for every x in it."""
    n = len(gram)
    ranges = []
    for i in range(n):
        r = math.isqrt(math.ceil(4 * max(bound, 0))) + 1
        c = math.floor(coset[i])
        ranges.append(range(-r - c - 1, r - c + 2))
    result = {}
    for y in itertools.product(*ranges):
        x = [coset[i] + y[i] for i in range(n)]
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) / 2
        if q <= bound:
            result[q] = result.get(q, 0) + 1
    return result


@st.composite
def gram_coset_bound(draw):
    gram = draw(pos_grams())
    den = st.integers(min_value=1, max_value=46)
    coset = tuple(
        Fraction(draw(st.integers(min_value=-50, max_value=50)), draw(den))
        for _ in gram
    )
    bound = draw(st.fractions(min_value=-1, max_value=6, max_denominator=12))
    return gram, coset, bound


@given(gram_coset_bound())
@example((((Fraction(1, 2),),), (Fraction(1, 3),), Fraction(6)))
@example((((2, 1), (1, 2)), (Fraction(1, 46), Fraction(-45, 46)), Fraction(0)))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_vector_norms_match_a_box_enumeration(case):
    gram, coset, bound = case
    pl = PosLattice(gram)
    assert pl.vector_norms_up_to(coset, bound) == _brute_norms(pl.gram, coset, bound)


@given(gram_coset_bound())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_vector_counts_are_symmetric_under_negation(case):
    gram, coset, bound = case
    pl = PosLattice(gram)
    neg = tuple(-c for c in coset)
    assert pl.vector_norms_up_to(coset, bound) == pl.vector_norms_up_to(neg, bound)
    assert pl.count_vectors(coset, bound) == pl.count_vectors(neg, bound)


@st.composite
def gram_numerators_top(draw):
    """A pos_grams Gram or rank 0, integer numerators over den that may be
    negative or at least den, and an integer bound top on N = 2 g den^2 Q
    from -3 up to Q = 6."""
    gram = draw(st.one_of(st.just(()), pos_grams()))
    g = math.lcm(*(Fraction(x).denominator for row in gram for x in row))
    den = draw(st.integers(min_value=1, max_value=30))
    num = tuple(
        draw(st.integers(min_value=-3 * den, max_value=3 * den)) for _ in gram
    )
    top = draw(st.integers(min_value=-3, max_value=12 * g * den * den))
    return gram, num, den, top


@given(gram_numerators_top())
@example(((), (), 1, 0))
@example(((), (), 7, -1))
@example((((2, 1), (1, 2)), (-50, 47), 3, -1))
@example((((2, 1), (1, 2)), (-50, 47), 3, 300))
@example((((Fraction(1, 2),),), (-10,), 3, 0))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_norm_counts_match_a_box_enumeration(case):
    gram, num, den, top = case
    pl = PosLattice(gram)
    scale = 2 * pl.g * den * den
    counts = pl.norm_counts(num, den, top)
    brute = _brute_norms(
        pl.gram, tuple(Fraction(x, den) for x in num), Fraction(top, scale)
    )
    assert counts == {int(q * scale): c for q, c in brute.items()}
    if top < 0:
        assert counts == {}
    elif not gram:
        assert counts == {0: 1}


def test_coset_length_must_match_the_rank():
    pl = PosLattice(((2, 1), (1, 2)))
    for coset in ((Fraction(1, 3), Fraction(1, 3), 5), (Fraction(1, 3),)):
        with pytest.raises(ValueError, match=f"length {len(coset)} .*rank 2"):
            pl.vector_norms_up_to(coset, 2)
        with pytest.raises(ValueError, match="rank 2"):
            pl.count_vectors(coset, 2)
        with pytest.raises(ValueError, match=f"length {len(coset)} .*rank 2"):
            pl.q_of(coset)
    with pytest.raises(ValueError, match="length 1 .*rank 0"):
        PosLattice(()).vector_norms_up_to((0,), 1)
    with pytest.raises(ValueError, match="length 1 .*rank 0"):
        PosLattice(()).q_of((0,))
    ideal = make_ideal_lattice(make_field(7), "unit")
    assert ideal.q_of((1, 0)) == -1
    for coords in ((1, 0, 5), (1,)):
        with pytest.raises(ValueError, match=f"length {len(coords)} .*rank 2"):
            ideal.q_of(coords)
    # coset_of_element reads only two numerators unless it checks them
    for num in (ideal.coset(3).num + (5,), (1,)):
        with pytest.raises(
            ValueError, match=f"vector has length {len(num)} but the lattice has rank 2"
        ):
            coset_of_element(ideal, num, 7)


def test_rank_zero_lattice():
    pl = PosLattice(())
    assert pl.rank == 0
    assert pl.q_of(()) == 0
    assert pl.count_vectors((), 0) == 1
    assert pl.count_vectors((), 1) == 0
    assert pl.vector_norms_up_to((), 5) == {0: 1}


def test_dual_cosets_counts():
    # L^v/L of (2) + (4) + the unit ideal of d = 7 has 2 * 4 * 7 cosets
    pl = PosLattice(((2, 0), (0, 4)))
    sl = SplitLattice(pl, make_ideal_lattice(make_field(7), "unit"))
    assert len(sl.etas) == 56
    assert sl.etas[0].label == 0 and sl.etas[0].q_mod_one == 0


def _leading_minors(G):
    """The leading principal minors of a symmetric Gram of rank 1-3, by
    the explicit cofactor formulas."""
    minors = [G[0][0]]
    if len(G) > 1:
        minors.append(G[0][0] * G[1][1] - G[0][1] ** 2)
    if len(G) > 2:
        minors.append(
            G[0][0] * (G[1][1] * G[2][2] - G[1][2] ** 2)
            - G[0][1] * (G[0][1] * G[2][2] - G[1][2] * G[0][2])
            + G[0][2] * (G[0][1] * G[1][2] - G[1][1] * G[0][2])
        )
    return minors


@st.composite
def symmetric_grams(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    G = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = draw(entry)
    return tuple(map(tuple, G))


@given(symmetric_grams())
@example(((0,),))
@example(((1, 1), (1, 1)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pos_lattice_accepts_exactly_the_sylvester_grams(gram):
    positive = all(m > 0 for m in _leading_minors(gram))
    try:
        PosLattice(gram)
    except ValueError as exc:
        assert str(exc) == "gram must be positive definite"
        assert not positive
    else:
        assert positive


# ---------------------------------------------------------------------------
# Glued lattices
# ---------------------------------------------------------------------------


def test_split_lattice_counts():
    fld = make_field(7)
    minus = make_ideal_lattice(fld, "unit")
    plus = PosLattice(((2,),))
    sl = SplitLattice(plus, minus)
    assert len(sl.glue) == 1
    assert len(sl.etas) == 2 * 7
    assert sl.etas[0].label == 0
    for eta in sl.etas:
        assert 0 <= eta.q_mod_one < 1


def test_two_digit_discriminant_group_pinned():
    # L_+ is the unit ideal of Q(sqrt(-47)) with the sign flipped, so L^v/L
    # is Z/47 x Z/47, two Smith digits; the digest pins the label order,
    # the numerators and the q values of all 2209 etas
    unit = make_ideal_lattice(make_field(47), "unit")
    plus = PosLattice(tuple(tuple(-x for x in row) for row in unit.gram))
    sl = SplitLattice(plus, unit)
    assert len(sl.etas) == 47**2
    digest = hashlib.sha256()
    for e in sl.etas:
        digest.update(f"{e.label} {e.num} {e.den} {e.q_mod_one}\n".encode())
    assert digest.hexdigest() == (
        "38a7af8d3456fad416c085896b566774bc8868f469931440e34d37990a992b34"
    )


def test_glued_lattice_index_seven():
    # glue v = (1/7, mu) with Q_+(1/7) = 1/7 and Q_-(mu) = 6/7 mod 1, so
    # Q(v) is integral and v generates an index-7 overlattice of L_+ + L_-
    fld = make_field(7)
    minus = make_ideal_lattice(fld, "unit")
    plus = PosLattice(((14,),))
    mu = next(
        c for c in enumerate_dual_cosets(minus) if c.q_mod_one == Fraction(6, 7)
    )
    basis = ((Fraction(1, 7),) + mu.minus, (0, 1, 0), (0, 0, 1))
    sl = SplitLattice(plus, minus, basis)
    assert len(sl.glue) == 7
    assert len(sl.etas) * 7**2 == 14 * 7  # |L^v/L| = |L0^v/L0| / [L:L0]^2
    nontrivial = [g for g in sl.glue if any(x.denominator != 1 for x in g.plus)]
    assert len(nontrivial) == 6
    for g in nontrivial:
        assert any(x.denominator != 1 for x in g.minus)
        # the ambient Gram is block-diagonal
        assert (plus.q_of(g.plus) + minus.q_of(g.minus)).denominator == 1


def _x1_parts(d1):
    """L_+ and L_- of the X(1) lattice: L_+ = Z with Q(x) = d1 x^2, L_- the
    unit ideal of Q(sqrt(-d1))."""
    return PosLattice(((2 * d1,),)), make_ideal_lattice(make_field(d1), "unit")


@pytest.mark.parametrize("d1", [7, 11, 15, 35, 39, 163, 227, 443])
def test_glue_gives_the_x1_lattice(d1):
    # the isotropic v = (1/d1; 1/d1, -2/d1) of order d1 glues L_+ + L_- to
    # the lattice of trace-zero integer 2x2 matrices, L^v/L = Z/2 with
    # q = 3/4, for prime and composite d1 alike, and beyond d1 = 223, where
    # the unglued L^v/L of order 2 d1^2 is above MAX_DUAL_ORDER
    plus, unit = _x1_parts(d1)
    glued = glue(plus, unit, (1, 1, -2), d1)
    assert glued.basis == (
        (Fraction(1, d1), Fraction(1, d1), Fraction(d1 - 2, d1)),
        (0, 1, 0),
        (0, 0, 1),
    )
    assert [e.q_mod_one for e in glued.etas] == [0, Fraction(3, 4)]
    # any unit multiple of v, over any denominator, names the same lattice
    assert glue(plus, unit, (2, 2, -4), d1).basis == glued.basis
    assert glue(plus, unit, (3, 3, -6), 3 * d1).basis == glued.basis
    assert glue(plus, unit, (-1, -1, 2), -d1).basis == glued.basis


def test_glue_errors():
    plus, unit = _x1_parts(7)
    # glue has no q check of its own: every eta of L_+ + L_- with q != 0
    # that has a coordinate of its order gives a lattice that SplitLattice
    # refuses as not even or not integral
    split = SplitLattice(plus, unit)
    refused = [e for e in split.etas if e.q_mod_one]
    assert len(refused) == 85
    for eta in refused:
        with pytest.raises(
            InconsistentEmbeddingError,
            match="not an integral lattice|not even|no coordinate",
        ):
            glue(plus, unit, eta.num, eta.den)
    with pytest.raises(InconsistentEmbeddingError, match="lies in L_\\+ \\+ L_-"):
        glue(plus, unit, (7, 7, -14), 7)
    # Q(1/2, 2/3) = 4/4 + 9 (4/9) = 5: order 6, with coordinate
    # denominators 2 and 3 only
    plus = PosLattice(((8, 0), (0, 18)))
    assert plus.q_of((Fraction(1, 2), Fraction(2, 3))) == 5
    with pytest.raises(InconsistentEmbeddingError, match="no coordinate"):
        glue(plus, unit, (3, 4, 0, 0), 6)


def test_glue_refuses_a_zero_denominator():
    plus, unit = _x1_parts(7)
    with pytest.raises(
        InconsistentEmbeddingError,
        match=r"glue along \(1, 1, 5\)/0: the denominator is 0",
    ):
        glue(plus, unit, (1, 1, 5), 0)


_GLUE_FIELDS = (7, 15, 23, 35, 39, 55)


@st.composite
def glued_lattices(draw):
    """SplitLattice(plus, minus, basis) with L = L_+ + L_- + Z v for one glue
    row v = (x_+, mu) of order p | d: x_+ in (1/p) Z^n with first entry 1/p
    over the even Gram p G0, and mu a p-torsion coset of the ideal lattice
    with q(mu) = -Q(x_+) mod 1, so that Q(v) is an integer."""
    d = draw(st.sampled_from(_GLUE_FIELDS))
    fld = make_field(d)
    p = draw(st.sampled_from(fld.ramified_primes))
    specs = ["unit"] + [f"prime:{q}" for q in (2, 3) if fld.splitting(q) != INERT]
    minus = make_ideal_lattice(fld, draw(st.sampled_from(specs)))
    torsion = [
        mu for mu in enumerate_dual_cosets(minus)
        if not _zero_at(mu, d) and all((p * c).denominator == 1 for c in mu.minus)
    ]
    n = draw(st.integers(min_value=1, max_value=2))
    if n == 1:
        grams = [((2 * a,),) for a in (1, 2, 3)]
    else:
        grams = [((2 * a, b), (b, 2 * c))
                 for a in (1, 2) for b in (-1, 0, 1) for c in (1, 2)]
    candidates = []
    for G0 in grams:
        plus = PosLattice(tuple(tuple(p * x for x in row) for row in G0))
        for rest in itertools.product(range(p), repeat=n - 1):
            x_plus = (Fraction(1, p),) + tuple(Fraction(a, p) for a in rest)
            target = -plus.q_of(x_plus) % 1
            candidates += [
                (plus, x_plus + mu.minus) for mu in torsion if mu.q_mod_one == target
            ]
    assume(candidates)
    plus, v = draw(st.sampled_from(candidates))
    # an integral shift of every entry but the first keeps Z^N inside L
    shift = (0,) + draw(st.tuples(*[st.integers(-1, 1)] * (n + 1)))
    basis = (tuple(a + b for a, b in zip(v, shift)),) + tuple(
        tuple(int(i == j) for j in range(n + 2)) for i in range(1, n + 2)
    )
    try:
        return SplitLattice(plus, minus, basis)
    except InconsistentEmbeddingError:
        assume(False)


def _fraction_coset(lat, coords):
    """coset_of_element of an element given by Fraction coordinates."""
    den = math.lcm(*(x.denominator for x in coords))
    return coset_of_element(lat, tuple(int(x * den) for x in coords), den)


@given(glued_lattices())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_glued_lattices_in_fractions(sl):
    n = sl.plus.rank
    G = tuple(row + (0, 0) for row in sl.plus.gram) + tuple(
        (0,) * n + row for row in sl.minus.gram
    )
    B = sl.basis
    assert sl.gram_L == mat_mul(mat_mul(B, G), _transpose(B))
    pairing = mat_mul(G, _transpose(B))  # x -> (x, b_i) is x * pairing
    for eta in sl.etas:
        x = eta.plus + eta.minus
        assert all(y.denominator == 1 for y in mat_vec(x, pairing))
        q = sl.plus.q_of(x[:n]) + sl.minus.q_of(x[n:])
        assert eta.q_mod_one == q % 1
    # L = Z^N + Z v with v = B[0] of order p, so lam is in L exactly when
    # lam - k v is integral for some k
    p = len(sl.glue)
    assert p > 1 and B[0][0] == Fraction(1, p)
    for lam in sl.glue:
        assert lam.q_mod_one == 0
        assert any(
            all((a - k * b).denominator == 1 for a, b in zip(lam.plus + lam.minus, B[0]))
            for k in range(p)
        )
    for eta in sl.etas:
        for li, mu, plus in sl.eta_pairs(eta.label):
            lam = sl.glue[li]
            minus = tuple(a + b for a, b in zip(eta.minus, lam.minus))
            assert mu is _fraction_coset(sl.minus, minus)
            assert tuple(Fraction(x, eta.den) for x in plus) == tuple(
                a + b for a, b in zip(eta.plus, lam.plus)
            )


def test_inconsistent_embedding_errors():
    fld = make_field(7)
    minus = make_ideal_lattice(fld, "unit")
    plus = PosLattice(((2,),))
    singular = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(InconsistentEmbeddingError, match="L basis is singular"):
        SplitLattice(plus, minus, singular)
    # enlarging only the plus part violates L_+ = V_+ cap L; here it already
    # makes Q(b_0) = 1/4, so L is not integral
    stretched = ((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(InconsistentEmbeddingError, match="L is not an integral lattice"):
        SplitLattice(plus, minus, stretched)
    # over the gram (8) the same stretch keeps L even, and L_+ = V_+ cap L
    # fails; U cap L = L_- cannot fail on an even L, as no nonzero coset of
    # an ideal lattice has q = 0
    with pytest.raises(InconsistentEmbeddingError, match=r"^V_\+ cap L exceeds L_\+$"):
        SplitLattice(PosLattice(((8,),)), minus, stretched)
    # shrinking below L_+ + L_- is rejected
    shrunk = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(InconsistentEmbeddingError, match=r"L does not contain L_\+ \+ L_-"):
        SplitLattice(plus, minus, shrunk)
    with pytest.raises(InconsistentEmbeddingError, match="must be 3x3"):
        SplitLattice(plus, minus, ((1, 0), (0, 1)))
    # Q(eta) mod 1 needs an even L; Q(b_0) = 1/2 here
    with pytest.raises(InconsistentEmbeddingError, match="basis row 0 is 1/2"):
        SplitLattice(PosLattice(((1,),)), minus)


def test_load_lattice(tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text(
        "# comment line\n"
        "d=7\n"
        "ideal=unit\n"
        "rank=1\n"
        "gram=2\n"
    )
    fld, sl = load_lattice(path)
    assert fld.d == 7
    assert sl.plus.rank == 1
    assert sl.minus.norm == 1
    assert len(sl.etas) == 14


def test_load_lattice_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("rank=1\ngram=2\n")
    with pytest.raises(ValueError):
        load_lattice(path)
    path.write_text("d=7\nrank=2\ngram=2\n")
    with pytest.raises(ValueError):
        load_lattice(path)
