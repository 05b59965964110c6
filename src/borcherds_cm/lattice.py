"""Lattice machinery for the splitting V = V_+ (+) U.

Ideal lattices in an imaginary quadratic field carry the negative-definite
side (Q(x) = -Nx/Na); PosLattice carries a positive-definite Gram matrix
with exact vector enumeration in integers, one Fincke-Pohst core,
norm_counts, that takes integer numerators over a denominator and an
integer bound on N = z (gG) z^T and returns {N: count}, under the Fraction
wrappers vector_norms_up_to and count_vectors; SplitLattice glues both
along a possibly non-split integral lattice L with L_+ + L_- <= L <= L^v.

Every finite group the CM-value sums run over -- the discriminant groups
L^v/L of the ideal, positive and glued lattices, and the glue group
L/(L_+ + L_-) -- is a quotient Z^k / Z^k M labelled in canonical order
through the Smith normal form of M.  Each coset is the integer numerator z
of y M^{-1} = z/D over the single denominator D = |det M|, and z = w rows
is linear in the Smith digits w of its label, so one routine,
_smith_cosets, makes any coset from its label alone, with the finite
quadratic form q(z/D) = Q(z/D) mod 1 of a discriminant group (Nikulin,
Math. USSR Izv. 14 (1980)) as w S w^T for the integer Gram matrix S of the
Smith generators.  IdealLattice and SplitLattice share one coset(label),
made on first request and kept; only the glue group is made whole.

No Fraction elimination is left: the integer Smith normal form gives every
coset, the test that a SplitLattice basis is nonsingular and contains
L_+ + L_-, and that basis's inverse; the one exact LDL^T of a PosLattice,
computed when it is built, tests definiteness (Sylvester's criterion) and
seeds its enumeration.  A SplitLattice keeps its etas and glue vectors as
integer ambient numerators over one denominator, with integer gram_L,
and each lambda_-'s label in L_-^v/L_- (L is integral), 0 exactly on L_-,
which the glue checks read and eta_pairs adds to eta_-'s label mod d.
That label is additive, so the lattice also keeps l_i, the label of the
minus part of each Smith generator g_i of L^v/L; label_of_element reads
both without making a Coset of L_-.  eta_pairs reads eta_-'s label as
sum w_i l_i mod d from the Smith digits w_i of eta's label.
One routine, glue, builds L_+ + L_- + Z v from a glue vector v given as
integer ambient numerators over one denominator: it scales v so that one
coordinate is 1/m and puts it in place of that basis row, so the unglued
L_+ + L_- and its discriminant group are never listed.

An IdealLattice takes its Gram matrix from the trace form of k and its
omega-stability from an integral matrix test, without element arithmetic
in k.  Its L^v/L is cyclic of squarefree order d: coset k is k g for the
Smith generator g, with q = k^2 q(g), and an element's label is one
integer linear form mod d (label_of_element; coset_of_element is the
coset of that label).  A label is refused unless it is a whole number
in range.  One frozen integer type, Coset, holds every
coset and glue vector of every lattice.  An IdealLattice also holds the
dict of kappa values that cmvalue's kappa_eta fill reads and fills;
nothing else touches it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import _whole, is_prime, sqrt_mod
from .quadfield import INERT, check_field, make_field


class NotAnIdealError(ValueError):
    """Basis is not omega-stable or not contained in O_k."""


class UnsupportedLatticeError(ValueError):
    """Raised when the lattice is not an integral O_k-ideal with Q = -Nx/Na."""


class InconsistentEmbeddingError(ValueError):
    """Provided L-basis violates L_+ = V_+ cap L or L_- = U cap L, or L is
    not integral."""


# ---------------------------------------------------------------------------
# Exact small-matrix helpers (rows of tuples of ints or Fractions)
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(v, A):
    # row vector times matrix
    return tuple(
        sum(v[t] * A[t][j] for t in range(len(A))) for j in range(len(A[0]))
    )


def smith_normal_form(M):
    """Smith normal form of a nonsingular integer matrix.

    Returns (diag, U, V) with U*M*V = diag(d_1..d_k), d_i > 0, d_i | d_{i+1},
    and U, V unimodular.
    """
    k = len(M)
    A = [[int(x) for x in row] for row in M]
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    V = [[int(i == j) for j in range(k)] for i in range(k)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    for t in range(k):
        while True:
            # find smallest nonzero pivot in the trailing block
            best = None
            for i in range(t, k):
                for j in range(t, k):
                    if A[i][j] and (best is None or abs(A[i][j]) < best[0]):
                        best = (abs(A[i][j]), i, j)
            if best is None:
                raise ValueError("singular matrix in SNF")
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            done = True
            for i in range(t + 1, k):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    done = False
            for j in range(t + 1, k):
                if A[t][j]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    done = False
            if done:
                # enforce divisibility d_t | trailing entries
                bad = next(
                    (i for i in range(t + 1, k) for j in range(t + 1, k)
                     if A[i][j] % A[t][t]),
                    None,
                )
                if bad is None:
                    break
                add_row(bad, t, 1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    diag = tuple(A[i][i] for i in range(k))
    return diag, tuple(map(tuple, U)), tuple(map(tuple, V))


@dataclass(frozen=True)
class Coset:
    """A coset of L^v/L with q_mod_one = Q mod 1, or a glue vector of
    L/(L_+ + L_-) with q_mod_one 0 since L is even: the integer numerators
    num of its coordinates over the one denominator den, ambient ones for a
    SplitLattice and a-basis ones over den = d for an IdealLattice.  The
    Fraction views plus (all but the last two coordinates, so () for an
    ideal) and minus (the last two) are made when read."""

    label: int
    num: tuple
    den: int
    q_mod_one: Fraction = Fraction(0)

    @property
    def plus(self):
        return tuple(Fraction(x, self.den) for x in self.num[:-2])

    @property
    def minus(self):
        return tuple(Fraction(x, self.den) for x in self.num[-2:])


# Largest |L^v/L| a lattice accepts: SplitLattice.etas and the acceptance
# glue search list whole groups, about 0.4 kB per Coset.  The glue group
# injects into L_-^v/L_- by the glue checks, so this cap on d bounds it.
MAX_DUAL_ORDER = 10**5


def _smith_generators(diag, U, D):
    """(places, rows) of the Smith generators of Z^k / Z^k M, from its
    Smith form U M V = diag(d_1..d_k) and D = |det M|, over the d_i > 1:
    digit w_i of a label is label // place_i mod d_i for (place_i, d_i) in
    places, and the coset with digits w is (w rows) / D."""
    moving = [i for i, di in enumerate(diag) if di > 1]
    places = [(math.prod(diag[j] for j in moving[t + 1:]), diag[i])
              for t, i in enumerate(moving)]
    rows = [tuple(D // diag[i] * x for x in U[i]) for i in moving]
    return places, rows


def _smith_cosets(diag, U, D, gram=None, basis=None, den=None):
    """The routine label -> Coset of Z^k / Z^k M, from its Smith form
    U M V = diag(d_1..d_k) and D = |det M|: y has the mixed-radix label
    whose digits are w_i = (y V)_i mod d_i over the d_i > 1, the last
    fastest.

    The coset with Smith digits w is z / D, z = w rows, for the Smith
    generators U_i / d_i over D, rows = diag(D/d_i) U; this is y M^{-1} for
    y = w V^{-1}, as M^{-1} = V diag(1/d_i) U and V^{-1} cancels.  Its num
    is z, or z basis for a given (square) basis, over den (D if not given).
    For a given integer gram its q_mod_one is Q(z/D) mod 1, whose numerator
    over 2 D^2 is z gram z^T = w S w^T with S = rows gram rows^T, the
    finite quadratic form of the Smith generators (Nikulin, Math. USSR Izv.
    14 (1980)); else it is 0."""
    places, rows = _smith_generators(diag, U, D)
    mul = operator.mul
    S = gram and [[sum(map(mul, mat_vec(r, gram), s)) for s in rows]
                  for r in rows]
    if basis:
        rows = [mat_vec(r, basis) for r in rows]
    cols = [tuple(r[j] for r in rows) for j in range(len(basis or U))]
    den = den or D
    qden = 2 * D * D

    def coset(label):
        w = [label // p % r for p, r in places]
        num = tuple([sum(map(mul, w, c)) for c in cols])
        if not S:
            return Coset(label, num, den)
        q = sum(map(mul, w, [sum(map(mul, w, row)) for row in S]))
        return Coset(label, num, den, Fraction(q % qden, qden))

    return coset


class _DualGroup:
    """L^v/L of an IdealLattice or a SplitLattice, of order |det gram| for
    the integer Gram matrix of L: coset(label) makes each coset from its
    label on first request and keeps it, so no lattice lists its group
    unless a caller asks for all of it."""

    def _set_dual(self, gram, basis=None, e=1):
        """Set order and the coset routine of L^v/L, whose numerators are z
        basis over |det gram| e; returns the Smith form (diag, U, V) of
        gram."""
        diag, U, V = smith_normal_form(gram)
        self.order = D = math.prod(diag)
        if D > MAX_DUAL_ORDER:
            raise ValueError(
                f"L^v/L has order {D}, above the cap of {MAX_DUAL_ORDER}"
            )
        self._make_coset = _smith_cosets(diag, U, D, gram, basis, D * e)
        self._cosets = {}
        return diag, U, V

    def coset(self, label):
        """The coset of L^v/L with label 0 <= label < order, a whole number;
        the kept coset is keyed and labelled by the int."""
        mu = self._cosets.get(label)
        if mu is None:
            label = _whole("label", label)
            if not 0 <= label < self.order:
                raise ValueError(f"no dual coset with label {label}")
            mu = self._cosets[label] = self._make_coset(label)
        return mu


# ---------------------------------------------------------------------------
# Ideal lattices in k = Q(sqrt(-d))
# ---------------------------------------------------------------------------
# Elements of k are coordinate pairs (u, v) meaning u + v*omega with
# omega = (1 + sqrt(-d))/2, so omega^2 = omega - (1+d)/4.


class IdealLattice(_DualGroup):
    """An integral O_k-ideal a viewed as a rank-2 lattice with
    Q(x) = -N(x)/N(a), so that the dual lattice is D^{-1} a.  Its d dual
    cosets are made from their labels, each on first request."""

    def __init__(self, field, basis):
        self.field = field
        basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        if len(basis) != 2 or any(len(r) != 2 for r in basis):
            raise NotAnIdealError("ideal basis must be two elements of k")
        det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
        if det == 0:
            raise NotAnIdealError("basis elements are linearly dependent")
        if any(x.denominator != 1 for row in basis for x in row):
            raise NotAnIdealError("ideal is not contained in O_k")
        B = tuple(tuple(int(x) for x in row) for row in basis)
        self.basis = basis
        self.norm = abs(int(det))
        c = (1 + field.d) // 4
        # omega-stable: B W B^{-1} = B W adj(B) / det B is integral, with W
        # the multiplication by omega: (u, v) W = (-c v, u + v)
        W = ((0, 1), (-c, 1))
        adj = ((B[1][1], -B[0][1]), (-B[1][0], B[0][0]))
        if any(x % self.norm for row in mat_mul(mat_mul(B, W), adj) for x in row):
            raise NotAnIdealError("basis is not omega-stable")
        # Gram of the bilinear form (x, y) = -Tr(x * conj(y)) / Na, from the
        # trace form x T y^T = Tr(x * conj(y)) on {1, omega} coordinates
        T = ((2, 1), (1, 2 * c))
        trace = mat_mul(mat_mul(B, T), _transpose(B))
        if any(x % self.norm for row in trace for x in row):
            raise NotAnIdealError("non-integral Gram entry")
        self.gram = tuple(tuple(-x // self.norm for x in row) for row in trace)
        # L^v/L = D^{-1}a/a is cyclic of squarefree order d, so the Smith
        # form of gram is diag(1, d): coset k is k g / d for g = U[1], and an
        # element y gram^{-1} of L^v, y integral, has label (y V)_1 = y v
        # mod d
        _, _, V = self._set_dual(self.gram)
        self._v = (V[0][1], V[1][1])
        # {(mu label, num, den): kappa(num/den, mu)}, read and filled only by
        # the kappa_eta fill of cmvalue: kappa_at and kappa_positive keep
        # no memo
        self._kappa = {}


def make_ideal_lattice(field, spec="unit"):
    """Build an IdealLattice from a spec: None or "unit", "prime:p", or
    "basis:a,b;c,d" (rows as in lattice files, in {1, omega} coordinates).
    An explicit basis matrix goes to IdealLattice(field, basis)."""
    if spec is None or spec == "unit":
        return IdealLattice(field, ((1, 0), (0, 1)))
    if not isinstance(spec, str) or not spec.startswith(("prime:", "basis:")):
        raise NotAnIdealError(
            f"ideal {spec!r} is not one of unit, prime:p or basis:a,b;c,d"
        )
    kind, value = spec.split(":", 1)
    if kind == "basis":
        return IdealLattice(field, _parse_rows("ideal basis", value))
    try:
        p = int(value)
    except ValueError:
        raise NotAnIdealError(f"ideal {spec!r}: {value!r} is not an integer") from None
    if not is_prime(p):
        raise NotAnIdealError(f"ideal prime:{p}: {p} is not a positive prime")
    if field.splitting(p) == INERT:
        raise NotAnIdealError(f"{p} is inert; no prime ideal of norm {p}")
    # prime ideal (p, omega - r) with r^2 - r + (1+d)/4 = 0 mod p, that is
    # (2r - 1)^2 = -d; r = 0 for p = 2, else the smaller of r and 1 - r
    r = 0 if p == 2 else (p + 1) // 2 * (1 + sqrt_mod(-field.d, p)) % p
    return IdealLattice(field, ((p, 0), (-min(r, (1 - r) % p), 1)))


def enumerate_dual_cosets(lat):
    """The d cosets of D^{-1}a / a, as a tuple indexed by canonical label;
    label 0 is mu = 0."""
    return tuple(map(lat.coset, range(lat.order)))


def check_coset(fld, lat, mu):
    """The input check of kappa and its oracle: refuse lat unless it is an
    IdealLattice over fld, then mu unless it is one of lat's cosets; a
    coset of another lattice would silently be read as lat's coset of its
    label."""
    if not isinstance(lat, IdealLattice):
        raise UnsupportedLatticeError(
            "kappa formulas require an integral-ideal lattice"
        )
    # compared here, so that a matching field makes no further call
    if lat.field.d != fld.d:
        check_field(fld, lat.field.d)
    label = mu.label
    if not 0 <= label < lat.order or (
        (own := lat.coset(label)) is not mu and own != mu
    ):
        raise ValueError(
            f"coset label {label} is not a dual coset of the lattice of norm {lat.norm}"
        )


def label_of_element(lat, num, den):
    """The label of the coset containing an element of D^{-1}a, given by the
    integer numerators num of its a-basis coordinates num / den; no Coset
    is made.  The label is additive: the sum of two elements has the sum
    of their labels mod d."""
    if len(num) != 2:
        raise ValueError(
            f"vector has length {len(num)} but the lattice has rank 2"
        )
    y = mat_vec(num, lat.gram)
    if any(x % den for x in y):
        raise ValueError("element is not in the dual lattice D^{-1}a")
    v0, v1 = lat._v
    return (y[0] // den * v0 + y[1] // den * v1) % lat.order


def coset_of_element(lat, num, den):
    """The canonical Coset (lat.coset of its label) of the coset containing
    an element of D^{-1}a, given as for label_of_element."""
    return lat.coset(label_of_element(lat, num, den))


# ---------------------------------------------------------------------------
# Positive definite lattices with exact vector enumeration
# ---------------------------------------------------------------------------


class PosLattice:
    """A positive-definite lattice of rank n given by the Gram matrix of the
    bilinear form; Q(x) = (x, x)/2."""

    def __init__(self, gram):
        gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        n = len(gram)
        for i in range(n):
            if len(gram[i]) != n:
                raise ValueError("gram must be square")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram must be symmetric")
        # Q(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2, the exact
        # LDL^T of gram / 2; the pivots q[i][i] are the ratios of successive
        # leading minors, so gram is positive definite exactly when each is
        # positive (Sylvester's criterion)
        q = [[x / 2 for x in row] for row in gram]
        for i in range(n):
            if q[i][i] <= 0:
                raise ValueError("gram must be positive definite")
            for j in range(i + 1, n):
                q[j][i] = q[i][j]
                q[i][j] = q[i][j] / q[i][i]
            for k in range(i + 1, n):
                for l in range(k, n):
                    q[k][l] -= q[k][i] * q[i][l]
        self.rank = n
        self.gram = gram
        # g * gram is integral; norm_counts decides Q in its integers
        self.g = math.lcm(*(x.denominator for row in gram for x in row))
        self._gram_int = tuple(tuple(int(x * self.g) for x in row) for row in gram)
        # kept as floats: they only choose candidates
        self._ldl = [[float(x) for x in row] for row in q]

    def norm_counts(self, num, den, top):
        """{N: count} over z in num + (den Z)^n with N = z (g G) z^T <= top,
        for the integer numerators num of a coset num / den and an int top.
        Q(z / den) = N / (2 g den^2), so this is the multiset of Q over the
        coset up to (top / (2 g den^2)), in integers.

        Fincke-Pohst enumeration: floats from the LDL decomposition choose
        the candidates of each coordinate, and the integer test N <= top
        decides each vector."""
        n = self.rank
        if len(num) != n:
            raise ValueError(
                f"coset has length {len(num)} but the lattice has rank {n}"
            )
        if top < 0:
            return {}
        if n == 0:
            return {0: 1}
        q = self._ldl
        G = self._gram_int
        zs = [0] * n
        counts = {}

        def rec(i, rem, acc):
            # zs[j] for j > i are fixed; rem bounds the float Q left for
            # coordinates <= i, acc is the integer form on coordinates > i
            qi, Gi = q[i], G[i]
            center = 0.0
            lin = 0
            for j in range(i + 1, n):
                center -= qi[j] * zs[j]
                lin += 2 * Gi[j] * zs[j]
            gii, qii = Gi[i], qi[i]
            radius = math.sqrt(rem / qii)
            # one step of den beyond the float range on each side
            lo = math.floor(center - radius) - den
            lo += (num[i] - lo) % den
            hi = math.ceil(center + radius) + den
            if i == 0:
                for z in range(lo, hi + 1, den):
                    N = acc + z * (gii * z + lin)
                    if N <= top:
                        counts[N] = counts.get(N, 0) + 1
                return
            for z in range(lo, hi + 1, den):
                t = z - center
                left = rem - qii * t * t
                if left >= 0:
                    zs[i] = z
                    rec(i - 1, left, acc + z * (gii * z + lin))

        # the raised bound keeps every vector with N <= top a candidate:
        # float rounding in the partial sums stays far below 1e-9 of it
        rec(n - 1, top / (2 * self.g) * (1 + 1e-9) + 1e-9, 0)
        return counts

    def vector_norms_up_to(self, coset, bound):
        """Multiset {Q(x) : x in coset + Z^n, Q(x) <= bound} as a dict
        Q-value -> count.  Exact; coset is a rational offset vector, read
        as numerators over their least common denominator D by
        norm_counts."""
        coset = tuple(map(Fraction, coset))
        D = math.lcm(*(c.denominator for c in coset))
        scale = 2 * self.g * D * D
        counts = self.norm_counts(
            [c.numerator * (D // c.denominator) for c in coset],
            D,
            math.floor(Fraction(bound) * scale),
        )
        return {Fraction(N, scale): c for N, c in counts.items()}

    def count_vectors(self, coset, m):
        """#{x in coset + Z^n : Q(x) = m}; zero for m < 0."""
        m = Fraction(m)
        return self.vector_norms_up_to(coset, m).get(m, 0)


# ---------------------------------------------------------------------------
# Glued lattices for V = V_+ (+) U
# ---------------------------------------------------------------------------


class SplitLattice(_DualGroup):
    """A lattice L with L_+ + L_- <= L <= L^v in V = V_+ (+) U.

    Ambient coordinates: first n entries in the L_+ basis, last two in the
    a-basis of the ideal lattice, so L_+ = Z^n and L_- = Z^2 exactly.
    """

    def __init__(self, plus, minus, basis=None):
        self.plus = plus
        self.minus = minus
        n = plus.rank
        N = n + 2
        if basis is None:
            basis = tuple(tuple(int(i == j) for j in range(N)) for i in range(N))
        basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        if len(basis) != N or any(len(r) != N for r in basis):
            raise InconsistentEmbeddingError(
                f"L basis must be {N}x{N} in ambient coordinates"
            )
        # Smith normal form U (e basis) V = diag(d_i) of the basis scaled by
        # the lcm e of its denominators; it exists exactly when basis is
        # nonsingular, and then basis^{-1} = V diag(e / d_i) U
        e = math.lcm(*(x.denominator for row in basis for x in row))
        basis_num = tuple(tuple(int(x * e) for x in row) for row in basis)
        try:
            diag, U, V = smith_normal_form(basis_num)
        except ValueError:
            raise InconsistentEmbeddingError("L basis is singular") from None
        # L contains L_+ + L_- = Z^N exactly when basis^{-1} is integral
        if any(e % di for di in diag):
            raise InconsistentEmbeddingError("L does not contain L_+ + L_-")
        basis_inv = mat_mul(
            V, tuple(tuple(e // di * x for x in row) for di, row in zip(diag, U))
        )
        self.basis = basis
        # ambient bilinear Gram G = block diag of plus and ideal grams, as the
        # integer g G (g = plus.g): gram_L = basis_num (g G) basis_num^T / g e^2
        g = plus.g
        gG = tuple(row + (0, 0) for row in plus._gram_int) + tuple(
            (0,) * n + tuple(g * x for x in row) for row in minus.gram
        )
        gram_L = mat_mul(mat_mul(basis_num, gG), _transpose(basis_num))
        scale = g * e * e
        if any(x % scale for row in gram_L for x in row):
            raise InconsistentEmbeddingError("L is not an integral lattice")
        self.gram_L = tuple(tuple(x // scale for x in row) for row in gram_L)
        # q(eta) = Q(eta) mod 1 is well defined only on an even lattice
        for i in range(N):
            if self.gram_L[i][i] % 2:
                raise InconsistentEmbeddingError(
                    f"L is not even: Q of basis row {i} is "
                    f"{Fraction(self.gram_L[i][i], 2)}, not an integer"
                )
        # Both groups keep ambient numerators over den = |L^v / L| e, integers
        # as L <= (1/e) Z^N.  L^v / L has generators z / D (D = |det gram_L|)
        # in L coordinates, whose ambient numerators are z basis_num; the
        # glue group L / (L_+ + L_-) = Z^N / Z^N basis^{-1} has generators
        # U_i / d_i in L, so each d_i divides e and den
        diag, U, _ = self._set_dual(self.gram_L, basis_num, e)
        den = self.order * e
        # (place_i, d_i, l_i) per Smith generator g_i of L^v/L, with l_i the
        # label of its minus part in L_-^v/L_- (eta in L^v pairs integrally
        # with L_-, so eta_- is in L_-^v): eta = sum w_i g_i for the digits
        # w_i of its label, so eta_- has the label sum w_i l_i mod d
        places, rows = _smith_generators(diag, U, self.order)
        self._minus_digits = [
            (place, di, label_of_element(minus, mat_vec(row, basis_num)[n:], den))
            for (place, di), row in zip(places, rows)
        ]
        glue_diag, glue_U, _ = smith_normal_form(basis_inv)
        self.glue = list(
            map(_smith_cosets(glue_diag, glue_U, den), range(math.prod(glue_diag)))
        )
        self._glue_minus = []
        for lam in self.glue:
            ell = label_of_element(minus, lam.num[n:], den)
            plus_int = all(x % den == 0 for x in lam.num[:n])
            if not ell and not plus_int:
                raise InconsistentEmbeddingError("V_+ cap L exceeds L_+")
            if plus_int and ell:
                raise InconsistentEmbeddingError("U cap L exceeds L_-")
            self._glue_minus.append(ell)
        # {(eta label, num, den): kappa_eta(m)} over the field of L_-,
        # filled by cmvalue on first request; the lattice fixes the field,
        # so there is one table per lattice
        self._kappa_eta = {}

    @functools.cached_property
    def etas(self):
        """Every coset of L^v/L, as a tuple indexed by label; made when first
        read, for the callers that list the whole group."""
        return tuple(map(self.coset, range(self.order)))

    def eta_pairs(self, label):
        """[(lambda index, mu, plus)] over the glue vectors lambda: mu is
        the coset of eta_- + lambda_- in L_-, whose label is eta_-'s plus
        lambda_-'s mod d, eta_-'s read from the Smith digits of eta's
        label, and plus the integer numerators of eta_+ + lambda_+ over
        eta.den, as PosLattice.norm_counts reads them."""
        eta = self.coset(label)
        label = eta.label
        k = 0
        for place, di, ell in self._minus_digits:
            k += label // place % di * ell
        minus = self.minus
        d = minus.order
        plus = eta.num[:self.plus.rank]
        return [
            (lam.label, minus.coset((k + ell) % d),
             tuple(map(operator.add, plus, lam.num)))
            for lam, ell in zip(self.glue, self._glue_minus)
        ]


def glue(plus, minus, num, den):
    """The overlattice L_+ + L_- + Z v of L_+ + L_- = Z^N along the vector
    v = num / den, given by integer ambient numerators over one denominator
    as Coset.num and .den (Nikulin's gluing).

    With m the order of v mod Z^N, its first coordinate i of denominator
    exactly m is a/m with a prime to m, so c v mod 1, c = a^{-1} mod m, has
    1/m there.  That vector and the unit rows e_j, j != i, span Z^N + Z v;
    it replaces basis row i, and SplitLattice checks the result, which
    refuses a v with Q(v) not an integer as not integral or not even."""
    if not den:
        raise InconsistentEmbeddingError(
            f"glue along {num}/{den}: the denominator is 0"
        )
    m = abs(den) // math.gcd(den, *num)
    if m == 1:
        raise InconsistentEmbeddingError(
            f"glue along {num}/{den}: the vector lies in L_+ + L_-"
        )
    a = [x * m // den for x in num]
    i = next((i for i, x in enumerate(a) if math.gcd(x, m) == 1), None)
    if i is None:
        raise InconsistentEmbeddingError(
            f"glue along {num}/{den}: no coordinate has the denominator {m} "
            "of its order"
        )
    c = pow(a[i], -1, m)
    N = len(a)
    basis = [tuple(int(i == j) for j in range(N)) for i in range(N)]
    basis[i] = tuple(Fraction(c * x % m, m) for x in a)
    return SplitLattice(plus, minus, tuple(basis))


def _transpose(A):
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


# ---------------------------------------------------------------------------
# Lattice file format
# ---------------------------------------------------------------------------


def _parse_rows(key, text):
    try:
        return tuple(
            tuple(Fraction(x) for x in row.split(",")) for row in text.split(";")
        )
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key}={text!r} is not rows of rationals a/b") from None


def _int_key(keys, key, default=None):
    value = keys.get(key, default)
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key}={value!r} is not an integer") from None


def _text_lines(path):
    """The lines of the file at path, each cut at "#" and stripped, blank
    ones dropped; a ValueError if the file is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # not type(exc)(...): UnicodeDecodeError takes five arguments
        raise ValueError(
            f"not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None
    return [
        line for raw in text.split("\n") if (line := raw.split("#", 1)[0].strip())
    ]


def load_lattice(path):
    """Read a lattice file: key=value lines with keys d, ideal, rank, gram,
    basis (gram/basis rows ';'-separated, entries ','-separated), each at
    most once; any other key is refused, not ignored.  Every refusal is
    raised as its own type with a message that names the file."""
    try:
        keys = {}
        for line in _text_lines(path):
            k, _, v = line.partition("=")
            k = k.strip()
            if k not in ("d", "ideal", "rank", "gram", "basis"):
                raise ValueError(f"lattice file has an unknown key {k!r}")
            if k in keys:
                raise ValueError(f"lattice file repeats the key {k}=")
            keys[k] = v.strip()
        if "d" not in keys:
            raise ValueError("lattice file missing d=")
        fld = make_field(_int_key(keys, "d"))
        minus = make_ideal_lattice(fld, keys.get("ideal", "unit"))
        rank = _int_key(keys, "rank", "0")
        if rank < 0:
            raise ValueError(f"rank={rank} is negative")
        if rank:
            if "gram" not in keys:
                raise ValueError(f"lattice file has rank={rank} but no gram=")
            plus = PosLattice(_parse_rows("gram", keys["gram"]))
            if plus.rank != rank:
                raise ValueError("rank does not match gram size")
        elif "gram" in keys:
            raise ValueError(f"lattice file has gram= but rank={rank}")
        else:
            plus = PosLattice(())
        basis = _parse_rows("basis", keys["basis"]) if "basis" in keys else None
        return fld, SplitLattice(plus, minus, basis)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
