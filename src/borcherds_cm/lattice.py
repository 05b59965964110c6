"""Lattice machinery for the splitting V = V_+ (+) U.

Ideal lattices in an imaginary quadratic field carry the negative-definite
side (Q(x) = -Nx/Na); PosLattice carries a positive-definite Gram matrix
with exact vector enumeration in integers; SplitLattice glues both along a
possibly non-split integral lattice L with L_+ + L_- <= L <= L^v.

Every finite group the CM-value sums run over -- the discriminant groups
L^v/L of the ideal, positive and glued lattices, and the glue group
L/(L_+ + L_-) -- is a quotient Z^k / Z^k M listed by one routine,
_coset_walk, in canonical label order through the Smith normal form of M.
Each coset is the integer numerator z of y M^{-1} = z/D over the single
denominator D = |det M|, and z = w rows is linear in the Smith digits w,
so the walk steps from each coset to the next by adding one precomputed
row; the finite quadratic form q(z/D) = Q(z/D) mod 1 of a discriminant
group (Nikulin, Math. USSR Izv. 14 (1980)) steps with it, in integers,
from the Gram matrix of the generators.  One routine, _q, computes Q(x).

No Fraction elimination is left: the integer Smith normal form gives every
coset list, the test that a SplitLattice basis is nonsingular and contains
L_+ + L_-, and that basis's inverse; the one exact LDL^T of a PosLattice,
computed when it is built, tests definiteness (Sylvester's criterion) and
seeds its enumeration.  A SplitLattice keeps its etas and glue vectors as
integer ambient numerators over one denominator, with integer gram_L and
eta_pairs; their Fraction plus/minus views are made only when read.  One
routine, glue, writes a glue row into a basis: it scales an isotropic eta
of L_+ + L_- so that one coordinate is 1/m and puts it in place of that
basis row.

An IdealLattice takes its Gram matrix from the trace form of k and its
omega-stability from an integral matrix test, without element arithmetic
in k, and lists its dual cosets once, when it is built; a coset tests
whether it vanishes at a ramified prime only when asked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, sqrt_mod
from .quadfield import INERT, make_field


class NotAnIdealError(ValueError):
    """Basis is not omega-stable or not contained in O_k."""


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


class IntegerQuotient:
    """The finite abelian group Z^k / (Z^k * M) for a nonsingular integer
    matrix M (row convention), with canonical mixed-radix labels.

    With U M V = diag(d_1..d_k) its Smith normal form, y -> (y V)_i mod d_i
    identifies the group with prod Z/d_i."""

    def __init__(self, M):
        self.diag, self.U, self.V = smith_normal_form(M)
        self.order = math.prod(self.diag)

    def label_of(self, y):
        """Canonical label of an integer coordinate vector y: the mixed-radix
        number whose digits are (y V)_i mod d_i."""
        label = 0
        for wi, di in zip(mat_vec(tuple(int(x) for x in y), self.V), self.diag):
            label = label * di + wi % di
        return label


# Largest discriminant group |L^v/L| a lattice lists: every coset is made
# up front, about 7.5 us and 0.4 kB apiece for a SplitLattice (0.8 s and
# 60 MB at the cap on an Intel Xeon).
MAX_DUAL_ORDER = 10**5


def _check_dual_order(order):
    """Refuse a discriminant group above MAX_DUAL_ORDER before its walk."""
    if order > MAX_DUAL_ORDER:
        raise ValueError(
            f"L^v/L has order {order}, above the cap of {MAX_DUAL_ORDER}"
        )


def _coset_walk(quotient, den, gram=None, basis=None):
    """Yield (num, q) for every coset of Z^k / Z^k M, in label order.

    The coset with Smith digits w in prod range(d_i) is z / den, z = w rows,
    for the Smith generators U_i / d_i over den, rows = diag(den/d_i) U;
    with den = |det M| this is y M^{-1} for y = w V^{-1}, as M^{-1} = V
    diag(1/d_i) U and V^{-1} cancels.  num is z, or z basis for a given
    (square) basis, and q = z gram z^T, the numerator of Q(z/den) over
    2 den^2, for a given integer gram (else 0).

    Only the digits with d_i > 1 move; the others stay 0, so the order is
    that of itertools.product(*map(range, d)), which is label order.  Each
    coset is the one before it plus one precomputed step: advancing digit j
    adds s_j = e_j - sum_{t > j} (d_t - 1) e_t, since the later digits wrap
    from d_t - 1 to 0.  With S the Gram matrix of the steps under gram and
    the running v_j = (w, s_j) in that form, q(w + s_j) = q(w) + 2 v_j +
    S_jj and v += S_j."""
    moving = [i for i, di in enumerate(quotient.diag) if di > 1]
    k = len(moving)
    radix = [quotient.diag[i] for i in moving]
    num = (0,) * len(basis or quotient.U)
    yield num, 0
    if not k:
        return
    s = tuple(
        tuple(int(t == j) - (t > j) * (radix[t] - 1) for t in range(k))
        for j in range(k)
    )
    rows = tuple(
        tuple(den // radix[j] * x for x in quotient.U[i]) for j, i in enumerate(moving)
    )
    sz = mat_mul(s, rows)
    steps = mat_mul(sz, basis) if basis else sz
    S = mat_mul(mat_mul(sz, gram), _transpose(sz)) if gram else ((0,) * k,) * k
    w = [0] * k
    v = [0] * k
    q = 0
    for _ in range(quotient.order - 1):
        j = k - 1
        while w[j] == radix[j] - 1:
            w[j] = 0
            j -= 1
        w[j] += 1
        num = tuple(map(operator.add, num, steps[j]))
        q += 2 * v[j] + S[j][j]
        v = list(map(operator.add, v, S[j]))
        yield num, q


def _q(x, gram):
    """Q(x) = x G x^T / 2 for a vector x of length rank G."""
    k = len(gram)
    if len(x) != k:
        raise ValueError(
            f"vector has length {len(x)} but the lattice has rank {k}"
        )
    x = tuple(map(Fraction, x))
    return sum(
        (gram[i][j] * x[i] * x[j] for i in range(k) for j in range(k)),
        Fraction(0),
    ) / 2


# ---------------------------------------------------------------------------
# Ideal lattices in k = Q(sqrt(-d))
# ---------------------------------------------------------------------------
# Elements of k are coordinate pairs (u, v) meaning u + v*omega with
# omega = (1 + sqrt(-d))/2, so omega^2 = omega - (1+d)/4.


class IdealLattice:
    """An integral O_k-ideal a viewed as a rank-2 lattice with
    Q(x) = -N(x)/N(a), so that the dual lattice is D^{-1} a.  Its d dual
    cosets are built once, with the lattice."""

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
        self._quotient = IntegerQuotient(self.gram)
        d = self._quotient.order
        _check_dual_order(d)
        self._cosets = tuple(
            DualCoset(self, z, label, Fraction(q % (2 * d * d), 2 * d * d))
            for label, (z, q) in enumerate(_coset_walk(self._quotient, d, self.gram))
        )

    def dual_index(self):
        """|L^v / L| = N(D) = d."""
        return self._quotient.order

    def q_of(self, coords):
        """Q at an element given in a-basis coordinates."""
        return _q(coords, self.gram)


class DualCoset:
    """A coset mu of D^{-1}a / a, with its local data at ramified primes.

    It is given by the integer numerators z of its a-basis coordinates
    z/d and its q_value = Q(z/d) mod 1; since d is squarefree, mu_q = 0
    exactly when q divides every z_i, which local_zero tests when called."""

    def __init__(self, lattice, numerators, label, q_value):
        self.lattice = lattice
        self._z = tuple(numerators)
        self.label = label
        d = lattice._quotient.order
        self.is_zero = all(x % d == 0 for x in self._z)
        self.q_value = q_value

    @property
    def coords(self):
        """The a-basis coordinates z/d of the representative."""
        d = self.lattice._quotient.order
        return tuple(Fraction(x, d) for x in self._z)

    def local_zero(self, q):
        """Whether the image mu_q in D^{-1}a_q / a_q is zero, tested on the
        numerators when asked."""
        a, b = self._z
        return a % q == 0 and b % q == 0

    def __repr__(self):
        return f"DualCoset(label={self.label}, coords={self.coords})"


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
    """The d cosets of D^{-1}a / a that the lattice built, as a tuple
    indexed by canonical label; label 0 is mu = 0."""
    return lat._cosets


def coset_of_element(lat, num, den):
    """The canonical DualCoset (the one enumerate_dual_cosets lists) of the
    coset containing an element of D^{-1}a, given by the integer numerators
    num of its a-basis coordinates num / den."""
    y = mat_vec(num, lat.gram)
    if any(x % den for x in y):
        raise ValueError("element is not in the dual lattice D^{-1}a")
    return lat._cosets[lat._quotient.label_of([x // den for x in y])]


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
        # g * gram is integral; vector_norms_up_to decides Q in its integers
        self._g = math.lcm(*(x.denominator for row in gram for x in row))
        self._gram_int = tuple(tuple(int(x * self._g) for x in row) for row in gram)
        # kept as floats: they only choose candidates
        self._ldl = [[float(x) for x in row] for row in q]

    def q_of(self, x):
        """Q(x) = (x, x)/2 for a vector x of length rank."""
        return _q(x, self.gram)

    def vector_norms_up_to(self, coset, bound):
        """Multiset {Q(x) : x in coset + Z^n, Q(x) <= bound} as a dict
        Q-value -> count.  Exact; coset is a rational offset vector.

        Fincke-Pohst enumeration of z = D x, with D the common denominator
        of the coset, so z runs over D * coset + (D Z)^n.  Floats from the
        LDL decomposition choose the candidates of each coordinate; the
        integer test z^T (g G) z <= floor(2 g D^2 bound) decides each
        vector, and only the returned keys are made Fractions."""
        n = self.rank
        if len(coset) != n:
            raise ValueError(
                f"coset has length {len(coset)} but the lattice has rank {n}"
            )
        bound = Fraction(bound)
        if bound < 0:
            return {}
        if n == 0:
            return {Fraction(0): 1}
        coset = tuple(map(Fraction, coset))
        D = math.lcm(*(c.denominator for c in coset))
        den = 2 * self._g * D * D
        top = math.floor(bound * den)
        residues = [c.numerator * (D // c.denominator) % D for c in coset]
        q = self._ldl
        G = self._gram_int
        zs = [0] * n
        counts = {}

        def rec(i, rem, acc):
            # zs[j] for j > i are fixed; rem bounds the float Q left for
            # coordinates <= i, acc is the integer form on coordinates > i
            qi, Gi = q[i], G[i]
            center = -sum(qi[j] * zs[j] for j in range(i + 1, n))
            lin = 2 * sum(Gi[j] * zs[j] for j in range(i + 1, n))
            gii, qii = Gi[i], qi[i]
            radius = math.sqrt(rem / qii)
            # one step of D beyond the float range on each side
            lo = math.floor(center - radius) - D
            lo += (residues[i] - lo) % D
            hi = math.ceil(center + radius) + D
            if i == 0:
                for z in range(lo, hi + 1, D):
                    N = acc + z * (gii * z + lin)
                    if N <= top:
                        counts[N] = counts.get(N, 0) + 1
                return
            for z in range(lo, hi + 1, D):
                t = z - center
                left = rem - qii * t * t
                if left >= 0:
                    zs[i] = z
                    rec(i - 1, left, acc + z * (gii * z + lin))

        # the raised bound keeps every vector with Q <= bound a candidate:
        # float rounding in the partial sums stays far below 1e-9 of it
        rec(n - 1, float(bound * D * D) * (1 + 1e-9) + 1e-9, 0)
        return {Fraction(N, den): c for N, c in counts.items()}

    def count_vectors(self, coset, m):
        """#{x in coset + Z^n : Q(x) = m}; zero for m < 0."""
        m = Fraction(m)
        return self.vector_norms_up_to(coset, m).get(m, 0)


# ---------------------------------------------------------------------------
# Glued lattices for V = V_+ (+) U
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaCoset:
    """A coset of L^v/L, or a glue vector of L/(L_+ + L_-) with q_mod_one 0
    since L is even: the integer numerators num of its ambient coordinates
    over the one denominator den.  The Fraction views plus (the first n
    coordinates) and minus (the last two) are made when read."""

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


class SplitLattice:
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
        # integer g G (g = plus._g): gram_L = basis_num (g G) basis_num^T / g e^2
        g = plus._g
        gG = tuple(row + (0, 0) for row in plus._gram_int) + tuple(
            (0,) * n + tuple(g * x for x in row) for row in minus.gram
        )
        self.gram_ambient = tuple(tuple(Fraction(x, g) for x in row) for row in gG)
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
        # as L <= (1/e) Z^N.  The glue group L / (L_+ + L_-) = Z^N / Z^N
        # basis^{-1} has generators U_i / d_i in L, so each d_i divides e and
        # den; L^v / L has generators z / D (D = |det gram_L|) in L
        # coordinates, whose ambient numerators are z basis_num
        dual = IntegerQuotient(self.gram_L)
        D = dual.order
        _check_dual_order(D)
        den = D * e
        glue_group = IntegerQuotient(basis_inv)
        self.glue = []
        for label, (num, _) in enumerate(_coset_walk(glue_group, den)):
            plus_int = all(x % den == 0 for x in num[:n])
            minus_int = all(x % den == 0 for x in num[n:])
            if minus_int and not plus_int:
                raise InconsistentEmbeddingError("V_+ cap L exceeds L_+")
            if plus_int and not minus_int:
                raise InconsistentEmbeddingError("U cap L exceeds L_-")
            self.glue.append(EtaCoset(label, num, den))
        self.etas = [
            EtaCoset(label, num, den, Fraction(q % (2 * D * D), 2 * D * D))
            for label, (num, q) in enumerate(
                _coset_walk(dual, D, self.gram_L, basis_num)
            )
        ]
        # {(eta label, num, den): kappa_eta(m)} over the field of L_-,
        # filled by cmvalue on first request; the lattice fixes the field,
        # so there is one table per lattice
        self._kappa_eta = {}
        # eta label -> its eta_pairs list, filled on first request
        self._eta_pairs = {}

    def q_ambient(self, x):
        """Q(x) for a vector x in ambient coordinates."""
        return _q(x, self.gram_ambient)

    def eta_pairs(self, label):
        """[(lambda index, mu, eta_+ + lambda_+)] over the glue vectors
        lambda, where mu is the canonical coset of eta_- + lambda_- in the
        ideal lattice.  Computed once per eta, on first request, from the
        integer numerators; only the plus offsets are made Fractions."""
        pairs = self._eta_pairs.get(label)
        if pairs is None:
            eta = self.etas[label]
            pairs = []
            for lam in self.glue:
                x = [a + b for a, b in zip(eta.num, lam.num)]
                mu = coset_of_element(self.minus, x[-2:], eta.den)
                plus = tuple(Fraction(a, eta.den) for a in x[:-2])
                pairs.append((lam.label, mu, plus))
            self._eta_pairs[label] = pairs
        return pairs


def glue(split, label):
    """The overlattice L_+ + L_- + Z eta of a split lattice L = L_+ + L_-
    (identity basis) along its eta of the given label, which must have
    q_mod_one 0 so that the result is even (Nikulin's gluing).

    With m the order of eta, its first coordinate i of denominator exactly
    m is a/m with a prime to m, so c eta mod 1, c = a^{-1} mod m, has 1/m
    there.  That vector and the unit rows e_j, j != i, span Z^N + Z eta;
    it replaces basis row i, and SplitLattice checks the result."""
    eta = split.etas[label]
    N = len(eta.num)
    basis = [tuple(int(i == j) for j in range(N)) for i in range(N)]
    if split.basis != tuple(basis):
        raise InconsistentEmbeddingError(
            f"glue at eta {label}: the lattice basis is not the identity"
        )
    if eta.q_mod_one:
        raise InconsistentEmbeddingError(
            f"glue at eta {label}: q = {eta.q_mod_one} is not 0"
        )
    m = eta.den // math.gcd(eta.den, *eta.num)
    if m == 1:
        raise InconsistentEmbeddingError(f"glue at eta {label}: the eta is zero")
    a = [x * m // eta.den for x in eta.num]
    i = next((i for i, x in enumerate(a) if math.gcd(x, m) == 1), None)
    if i is None:
        raise InconsistentEmbeddingError(
            f"glue at eta {label}: no coordinate has the denominator {m} "
            "of its order"
        )
    c = pow(a[i], -1, m)
    basis[i] = tuple(Fraction(c * x % m, m) for x in a)
    return SplitLattice(split.plus, split.minus, tuple(basis))


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


def load_lattice(path):
    """Read a lattice file: key=value lines with keys d, ideal, rank, gram,
    basis (gram/basis rows ';'-separated, entries ','-separated)."""
    keys = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            k, _, v = line.partition("=")
            keys[k.strip()] = v.strip()
    if "d" not in keys:
        raise ValueError("lattice file missing d=")
    fld = make_field(_int_key(keys, "d"))
    minus = make_ideal_lattice(fld, keys.get("ideal", "unit"))
    rank = _int_key(keys, "rank", "0")
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
