"""An end-to-end reference for the CM-value report, from the definitions.

For a lattice L with L_+ + L_- <= L <= L^v in V = V_+ (+) U and a form with
coefficients c_eta(m), the report is

    sum_z log ||Psi(z)||^2 = (-2 / vol_KT) sum_eta sum_{m >= 0} c_eta(-m) kappa_eta(m),
    kappa_eta(m) = sum_lambda sum_{x in eta_+ + lambda_+ + L_+} kappa(m - Q(x), mu),

with lambda over L / (L_+ + L_-) and mu the coset of eta_- + lambda_- in
L_-^v / L_-; kappa(t, mu) is the Whittaker oracle for t > 0 and k0(0)
[mu = 0] at t = 0.  Every piece is computed here in Fractions, with no
shared table: the Gram matrix of L_- from the trace form of its ideal
basis, the glue group as the closure of the basis rows of L mod Z^N, each
mu by comparison with the ideal's listed cosets, the vectors x by box
enumeration, and kappa by locwhit.eisenstein_deriv_coeff.  Of the split
lattice it reads only the numerators sl.coset(label).num, passed in as
eta_num, to name the eta of each label; it imports neither kappa nor
cmvalue.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from borcherds_cm.lattice import enumerate_dual_cosets
from borcherds_cm.locwhit import eisenstein_deriv_coeff


@dataclass(frozen=True)
class Report:
    """The report's exact parts; a value with a k0(0) part is the pair
    ({prime: exponent of log p}, k0(0) multiple)."""

    rational_part: dict
    kzero_coeff: Fraction
    c00: Fraction
    phi_value: tuple
    phi_cycle_sum: tuple


def _det(M):
    """The determinant of a square matrix, by Fraction elimination."""
    M = [list(map(Fraction, row)) for row in M]
    det = Fraction(1)
    for i in range(len(M)):
        pivot = next((r for r in range(i, len(M)) if M[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            M[i], M[pivot] = M[pivot], M[i]
            det = -det
        det *= M[i][i]
        for r in range(i + 1, len(M)):
            f = M[r][i] / M[i][i]
            M[r] = [a - f * b for a, b in zip(M[r], M[i])]
    return det


def _pair(x, G, y):
    """The bilinear form x G y^T."""
    return sum(G[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))


def _q(G, x):
    return Fraction(_pair(x, G, x)) / 2


def _ideal_gram(minus):
    """(x, y) = -Tr(x conj(y)) / Na on the ideal basis: on {1, omega}
    coordinates, omega = (1 + sqrt(-d)) / 2, Tr(x conj(y)) = x T y^T with
    T = [[2, 1], [1, 2 N(omega)]] and N(omega) = (1 + d) / 4."""
    B = minus.basis
    T = ((2, 1), (1, Fraction(1 + minus.field.d, 2)))
    norm = abs(_det(B))
    return [[-_pair(x, T, y) / norm for y in B] for x in B]


def _glue_group(basis):
    """L / (L_+ + L_-) as the vectors of L reduced mod Z^N: the closure of
    the basis rows under addition mod 1."""
    zero = (Fraction(0),) * len(basis)
    group, frontier = {zero}, [zero]
    while frontier:
        new = []
        for g in frontier:
            for b in basis:
                h = tuple((x + y) % 1 for x, y in zip(g, b))
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    return sorted(group)


def _norms(gram, offset, bound):
    """[Q(x)] over the x in offset + Z^n with Q(x) <= bound, from the box
    x_i^2 <= 2 bound (G^{-1})_ii that holds them all."""
    det = _det(gram)
    axes = []
    for i, o in enumerate(offset):
        minor = [r[:i] + r[i + 1:] for j, r in enumerate(gram) if j != i]
        r = math.isqrt(math.floor(2 * bound * _det(minor) / det)) + 1
        axes.append([o % 1 + z for z in range(-r - 1, r + 1)])
    norms = (_q(gram, x) for x in itertools.product(*axes))
    return [q for q in norms if q <= bound]


def _scaled(c, inner):
    logs, k0 = inner
    return {p: c * e for p, e in logs.items() if e}, c * k0


def reference_report(minus, gram, basis, coeffs, eta_num):
    """The report of the form {(eta label, m): c} on the lattice L with
    L_- the IdealLattice minus, L_+ of Gram matrix gram, and basis the rows
    of L in ambient coordinates (None for L_+ + L_-); eta_num(label) gives
    the integer ambient numerators of that eta, over |L^v/L| e with e the
    least common denominator of the basis.  vol_KT is the default 2/h."""
    fld = minus.field
    n = len(gram)
    N = n + 2
    if basis is None:
        basis = [[int(i == j) for j in range(N)] for i in range(N)]
    basis = [tuple(map(Fraction, row)) for row in basis]
    G_minus = _ideal_gram(minus)
    G = [list(r) + [0, 0] for r in gram] + [[0] * n + r for r in G_minus]
    gram_L = [[_pair(x, G, y) for y in basis] for x in basis]
    e = math.lcm(*(x.denominator for row in basis for x in row))
    den = abs(_det(gram_L)) * e
    glue = _glue_group(basis)
    listed = {
        tuple(x % 1 for x in mu.minus): mu for mu in enumerate_dual_cosets(minus)
    }
    oracle = {}
    logs, k0 = {}, Fraction(0)
    for (label, m1), c in coeffs.items():
        m, c = -Fraction(m1), Fraction(c)
        if m < 0:
            continue
        eta = tuple(Fraction(x, den) for x in eta_num(label))
        # eta is in L^v, and m1 + Q(eta) is an integer
        assert all(_pair(eta, G, b).denominator == 1 for b in basis)
        assert (m - _q(G, eta)).denominator == 1
        for lam in glue:
            x0 = tuple(a + b for a, b in zip(eta, lam))
            y = x0[n:]
            mu = listed[tuple(x % 1 for x in y)]
            for q in _norms(gram, x0[:n], m):
                t = m - q
                if t == 0:
                    if all(x.denominator == 1 for x in y):
                        k0 += c
                    continue
                key = (mu.label, t)
                if key not in oracle:
                    res = eisenstein_deriv_coeff(fld, minus, mu, t)
                    assert res.flag is None, res
                    oracle[key] = res.value.terms
                for p, a in oracle[key].items():
                    logs[p] = logs.get(p, 0) + c * a
    inner = (logs, k0)
    vol_kt = Fraction(2, fld.h)
    rational_part, kzero_coeff = _scaled(-2 / vol_kt, inner)
    return Report(
        rational_part=rational_part,
        kzero_coeff=kzero_coeff,
        c00=k0,
        phi_value=_scaled(2, inner),
        phi_cycle_sum=_scaled(4 / vol_kt, inner),
    )
