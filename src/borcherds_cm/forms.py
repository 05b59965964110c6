"""Integer q-series of the classical forms and coefficient tables of
vector-valued forms.

QExpansion is a truncated q-series with Python-int coefficients: delta,
E4, E6 and j all have integer Fourier coefficients, and every step that
builds them (products, powers, the inverse of a series with constant term
+-1) stays in the integers.  FourierForm holds the coefficient table
c_eta(m) of a weakly holomorphic input form on a SplitLattice, whose
cosets eta give the labels and Q(eta) mod 1.  The table is validated
against the coefficient-level constraints: integral principal part and the
support congruence m + Q(eta) in Z.  It keeps its terms under integer keys
(label, num, den) with m = num/den, so validation and the lookups of
cmvalue are integer work; the Fraction views are made only when read.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .arith import _ratio, _whole, monomial, signed_sum
from .lattice import _int_key, _text_lines


class IntegralityViolation(ValueError):
    """A coefficient c_eta(m) with m <= 0 is not an integer."""


class SupportCongruenceViolation(ValueError):
    """A nonzero c_eta(m) with m + Q(eta) not in Z."""


# ---------------------------------------------------------------------------
# Truncated integer q-series
# ---------------------------------------------------------------------------


class QExpansion:
    """A q-series sum_{n=v}^{N} a_n q^n with integer coefficients a_n =
    coeffs[n - v], v = leading; N is the last exponent known to be correct,
    and products keep the common region of validity."""

    __slots__ = ("leading", "coeffs")

    def __init__(self, leading, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            leading += 1
        self.leading = leading
        self.coeffs = tuple(coeffs)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        # exponents leading .. leading + n - 1 of the product are exact
        n = min(len(a), len(b))
        return QExpansion(
            self.leading + other.leading,
            [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)],
        )

    def __pow__(self, e):
        """self**e for an integer e >= 1, by repeated squaring."""
        if e < 1:
            raise ValueError(f"q-series power {e} is not a positive integer")
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def inverse(self):
        """The inverse series; the first coefficient must be +-1, so that
        the inverse has integer coefficients."""
        a = self.coeffs
        if not a or a[0] not in (1, -1):
            raise ValueError(
                "q-series inverse needs first coefficient +-1, not "
                f"{a[0] if a else 0}"
            )
        u = a[0]
        inv = [u]
        for k in range(1, len(a)):
            inv.append(-u * sum(map(mul, a[1 : k + 1], reversed(inv))))
        return QExpansion(-self.leading, inv)

    def render(self, max_terms=8):
        """The first max_terms nonzero terms, then `...` if any is left."""
        terms = [(self.leading + i, c) for i, c in enumerate(self.coeffs) if c]
        parts = [monomial(c, "q", n) for n, c in terms[:max_terms]]
        if len(terms) > max_terms:
            parts.append("...")
        return signed_sum(parts)


def _euler_series(N):
    # prod_{n>=1} (1 - q^n) to order N by the pentagonal number theorem
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= N:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= N:
                coeffs[g] += sign
        k += 1
    return QExpansion(0, coeffs)


def _sigma_table(k, N):
    # sigma_k(n) for n = 1..N by divisor sieve
    table = [0] * (N + 1)
    for m in range(1, N + 1):
        mk = m**k
        for n in range(m, N + 1, m):
            table[n] += mk
    return table


def classical_qexp(name, N):
    """delta, e4, e6 or j, exact, with coefficients through exponent N."""
    if N < 1:
        raise ValueError("need N >= 1 terms")
    if name == "delta":
        return QExpansion(1, (_euler_series(N - 1) ** 24).coeffs)
    if name == "e4":
        s = _sigma_table(3, N)
        return QExpansion(0, [1] + [240 * s[n] for n in range(1, N + 1)])
    if name == "e6":
        s = _sigma_table(5, N)
        return QExpansion(0, [1] + [-504 * s[n] for n in range(1, N + 1)])
    if name == "j":
        # j = E4^3 / delta: delta = q + ..., so 1/delta starts at q^{-1} and
        # both factors need N + 2 terms to reach exponent N
        e4 = classical_qexp("e4", N + 1)
        delta = classical_qexp("delta", N + 2)
        return e4**3 * delta.inverse()
    raise ValueError(f"unknown q-expansion {name!r}")


# ---------------------------------------------------------------------------
# Coefficient tables c_eta(m)
# ---------------------------------------------------------------------------


class FourierForm:
    """The coefficient table of a weakly holomorphic input form.

    The table is kept as integer terms {(label, num, den): c}, with m =
    num/den in lowest terms and c an int when it is integral (a Fraction
    otherwise); entries absent from it are zero.  The key does not depend
    on the lattice, so one form serves every lattice check_lattice passes.
    The SplitLattice's cosets provide the labels and Q(eta) mod 1: m and
    q = Q(eta) mod 1 are both in lowest terms, so m + q is an integer
    exactly when den == q.denominator and num + q.numerator is divisible
    by den, an integer test.  `coeffs` is the Fraction view, made when
    read.
    """

    def __init__(self, lattice, coeffs):
        terms = {}
        for (label, m), c in coeffs.items():
            label = _whole("eta label", label)
            num, den = _ratio(m)
            cn, cd = _ratio(c)
            if not cn:
                continue
            if num <= 0 and cd != 1:
                raise IntegralityViolation(
                    f"c_{label}({Fraction(num, den)}) = {Fraction(cn, cd)} "
                    "must be an integer for m <= 0"
                )
            terms[(label, num, den)] = cn if cd == 1 else Fraction(cn, cd)
        self.terms = terms
        self.check_lattice(lattice)
        self._lattice = lattice
        # SplitLattice -> inner sum, filled by cmvalue._inner_sum
        self._inner_sums = {}

    def check_lattice(self, lattice):
        """Refuse a lattice on which a term is not valid: its eta label is
        out of range, or m + Q(eta) is not an integer.  The constructor
        checks its own lattice, cmvalue any other on first meeting it."""
        order, coset = lattice.order, lattice.coset
        for label, num, den in self.terms:
            if not 0 <= label < order:
                raise ValueError(f"eta label {label} out of range")
            q = coset(label).q_mod_one
            if den != q.denominator or (num + q.numerator) % den:
                m = Fraction(num, den)
                raise SupportCongruenceViolation(
                    f"c_{label}({m}) nonzero but {m} + Q(eta) = "
                    f"{m + q} is not an integer"
                )

    @property
    def coeffs(self):
        """{(eta label, m): c_eta(m)} with Fraction m and c."""
        return {
            (label, Fraction(num, den)): Fraction(c)
            for (label, num, den), c in self.terms.items()
        }

def _m_max_ratio(form):
    """m_max(form) as integers (top, bottom) in lowest terms, bottom > 0.
    The terms are compared by cross-multiplying their integers."""
    top, bottom = 0, 1
    for _, num, den in form.terms:
        if -num * bottom > top * den:
            top, bottom = -num, den
    return top, bottom


def m_max(form):
    """max{m > 0 : c_eta(-m) != 0 for some eta}; 0 for a holomorphic form."""
    return Fraction(*_m_max_ratio(form))


def load_form(path, lattice):
    """Read a form table on the SplitLattice `lattice`: optional header lines
    key=value, then records `eta_label m c` with rationals as a/b.  The one
    header key is d, at most once, and it must be the d of the lattice's
    field; any other key is refused, not ignored.  Validates all
    invariants; every refusal keeps its type and names the file, and that
    of a bad header or record also the line."""
    coeffs = {}
    d = None
    try:
        for line in _text_lines(path):
            if "=" in line and not line[0].isdigit() and not line[0] == "-":
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key != "d":
                    raise ValueError(f"form file has an unknown key {key!r}")
                if d is not None:
                    raise ValueError("form file repeats the key d=")
                d = _int_key(key, value)
                if d != lattice.minus.field.d:
                    raise ValueError(
                        f"form file has d={d} but the lattice's field "
                        f"is d={lattice.minus.field.d}"
                    )
                continue
            try:
                label, m, c = line.split()
                label, m, c = int(label), Fraction(m), Fraction(c)
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"form record {line!r} is not `eta_label m c` "
                    "with an integer label and rationals a/b, b != 0"
                ) from None
            if (label, m) in coeffs:
                raise ValueError(f"duplicate record for eta={label}, m={m}")
            coeffs[(label, m)] = c
        return FourierForm(lattice, coeffs)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
