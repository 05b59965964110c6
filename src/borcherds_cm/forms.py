"""Exact q-expansions and coefficient tables of vector-valued forms.

QExpansion is a truncated Laurent series ring over Q with exact arithmetic,
used to build delta, E4, E6 and j.  FourierForm holds the coefficient table
c_eta(m) of a weakly holomorphic input form on a SplitLattice, whose etas
give the labels and Q(eta) mod 1.  The table is validated against the
coefficient-level constraints: integral principal part and the support
congruence m + Q(eta) in Z.
"""

from __future__ import annotations

from fractions import Fraction


class IntegralityViolation(ValueError):
    """A coefficient c_eta(m) with m <= 0 is not an integer."""


class SupportCongruenceViolation(ValueError):
    """A nonzero c_eta(m) with m + Q(eta) not in Z."""


# ---------------------------------------------------------------------------
# Truncated Laurent series
# ---------------------------------------------------------------------------


class QExpansion:
    """A q-expansion sum_{n=v}^{N} a_n q^n with exact rational coefficients.

    `order` is the last exponent N known to be correct; arithmetic tracks
    the common region of validity.
    """

    __slots__ = ("leading", "coeffs")

    def __init__(self, leading, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            leading += 1
        self.leading = leading
        self.coeffs = tuple(coeffs)

    @property
    def order(self):
        return self.leading + len(self.coeffs) - 1

    def coeff(self, n):
        i = n - self.leading
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        if n <= self.order:
            return Fraction(0)
        raise IndexError(f"coefficient of q^{n} beyond truncation order")

    def truncate(self, order):
        if order < self.leading:
            return QExpansion(order + 1, ())
        return QExpansion(
            self.leading, self.coeffs[: order - self.leading + 1]
        )

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, QExpansion)
            and self.leading == other.leading
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.leading, self.coeffs))

    def _aligned(self, other):
        v = min(self.leading, other.leading)
        N = min(self.order, other.order)
        a = [self.coeff(n) if self.leading <= n <= self.order else Fraction(0)
             for n in range(v, N + 1)]
        b = [other.coeff(n) if other.leading <= n <= other.order else Fraction(0)
             for n in range(v, N + 1)]
        return v, a, b

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QExpansion(0, (other,) + (0,) * max(self.order, 0))
        v, a, b = self._aligned(other)
        return QExpansion(v, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, QExpansion) else -other)

    def __neg__(self):
        return QExpansion(self.leading, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.leading, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return QExpansion(min(self.order, other.order) + 1, ())
        v = self.leading + other.leading
        N = min(self.order + other.leading, other.order + self.leading)
        out = [Fraction(0)] * (N - v + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= len(out):
                    break
                if b:
                    out[k] += a * b
        return QExpansion(v, out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero q-expansion")
        a0 = self.coeffs[0]
        n = len(self.coeffs)
        inv = [Fraction(0)] * n
        inv[0] = 1 / a0
        for k in range(1, n):
            s = sum(self.coeffs[j] * inv[k - j] for j in range(1, k + 1))
            inv[k] = -s / a0
        return QExpansion(-self.leading, inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = QExpansion(0, (1,) + (0,) * max(self.order - self.leading, 0))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"QExpansion({self.render()})"

    def render(self, max_terms=8):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            n = self.leading + i
            if n == 0:
                parts.append(str(c))
            else:
                mono = "q" if n == 1 else f"q^{n}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            if len(parts) >= max_terms:
                parts.append("...")
                break
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _eta_quotientless(N):
    # prod_{n>=1} (1 - q^n) to order N by the pentagonal number theorem
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[0] = Fraction(1)
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > N and g2 > N:
            break
        sign = -1 if k % 2 else 1
        if g1 <= N:
            coeffs[g1] += sign
        if g2 <= N:
            coeffs[g2] += sign
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


_QEXP_CACHE = {}


def classical_qexp(name, N):
    """delta, e4, e6 or j, exact, with coefficients through exponent N."""
    if N < 1:
        raise ValueError("need N >= 1 terms")
    key = (name, N)
    if key in _QEXP_CACHE:
        return _QEXP_CACHE[key]
    if name == "delta":
        f = _eta_quotientless(N - 1) ** 24
        result = QExpansion(1, f.truncate(N - 1).coeffs)
    elif name == "e4":
        s = _sigma_table(3, N)
        result = QExpansion(0, [1] + [240 * s[n] for n in range(1, N + 1)])
    elif name == "e6":
        s = _sigma_table(5, N)
        result = QExpansion(0, [1] + [-504 * s[n] for n in range(1, N + 1)])
    elif name == "j":
        # j = E4^3 / Delta, leading term q^{-1}; need N+1 accurate terms of
        # both to reach exponent N after the shift by q^{-1}
        e4 = classical_qexp("e4", N + 1)
        delta = classical_qexp("delta", N + 2)
        result = ((e4**3) / delta).truncate(N)
    else:
        raise ValueError(f"unknown q-expansion {name!r}")
    _QEXP_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# Coefficient tables c_eta(m)
# ---------------------------------------------------------------------------


class FourierForm:
    """The coefficient table of a weakly holomorphic input form.

    coeffs maps (eta label, m) to a rational c_eta(m); entries absent from
    the map are zero.  The SplitLattice's etas provide the labels and
    Q(eta) mod 1.
    """

    def __init__(self, lattice, coeffs):
        self.lattice = lattice
        etas = lattice.etas
        clean = {}
        for (label, m), c in coeffs.items():
            label = int(label)
            m = Fraction(m)
            c = Fraction(c)
            if c == 0:
                continue
            if not 0 <= label < len(etas):
                raise ValueError(f"eta label {label} out of range")
            if m <= 0 and c.denominator != 1:
                raise IntegralityViolation(
                    f"c_{label}({m}) = {c} must be an integer for m <= 0"
                )
            q = etas[label].q_mod_one
            if (m + q).denominator != 1:
                raise SupportCongruenceViolation(
                    f"c_{label}({m}) nonzero but {m} + Q(eta) = "
                    f"{m + q} is not an integer"
                )
            clean[(label, m)] = c
        self.coeffs = clean
        self.principal_support = sorted(
            (label, m) for (label, m) in clean if m < 0
        )

    def c(self, label, m):
        return self.coeffs.get((int(label), Fraction(m)), Fraction(0))

    def labels(self):
        return sorted({label for label, _ in self.coeffs})

    def scaled(self, factor):
        factor = Fraction(factor)
        return FourierForm(
            self.lattice, {k: factor * v for k, v in self.coeffs.items()}
        )

    def plus(self, other):
        if other.lattice is not self.lattice:
            raise ValueError("forms indexed by different lattices")
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        return FourierForm(self.lattice, merged)


def m_max(form):
    """max{m > 0 : c_eta(-m) != 0 for some eta}; 0 for a holomorphic form."""
    if not form.principal_support:
        return Fraction(0)
    return max(-m for _, m in form.principal_support)


def save_form(form, path, d=None):
    lines = []
    if d is not None:
        lines.append(f"d={d}")
    for (label, m), c in sorted(form.coeffs.items()):
        lines.append(
            f"{label} {m.numerator}/{m.denominator} "
            f"{c.numerator}/{c.denominator}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_form(path, lattice):
    """Read a form table on the SplitLattice `lattice`: optional header lines
    key=value, then records `eta_label m c` with rationals as a/b.
    Validates all invariants; a bad record raises a ValueError that names
    the file and the record."""
    coeffs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line and not line[0].isdigit() and not line[0] == "-":
                continue  # header metadata; lattice is supplied by caller
            try:
                label, m, c = line.split()
                label, m, c = int(label), Fraction(m), Fraction(c)
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"{path}: form record {line!r} is not `eta_label m c` "
                    "with an integer label and rationals a/b, b != 0"
                ) from None
            if (label, m) in coeffs:
                raise ValueError(
                    f"{path}: duplicate record for eta={label}, m={m}"
                )
            coeffs[(label, m)] = c
    return FourierForm(lattice, coeffs)
