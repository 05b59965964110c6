"""Command line front end.

All exact values are printed as machine-parseable key=value lines with
rationals rendered a/b and factored logarithms in their canonical
serialization.  Usage errors exit 2 (argparse); computation errors exit 1
with a diagnostic naming the violated precondition.  A reader that closes
stdout early (bcm qexp j -N 500 | head -c 20, or bcm --help | true) ends
the command with exit 1 and no diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from fractions import Fraction

from mpmath import mp

from .arith import _check_prec
from .cmvalue import check_prime_support, log_psi_product, phi_average
from .forms import classical_qexp, load_form, m_max
from .kappa import kappa_at
from .lattice import load_lattice, make_ideal_lattice
from .locwhit import _local_polys
from .quadfield import kappa_zero_constant, make_field


def _digits(n):
    """The decimal digits of the int n.  str() of an int stops at the
    interpreter's digit limit (4300 by default); Decimal converts from the
    binary digits, with no limit."""
    return str(Decimal(n))


def _rational(flag, text):
    """Fraction(text), or a ValueError that names the option and the value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} {text!r} is not a rational a/b with b != 0") from None


def cmd_field(args):
    if args.prec is not None:
        _check_prec(args.prec, "--prec")
    fld = make_field(args.d)
    print(f"d={fld.d}")
    print(f"discriminant={fld.discriminant}")
    print(f"class_number={fld.h}")
    print(f"w={fld.w}")
    print(f"ramified={','.join(str(q) for q in fld.ramified_primes)}")
    if args.prec is not None:
        k0 = kappa_zero_constant(fld, args.prec)
        print(f"k0={mp.nstr(k0, args.prec)}")
    return 0


def cmd_kappa(args):
    fld = make_field(args.d)
    lat = make_ideal_lattice(fld, args.ideal)
    mu = lat.coset(args.mu)
    val = kappa_at(fld, lat, mu, _rational("-t", args.t))
    print(f"kappa = {val.render()}")
    print(f"serialized={val.log_part.serialize()}")
    print(f"kzero_multiple={val.kzero_multiple}")
    return 0


def cmd_whittaker(args):
    fld = make_field(args.d)
    lat = make_ideal_lattice(fld, args.ideal)
    mu = lat.coset(args.mu)
    t = _rational("-t", args.t)
    if t <= 0:
        raise ValueError("whittaker requires t > 0")
    for p, poly in sorted(_local_polys(fld, mu, t, lat.norm).items()):
        print(f"W[{p}]={poly.poly_string()}")
    return 0


def cmd_form(args):
    fld, sl = load_lattice(args.lattice)
    form = load_form(args.file, sl)
    if args.action == "validate":
        print("valid=1")
        print(f"records={len(form.coeffs)}")
    print(f"m_max={m_max(form)}")
    return 0


# Highest exponent bcm qexp accepts: the integer series cost grows faster
# than N^2, since the coefficients grow too (in-process on an Intel Xeon,
# j takes 0.11 s at N = 500 and 1.9 s at N = 2000).
QEXP_MAX_N = 500


def cmd_qexp(args):
    if args.N > QEXP_MAX_N:
        raise ValueError(f"-N={args.N} is above the cap of {QEXP_MAX_N}")
    f = classical_qexp(args.name, args.N)
    print(f"leading={f.leading}")
    coeffs = ",".join(str(c) for c in f.coeffs)
    print(f"coeffs={coeffs}")
    print(f"series={f.render(max_terms=args.N + 2)}")
    return 0


def _report_lines(report, fld, form, prec):
    yield f"d={report.d}"
    yield f"degree={report.degree}"
    yield f"vol_kt={report.vol_kt}"
    yield f"c00={report.c00}"
    yield f"log_rat={report.rational_part.log_string()}"
    yield f"log_rat_serialized={report.rational_part.serialize()}"
    yield f"kzero_coeff={report.kzero_coeff}"
    yield f"transcendental_exponent={report.transcendental_exponent}"
    ok, violations = check_prime_support(report, fld, form)
    yield f"support_ok={int(ok)}"
    if violations:
        yield f"support_violations={','.join(map(str, violations))}"
    yield f"numeric={mp.nstr(report.numeric(fld, prec), prec)}"


def cmd_cmsum(args):
    fld, sl = load_lattice(args.lattice)
    form = load_form(args.form, sl)
    vol_kt = _rational("--vol-kt", args.vol_kt) if args.vol_kt else None
    _check_prec(args.prec, "--prec")
    report = log_psi_product(form, sl, fld, vol_kt)
    for line in _report_lines(report, fld, form, args.prec):
        print(line)
    phi = phi_average(form, sl, fld, vol_kt)
    print(f"phi_so_integral={phi.value.render()}")
    print(f"phi_cycle_sum={phi.cycle_sum.render()}")
    return 0


def cmd_factor(args):
    fld, sl = load_lattice(args.lattice)
    form = load_form(args.form, sl)
    vol_kt = _rational("--vol-kt", args.vol_kt) if args.vol_kt else None
    report = log_psi_product(form, sl, fld, vol_kt)
    if report.kzero_coeff != 0:
        raise ValueError(
            "product is not rational: kzero_coeff = "
            f"{report.kzero_coeff} is nonzero"
        )
    value = report.rational_value()
    print(f"rat={_digits(value.numerator)}/{_digits(value.denominator)}")
    print(f"factored={report.rational_part.serialize()}")
    return 0


def cmd_gz(args):
    from .gzoracle import gz_product, gz_support_check

    result = gz_product(args.d1, args.d2, args.prec)
    print(f"product={_digits(result.product)}")
    print(f"factored={result.factored_string()}")
    ok, violations = gz_support_check(result)
    print(f"support={'OK' if ok else 'FAIL'}")
    if violations:
        print(f"violations={violations}")
    print(f"precision_used={result.precision_used}")
    print(f"margin={result.margin:.3g}")
    print(f"doublings={result.doublings}")
    return 0


def cmd_selftest(args):
    from .acceptance import run_all

    return 0 if run_all() else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bcm",
        description="Exact CM values of Borcherds forms: fields, kappa "
        "constants, lattices, form tables, and the Gross-Zagier oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="imaginary quadratic field data")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--prec", type=int, default=None, help="also print k0(0)")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("kappa", help="the constant kappa(t, mu, a)")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--ideal", default="unit")
    p.add_argument("--mu", type=int, default=0, help="dual coset label")
    p.add_argument("-t", required=True, help="rational index a/b")
    p.set_defaults(fn=cmd_kappa)

    p = sub.add_parser("whittaker", help="local Whittaker polynomials at t")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--ideal", default="unit")
    p.add_argument("--mu", type=int, default=0)
    p.add_argument("-t", required=True)
    p.set_defaults(fn=cmd_whittaker)

    p = sub.add_parser("form", help="validate a coefficient table")
    p.add_argument("action", choices=["validate", "mmax"])
    p.add_argument("file")
    p.add_argument("--lattice", required=True)
    p.set_defaults(fn=cmd_form)

    p = sub.add_parser("qexp", help="classical q-expansions")
    p.add_argument("name", choices=["delta", "e4", "e6", "j"])
    p.add_argument("-N", type=int, required=True,
                   help=f"highest exponent (at most {QEXP_MAX_N})")
    p.set_defaults(fn=cmd_qexp)

    p = sub.add_parser("cmsum", help="averaged CM value report")
    p.add_argument("--form", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--vol-kt", dest="vol_kt", default=None)
    p.add_argument("--prec", type=int, default=64,
                   help="digits of numeric= (default 64)")
    p.set_defaults(fn=cmd_cmsum)

    p = sub.add_parser(
        "factor", help="exp of the rational part as a factored rational"
    )
    p.add_argument("--form", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--vol-kt", dest="vol_kt", default=None)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("gz", help="Gross-Zagier singular moduli product")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--prec", type=int, default=None)
    p.set_defaults(fn=cmd_gz)

    p = sub.add_parser("selftest", help="run all acceptance sweeps")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.fn(args)
        finally:
            # also after --help: a closed stdout fails inside this handler
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and point stdout at
        # devnull so that the flush at exit does not fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
