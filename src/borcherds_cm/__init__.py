"""Exact averaged CM values of Borcherds forms on orthogonal Shimura
varieties: factored-logarithm arithmetic, imaginary quadratic field data,
local Whittaker polynomials, the closed-form kappa constants, lattice glue
machinery, q-expansions, the rational/transcendental value split, and a
singular-moduli numerical oracle."""

from .arith import FactoredLog, ZERO_LOG, factorize, hilbert_symbol, kronecker, valuation
from .forms import FourierForm, QExpansion, classical_qexp, load_form, m_max
from .kappa import KappaValue, kappa_at, kappa_positive
from .lattice import (
    IdealLattice,
    PosLattice,
    SplitLattice,
    enumerate_dual_cosets,
    make_ideal_lattice,
)
from .locwhit import eisenstein_deriv_coeff
from .cmvalue import (
    CMValueReport,
    c00_contraction,
    check_prime_support,
    contraction_coeffs,
    kappa_eta,
    log_psi_product,
    phi_average,
)
from .gzoracle import GZResult, gz_product, gz_support_check, j_value
from .quadfield import QuadField, make_field, reduced_forms

__version__ = "0.1.0"
