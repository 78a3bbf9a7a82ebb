"""Exact Pfaffian minor summation toolkit.

Commutative and enveloping-algebra Pfaffians of anti-alternating
matrices, their minor summation expansions, the exterior-calculus route
through 2-form powers, and the central-element eigenvalue identity, all
over exact rationals.

Every command and benchmark pass starts a fresh interpreter, so the
record types (`HighestWeight`, `Forms`, `CheckResult`,
`VerificationReport`) are plain classes with `__slots__`, not
dataclasses: `dataclasses` would import `inspect`, `ast`, `dis` and
`tokenize` on every start.
"""

from .rings import Poly, PolyParseError, parse_poly, parse_rational
from .linalg import SingularMatrixError
from .pfaffian import (
    AlternatingMatrix,
    AntiAlternatingMatrix,
    ShapeError,
    complementary_minor_check,
    copfaffian_expansion_check,
    copfaffian_expansion_residuals,
    copfaffian_matrix,
    equivariance_check,
    minor_summation_rhs,
    pfaffian,
    pfaffian_definitional,
    pfaffian_of_anti_alternating,
    random_orthogonal_cayley,
    verify_minor_summation,
)
from .uea import (
    Generator,
    HighestWeight,
    UEAElement,
    bracket,
    build_canonical_x,
    centrality_failures,
    eigenvalue_product,
    hc_coefficient,
    nc_minor_summation_rhs,
    nc_pfaffian,
    nc_pfaffian_unrestricted,
    normal_order,
    signed_generator,
)
from .grassmann import (
    Forms,
    GrassmannElement,
    build_forms,
    check_eta_anticommute,
    check_sl2,
    check_structure,
    check_theta_powers,
    check_top_form_route,
    check_trinomial,
    check_xi_power_formula,
    eta,
    pfaffian_from_top_form,
    xi_shifted_power,
)
from . import matrixio
from .verify import (
    BoundExceededError,
    CheckResult,
    VerificationReport,
    central_suite,
    forms_suite,
    msf_suite,
    ncmsf_suite,
    run_suite,
)

__version__ = "0.1.0"
