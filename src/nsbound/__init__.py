"""Width invariants, spectral density bounds and torus quadrature for
matrices over complex Laurent polynomial rings.

``analyze`` finds a maximal non-vanishing minor B of a matrix, the width
wd and leading coefficient of p = det(B), and the paper's bound
F(lambda) - F(0) <= C * k * d * wd * (k^(2k-2) * ||B||_1^(k-1) * lambda
/ |lead(p)|)^(1/(d*wd)), which is written once, in ``bounds``.  The
density functions estimate F on the torus so the bound can be checked.
"""

from .bounds import (
    INFINITE_TYPE,
    SPECTRAL_CONSTANT,
    BoundParameters,
    BoundReport,
    analyze,
    best_ordering,
    bound_coefficient,
    ns_lower_bound,
)
from .density import DensityCurve, TorusGrid, alpha_fit, matrix_density, scalar_density
from .matrices import (
    MinorCertificate,
    PolyMatrix,
    determinant,
    determinant_cofactor,
    iter_nonvanishing_minors,
    max_nonvanishing_minor,
    minor,
)
from .parsing import ParseError, format_matrix, format_poly, parse_matrix, parse_poly
from .poly import (
    GaussianRational,
    LaurentPoly,
    WidthProfile,
    lead_lex,
    width_profile,
)

__all__ = [
    "BoundParameters",
    "BoundReport",
    "DensityCurve",
    "GaussianRational",
    "INFINITE_TYPE",
    "LaurentPoly",
    "MinorCertificate",
    "ParseError",
    "PolyMatrix",
    "SPECTRAL_CONSTANT",
    "TorusGrid",
    "WidthProfile",
    "alpha_fit",
    "analyze",
    "best_ordering",
    "bound_coefficient",
    "determinant",
    "determinant_cofactor",
    "format_matrix",
    "format_poly",
    "iter_nonvanishing_minors",
    "lead_lex",
    "matrix_density",
    "max_nonvanishing_minor",
    "minor",
    "ns_lower_bound",
    "parse_matrix",
    "parse_poly",
    "scalar_density",
    "width_profile",
]
