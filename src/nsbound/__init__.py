"""Width invariants, spectral density bounds and torus quadrature for
matrices over complex Laurent polynomial rings.

``analyze`` finds a maximal non-vanishing minor B of a matrix, the width
wd and leading coefficient of p = det(B), and the paper's bound
F(lambda) - F(0) <= C * k * d * wd * (k^(2k-2) * ||B||_1^(k-1) * lambda
/ |lead(p)|)^(1/(d*wd)), whose coefficient the returned ``BoundReport``
computes, the one place it is written.  The density functions estimate F
on the torus so the bound can be checked.
"""

from .bounds import BoundReport, analyze
from .density import DensityCurve, TorusGrid, alpha_fit, matrix_density
from .matrices import MinorCertificate, PolyMatrix, determinant, determinant_cofactor, minor
from .parsing import ParseError, format_matrix, format_poly, parse_matrix, parse_poly
from .poly import GaussianRational, LaurentPoly, WidthProfile, width_profile

__all__ = [
    "BoundReport",
    "DensityCurve",
    "GaussianRational",
    "LaurentPoly",
    "MinorCertificate",
    "ParseError",
    "PolyMatrix",
    "TorusGrid",
    "WidthProfile",
    "alpha_fit",
    "analyze",
    "determinant",
    "determinant_cofactor",
    "format_matrix",
    "format_poly",
    "matrix_density",
    "minor",
    "parse_matrix",
    "parse_poly",
    "width_profile",
]
