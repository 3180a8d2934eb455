"""ratfem: exact integration of bivariate rational polynomials on triangles,
with the singular Zienkiewicz and lowest-order Guzman-Neilan finite elements
built on top of it.
"""

__version__ = "0.1.0"

from .exact import INFINITE, ExactValue
from .quadrature import (MemoCache, compute_J, gauss_points, integral_mean,
                         integral_mean_beta2, integral_mean_combo,
                         integral_mean_poly, is_finite_index)
from .ratfun import RatCombo, bubble

__all__ = [
    "ExactValue", "INFINITE",
    "RatCombo", "bubble",
    "MemoCache", "compute_J", "integral_mean", "integral_mean_beta2",
    "integral_mean_combo", "integral_mean_poly", "is_finite_index",
    "gauss_points",
]
