"""Exact projective geometry over the rationals and prime fields."""

from .plucker import (                                          # noqa: F401
    BiVector,
    collinearity_scan,
    dee_exhaustive_survey,
    grassmannian_membership,
    parse_bivector,
    plane_section,
    span_with_ell,
)
from .segre import segre_fitting_report                         # noqa: F401
