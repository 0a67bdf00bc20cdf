"""Exact projective geometry: Plücker and Segre labs over Q and F_p.

Rational computations run on Fractions and ints, finite-field ones on plain
ints mod p; ``linalg`` holds the shared row reduction helpers.
"""

from .plucker import (                                          # noqa: F401
    BiVector,
    collinearity_scan,
    dee_exhaustive_survey,
    grassmannian_membership,
    parse_bivector,
    plane_section,
)
from .segre import segre_fitting_report                         # noqa: F401
