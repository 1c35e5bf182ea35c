"""Numeric constants shared across the package."""

import math

# Reciprocal of the twice-punctured-plane hyperbolic density at -1:
# Gamma(1/4)^4 / (4 pi^2) = 4.376879230452955...
# Computed once from the standard library Gamma function.
KAPPA = math.gamma(0.25) ** 4 / (4.0 * math.pi ** 2)

# Additive constant appearing in the punctured-disk distance estimate and in
# the radial-collapse rough isometry.
PI_OVER_LOG2 = math.pi / math.log(2.0)

# Relative slack used when collecting near-nearest boundary points.
NEAREST_BOUNDARY_SLACK = 1e-9

# Relative tolerance for incidence tests (point on circle, tangency).
INCIDENCE_RTOL = 1e-9
