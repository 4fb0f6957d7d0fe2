"""Shared tolerance defaults and the frozen sign conventions.

Residual comparisons use atol + rtol * magnitude.  The curvature sign
conventions are pinned by two calibration tests (round-sphere factor
has positive scalar curvature; the Lie-group catalog entry satisfies
the field equations with zero residual) and must not be changed
independently of those tests.
"""

ATOL = 1e-10
RTOL = 1e-8

DEFAULT_SAMPLES = 100
BOX_SHRINK = 0.05
SEED_ENV_VAR = "WEFE_SEED"

# ricci = RICCI_SIGN * g^{il} R~_{ijkl} where R~ is the Christoffel-form
# curvature g_{lm}(d_i G^m_jk - d_j G^m_ik + G G - G G).  RICCI_SIGN = +1
# makes the round sphere positively curved.
RICCI_SIGN = +1.0

# The exposed valence-4 curvature R(X,Y,Z,U) uses the opposite sign,
# R = -R~, which is the unique choice making W = R - P (kn) g totally
# trace-free with the standard Kulkarni-Nomizu product.
RIEMANN_SIGN = -RICCI_SIGN

# Solution verdict threshold: gh_residual < SOLUTION_TOL * (1 + |h||rho|).
SOLUTION_TOL = 1e-8

# Gradient-of-density dead bands; classify.causal_character scales the
# second by |dh|^2 max(1, max|g^-1|).
GRAD_ZERO_TOL = 1e-10
CAUSAL_DEADBAND = 1e-10
