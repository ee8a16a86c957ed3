"""Geometry of first-order autonomous ODE flows on 1-jet spaces.

Given x' = X(x) described symbolically, the engine derives the nonlinear
connection, torsion, electromagnetic 2-form and Yang-Mills energy of the
flow, verifies their defining identities, checks that integrated flow lines
satisfy the Euler-Lagrange equations of the least-squares action, and
classifies energy level sets.
"""

from .expr import (
    EvaluationError,
    Expr,
    ParseError,
    differentiate,
    evaluate,
    free_symbols,
    numerically_equivalent,
    parse_expression,
    sample_deviation,
    simplify,
    substitute,
    to_string,
)
from .geometry import (
    ExprMatrix,
    Derivation,
    GeometryReport,
    OdeSystem,
    VerificationRecord,
    analyze,
    derive,
    electromagnetic_form,
    jacobian,
    maxwell_check,
    nonlinear_connection,
    torsion,
    yang_mills_energy,
)
from .levelset import (
    Contours,
    EllipticCylinder,
    EmptySet,
    Line,
    RationalCurve,
    cancer_zero_curve,
    classify_hiv_level_set,
    extract_contours,
    hiv_invariants,
    marching_squares,
)
from .models import (
    GoldenSet,
    builtin_model,
    cancer_model,
    golden_compare,
    golden_domain,
    hiv_model,
)
from .variational import (
    IntegrationError,
    Trajectory,
    euler_lagrange_residual,
    geodesic_check,
    integrate_flow,
    least_squares_lagrangian,
    second_order_prolongation,
)

__version__ = "0.1.0"
