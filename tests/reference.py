"""Reference implementations that the tests compare the package against.

`evaluate` is the tree-walking interpreter of expression trees: the package
evaluates only through `jetgeo.expr.compile_expr`, and the tests check the
compiled path and the sampler against this one. `numerically_equivalent` is
the sampling oracle's verdict at a relative tolerance.
`euler_lagrange_residual` differentiates the least-squares Lagrangian twice,
where `jetgeo.variational.geodesic_check` compiles only the second-order
prolongation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from jetgeo.expr import (
    DEFAULT_SAMPLES,
    FUNCTIONS,
    Add,
    Box,
    Call,
    Div,
    EvaluationError,
    Expr,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Sym,
    differentiate,
    sample_deviation,
    to_string,
)
from jetgeo.geometry import ExprMatrix, OdeSystem
from jetgeo.variational import least_squares_lagrangian, velocity_names

#: relative tolerance of `numerically_equivalent`
DEFAULT_RTOL = 1e-9


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE-double evaluation. Domain errors name the offending subexpression."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise EvaluationError(f"unbound symbol '{e.name}'") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, Add):
        return evaluate(e.left, bindings) + evaluate(e.right, bindings)
    if isinstance(e, Sub):
        return evaluate(e.left, bindings) - evaluate(e.right, bindings)
    if isinstance(e, Mul):
        return evaluate(e.left, bindings) * evaluate(e.right, bindings)
    if isinstance(e, Div):
        num = evaluate(e.left, bindings)
        den = evaluate(e.right, bindings)
        if den == 0.0:
            raise EvaluationError(f"division by zero in '{to_string(e)}'")
        return num / den
    if isinstance(e, Pow):
        base = evaluate(e.base, bindings)
        try:
            return float(base**e.exponent)
        except ZeroDivisionError:
            raise EvaluationError(f"division by zero in '{to_string(e)}'") from None
        except OverflowError:
            raise EvaluationError(f"overflow in '{to_string(e)}'") from None
    if isinstance(e, Call):
        arg = evaluate(e.arg, bindings)
        if e.func == "sqrt" and arg < 0.0:
            raise EvaluationError(f"sqrt of negative in '{to_string(e)}'")
        if e.func == "log" and arg <= 0.0:
            raise EvaluationError(f"log of non-positive in '{to_string(e)}'")
        try:
            return FUNCTIONS[e.func](arg)
        except OverflowError:
            raise EvaluationError(f"overflow in '{to_string(e)}'") from None
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_matrix(m: ExprMatrix, bindings: Mapping[str, float]) -> np.ndarray:
    """Every entry of `m` by `evaluate`, as a (rows, cols) array."""
    values = [evaluate(e, bindings) for e in m.entries]
    return np.array(values, dtype=float).reshape(m.rows, m.cols)


def numerically_equivalent(
    e1: Expr,
    e2: Expr,
    domain: Box,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    rtol: float = DEFAULT_RTOL,
) -> bool:
    """True iff the sampled relative deviation stays within rtol on the box."""
    return sample_deviation(e1, e2, domain, samples=samples, seed=seed) <= rtol


def _residual_forms(s: OdeSystem) -> tuple[list[Expr], list[list[Expr]], list[list[Expr]]]:
    """Partials of L needed for the residual: dL/dx_i, and the second partials
    d2L/dx_j dx1_i and d2L/dx1_j dx1_i that expand d/dt along (x, x1, x2)."""
    L = least_squares_lagrangian(s)
    states = s.state_names
    vels = velocity_names(s)
    dLdx = [differentiate(L, name) for name in states]
    dLdv = [differentiate(L, name) for name in vels]
    mixed = [[differentiate(dLdv[i], xj) for xj in states] for i in range(s.n)]
    accel = [[differentiate(dLdv[i], vj) for vj in vels] for i in range(s.n)]
    return dLdx, mixed, accel


def euler_lagrange_residual(
    s: OdeSystem,
    x: Sequence[float],
    x1: Sequence[float],
    x2: Sequence[float],
) -> np.ndarray:
    """Residual dL/dx_i - d/dt(dL/dx1_i) with d/dt expanded along (x, x1, x2).

    Zero exactly when x2 equals the second-order prolongation at (x, x1).
    """
    if not (len(x) == len(x1) == len(x2) == s.n):
        raise ValueError(f"expected three vectors of length {s.n}")
    dLdx, mixed, accel = _residual_forms(s)
    point = dict(s.params)
    point.update(zip(s.state_names, map(float, x)))
    point.update(zip(velocity_names(s), map(float, x1)))
    res = np.empty(s.n)
    for i in range(s.n):
        total_dt = 0.0
        for j in range(s.n):
            total_dt += evaluate(mixed[i][j], point) * float(x1[j])
            total_dt += evaluate(accel[i][j], point) * float(x2[j])
        res[i] = evaluate(dLdx[i], point) - total_dt
    return res
