"""Least-squares action machinery for first-order flows.

The scalar L(x, x1) = sum_i (x1_i - X^i(x))^2 vanishes exactly on flow data
and its Euler-Lagrange stationarity condition is the second-order system
x'' = (J - J^T) x' + J^T X =: P(x, x'); its residual dL/dx - d/dt dL/dx'
equals 2 (P(x, x') - x''). Flow lines therefore satisfy the second-order
equations; `geodesic_check` verifies that numerically on integrated
trajectories using central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (
    Expr,
    Num,
    Sub,
    Sym,
    compile_expr,
    differentiate,
    evaluate,
    simplify,
    substitute,
)
from .geometry import OdeSystem, VerificationRecord, jacobian

__all__ = [
    "VELOCITY_PREFIX",
    "velocity_names",
    "least_squares_lagrangian",
    "second_order_prolongation",
    "euler_lagrange_residual",
    "Trajectory",
    "IntegrationError",
    "integrate_flow",
    "geodesic_check",
]

VELOCITY_PREFIX = "x1_"


def velocity_names(s: OdeSystem) -> tuple[str, ...]:
    """Velocity symbol per state; collisions with existing names are rejected."""
    names = tuple(VELOCITY_PREFIX + name for name in s.state_names)
    clash = set(names) & (set(s.state_names) | set(s.params))
    if clash:
        raise ValueError(f"velocity symbols collide with declared names: {sorted(clash)}")
    return names


def least_squares_lagrangian(s: OdeSystem) -> Expr:
    """L(x, x1) = sum_i (x1_i - X^i(x))^2; nonnegative, zero exactly on-flow."""
    terms: Expr = Num(0.0)
    for vname, comp in zip(velocity_names(s), s.components):
        terms = terms + Sub(Sym(vname), comp) ** 2
    return simplify(terms)


def second_order_prolongation(s: OdeSystem) -> tuple[Expr, ...]:
    """Acceleration field x'' = (J - J^T) x' + J^T X in states and velocities."""
    J = jacobian(s)
    vel = [Sym(name) for name in velocity_names(s)]
    out = []
    for i in range(s.n):
        acc: Expr = Num(0.0)
        for j in range(s.n):
            acc = acc + Sub(J[i, j], J[j, i]) * vel[j]
            acc = acc + J[j, i] * s.components[j]
        out.append(simplify(acc))
    return tuple(out)


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


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution curve. Samples are read-only, shape (m, n)."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("trajectory needs a 2-d sample array with at least 2 rows")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.shape[0])

    def to_csv(self, state_names: Sequence[str]) -> str:
        """CSV with header t,<var1>,...,<varn> at full double precision."""
        if len(state_names) != self.samples.shape[1]:
            raise ValueError("state name count does not match sample width")
        lines = ["t," + ",".join(state_names)]
        for t, row in zip(self.times, self.samples):
            lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
        return "\n".join(lines) + "\n"


class IntegrationError(RuntimeError):
    """Integration aborted; carries the time and state where it failed."""

    def __init__(self, message: str, time: float, state: Sequence[float]):
        state_text = ", ".join(f"{v:.6g}" for v in state)
        super().__init__(f"{message} at t={time:.6g}, state=({state_text})")
        self.time = time
        self.state = tuple(state)


def integrate_flow(
    s: OdeSystem,
    x0: Sequence[float],
    t_end: float,
    dt: float,
    t0: float = 0.0,
) -> Trajectory:
    """Classical fixed-step 4-stage Runge-Kutta from x0, sampling at t0 + m*dt."""
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if dt >= t_end:
        raise ValueError("dt must be smaller than t_end")
    if len(x0) != s.n:
        raise ValueError(f"initial state must have length {s.n}")
    steps = int(round(t_end / dt))
    funcs = [
        compile_expr(simplify(substitute(comp, s.params)), s.state_names)
        for comp in s.components
    ]

    def rhs(state: list[float]) -> list[float]:
        return [f(*state) for f in funcs]

    state = [float(v) for v in x0]
    samples = [list(state)]
    # numpy functions raise on a domain error or overflow, as Python arithmetic does
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        for m in range(steps):
            t = t0 + m * dt
            try:
                k1 = rhs(state)
                k2 = rhs([x + 0.5 * dt * k for x, k in zip(state, k1)])
                k3 = rhs([x + 0.5 * dt * k for x, k in zip(state, k2)])
                k4 = rhs([x + dt * k for x, k in zip(state, k3)])
                state = [
                    x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                    for x, a, b, c, d in zip(state, k1, k2, k3, k4)
                ]
            except ArithmeticError as exc:
                raise IntegrationError(f"evaluation failed ({exc})", t, state) from exc
            if not all(math.isfinite(v) for v in state):
                raise IntegrationError("state became non-finite", t + dt, state)
            samples.append(list(state))
    return Trajectory(t0=t0, dt=dt, samples=np.array(samples))


def geodesic_check(
    s: OdeSystem,
    traj: Trajectory,
    tolerance: float | None = None,
) -> VerificationRecord:
    """Euler-Lagrange residual along a trajectory, velocities and accelerations
    approximated by central differences at interior samples.

    The residual of L equals 2 (P(x, x') - x''), P the second-order
    prolongation, so only the n entries of P are compiled; nothing is
    differentiated beyond J. `euler_lagrange_residual` is the reference.

    Default tolerance is 1e-4 * (1 + max state norm), matching the O(dt^2)
    discretization error of the central differences at dt = 1e-3.
    """
    x = traj.samples
    if x.shape[0] < 3:
        raise ValueError("trajectory too short: need at least 3 samples")
    if x.shape[1] != s.n:
        raise ValueError(f"trajectory width {x.shape[1]} does not match n={s.n}")
    dt = traj.dt
    mid = x[1:-1]
    vel = (x[2:] - x[:-2]) / (2.0 * dt)
    acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (dt * dt)

    args = list(s.state_names) + list(velocity_names(s))
    cols = [mid[:, j] for j in range(s.n)] + [vel[:, j] for j in range(s.n)]
    residual = np.empty_like(mid)
    for i, accel in enumerate(second_order_prolongation(s)):
        fn = compile_expr(simplify(substitute(accel, s.params)), args)
        residual[:, i] = 2.0 * (fn(*cols) - acc[:, i])

    norms = np.linalg.norm(residual, axis=1)
    worst_idx = int(np.argmax(norms))
    worst = float(norms[worst_idx])
    if tolerance is None:
        tolerance = 1e-4 * (1.0 + float(np.max(np.linalg.norm(x, axis=1))))
    detail = f"worst at interior sample {worst_idx + 1} (t={traj.t0 + (worst_idx + 1) * dt:.6g})"
    return VerificationRecord("geodesic_residual", worst <= tolerance, worst, tolerance, detail)
