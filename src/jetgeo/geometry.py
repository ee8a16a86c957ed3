"""Geometric objects attached to a first-order autonomous ODE system.

For x' = X(x) on R^n (one fixed global chart, Euclidean metric, n >= 2)
`derive` computes the Jacobian J of the field once and builds every other
object from the one before it:

    nonlinear connection   N = -1/2 (J - J^T)
    torsion slices         R_k = dN/dx^k            (one matrix per state)
    electromagnetic 2-form F = -N
    Yang-Mills energy      EYM = 1/2 Tr(F F^T) = sum_{i<j} F_ij^2

The adapted components of the generalized Cartan connection and of the
curvature tensor vanish identically in this flat setting; that is stated,
not computed. N and F are antisymmetric and F = -N by construction: N_ij
and N_ji come from the same two entries of J, and each sign change on the way
is exact in floating point. The test suite covers these identities; nothing
re-checks them at runtime. F satisfies the cyclic Maxwell identity with the
covariant derivative reduced to the plain partial derivative, which
`maxwell_check` verifies numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .expr import (
    DEFAULT_SAMPLES,
    Box,
    Expr,
    Neg,
    Num,
    Sub,
    differentiate,
    free_symbols,
    parse_expression,
    sample_points,
    simplify,
    to_string,
)

__all__ = [
    "OdeSystem",
    "ExprMatrix",
    "VerificationRecord",
    "Derivation",
    "GeometryReport",
    "derive",
    "jacobian",
    "nonlinear_connection",
    "torsion",
    "electromagnetic_form",
    "yang_mills_energy",
    "maxwell_check",
    "analyze",
    "default_domain",
]

#: relative tolerance for rational-function identities
RATIONAL_TOL = 1e-9


@dataclass(frozen=True)
class ExprMatrix:
    """Dense matrix of expressions, row-major."""

    rows: int
    cols: int
    entries: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    def entry(self, i: int, j: int) -> Expr:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range")
        return self.entries[i * self.cols + j]

    def __getitem__(self, ij: tuple[int, int]) -> Expr:
        return self.entry(*ij)

    def map(self, fn: Callable[[Expr], Expr]) -> "ExprMatrix":
        return ExprMatrix(self.rows, self.cols, tuple(fn(e) for e in self.entries))

    def __iter__(self) -> Iterator[Expr]:
        return iter(self.entries)

    def __str__(self) -> str:
        grid = [
            [to_string(self.entry(i, j)) for j in range(self.cols)]
            for i in range(self.rows)
        ]
        widths = [max(len(grid[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = [
            "[ " + ", ".join(grid[i][j].ljust(widths[j]) for j in range(self.cols)) + " ]"
            for i in range(self.rows)
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class OdeSystem:
    """First-order autonomous system x' = X(x) with named states and parameters."""

    state_names: tuple[str, ...]
    components: tuple[Expr, ...]
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        n = len(self.state_names)
        if n < 2:
            raise ValueError(f"need at least 2 state variables, got {n}")
        if len(set(self.state_names)) != n:
            raise ValueError("duplicate state variable names")
        if len(self.components) != n:
            raise ValueError(
                f"{n} states but {len(self.components)} component expressions"
            )
        overlap = set(self.state_names) & set(self.params)
        if overlap:
            raise ValueError(f"names used as both state and parameter: {sorted(overlap)}")
        allowed = set(self.state_names) | set(self.params)
        for name, comp in zip(self.state_names, self.components):
            stray = free_symbols(comp) - allowed
            if stray:
                raise ValueError(
                    f"component for {name!r} uses undeclared symbols: {sorted(stray)}"
                )

    @property
    def n(self) -> int:
        return len(self.state_names)

    @classmethod
    def from_strings(
        cls,
        state_names: Sequence[str],
        components: Sequence[str],
        params: Mapping[str, float] | None = None,
    ) -> "OdeSystem":
        params = dict(params or {})
        known = list(state_names) + list(params)
        exprs = tuple(parse_expression(text, known) for text in components)
        return cls(tuple(state_names), exprs, params)


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one numeric identity check."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        # checks compute with numpy; store built-in types
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_deviation", float(self.max_deviation))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def status_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} {self.max_deviation:.3e}"


@dataclass(frozen=True)
class Derivation:
    """The Jacobian of one system and every object built from it."""

    system: OdeSystem
    jacobian: ExprMatrix
    connection: ExprMatrix
    torsion: tuple[ExprMatrix, ...]
    electromagnetic: ExprMatrix
    yang_mills_energy: Expr


@dataclass(frozen=True)
class GeometryReport(Derivation):
    """A derivation plus the verdicts of its identity checks."""

    maxwell: VerificationRecord

    def records(self) -> tuple[VerificationRecord, ...]:
        return (self.maxwell,)

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records())


# ---------------------------------------------------------------------------
# derived objects


def derive(s: OdeSystem) -> Derivation:
    """Differentiate the field once and build N, R_k, F and EYM from J."""
    J = jacobian(s)
    N = nonlinear_connection(J)
    F = electromagnetic_form(N)
    return Derivation(s, J, N, torsion(N, s.state_names), F, yang_mills_energy(F))


def jacobian(s: OdeSystem) -> ExprMatrix:
    """Matrix of partials dX^i/dx^j."""
    entries = tuple(
        differentiate(comp, name) for comp in s.components for name in s.state_names
    )
    return ExprMatrix(s.n, s.n, entries)


def nonlinear_connection(J: ExprMatrix) -> ExprMatrix:
    """Canonical nonlinear connection N = -1/2 (J - J^T); antisymmetric."""
    n = J.rows
    entries = tuple(
        simplify(Num(-0.5) * Sub(J[i, j], J[j, i]))
        for i in range(n)
        for j in range(n)
    )
    return ExprMatrix(n, n, entries)


def torsion(N: ExprMatrix, state_names: Sequence[str]) -> tuple[ExprMatrix, ...]:
    """Torsion slices R_k = dN/dx^k, one antisymmetric matrix per state."""
    return tuple(N.map(lambda e, name=name: differentiate(e, name)) for name in state_names)


def electromagnetic_form(N: ExprMatrix) -> ExprMatrix:
    """Electromagnetic 2-form component matrix F = -N (entrywise negation)."""
    return N.map(lambda e: simplify(Neg(e)))


def yang_mills_energy(F: ExprMatrix) -> Expr:
    """Yang-Mills energy 1/2 Tr(F F^T) as the triangular sum sum_{i<j} F_ij^2."""
    triangular: Expr = Num(0.0)
    for i in range(F.rows):
        for j in range(i + 1, F.cols):
            triangular = triangular + F[i, j] ** 2
    return simplify(triangular)


# ---------------------------------------------------------------------------
# numeric identity checks


def default_domain(s: OdeSystem) -> dict[str, tuple[float, float]]:
    return {name: (0.1, 2.0) for name in s.state_names}


def maxwell_check(
    d: Derivation,
    domain: Box,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> VerificationRecord:
    """Cyclic identity d_k F_ij + d_i F_jk + d_j F_ki = 0 over all index triples.

    The covariant derivative reduces to the plain partial derivative in this
    flat setting, so d_k F_ij = -R_k[i, j] and the check evaluates the torsion
    slices; the cyclic sum of R has the same magnitude. Evaluated at sampled
    points; the tolerance scales with the largest partial-derivative magnitude
    seen.
    """
    s, n = d.system, d.system.n
    states = {name: box for name, box in domain.items() if name in s.state_names}
    probes = [e for R in d.torsion for e in R]
    r = sample_points(probes, states, samples, seed, s.params).reshape(-1, n, n, n)
    # r[m, k, i, j] = R_k[i, j] at draw m
    cyclic = r + r.transpose(0, 3, 1, 2) + r.transpose(0, 2, 3, 1)
    worst = float(np.max(np.abs(cyclic), initial=0.0))
    scale = float(np.max(np.abs(r), initial=0.0))
    tol = RATIONAL_TOL * (1.0 + scale)
    return VerificationRecord("maxwell", worst <= tol, worst, tol)


def analyze(s: OdeSystem, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> GeometryReport:
    """Derive every object for one system and verify its identities on the
    default domain."""
    d = derive(s)
    return GeometryReport(
        **vars(d),
        maxwell=maxwell_check(d, default_domain(s), samples=samples, seed=seed),
    )
