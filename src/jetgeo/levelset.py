"""Energy level sets.

The HIV-1 energy surfaces {EYM = C} are classified in closed form through the
invariants of the generating conic: below the critical level n^2 delta^2 / 8
the set is empty, at it the surface degenerates to a line, above it the
surface is a right elliptic cylinder. The tumor model's zero-energy locus is
the graph of a rational function. Arbitrary systems get numeric contour
extraction on 2-d slices via marching squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .expr import EvaluationError, compile_expr, simplify, substitute
from .geometry import OdeSystem, electromagnetic_form, jacobian, nonlinear_connection, yang_mills_energy
from .models import require_positive

__all__ = [
    "EmptySet",
    "Line",
    "EllipticCylinder",
    "RationalCurve",
    "Contours",
    "LevelSetResult",
    "QuadricInvariants",
    "hiv_invariants",
    "classify_hiv_level_set",
    "cancer_zero_curve",
    "marching_squares",
    "extract_contours",
]

#: relative half-width of the degeneracy band around the critical level
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class EmptySet:
    """Level set with no real points."""


@dataclass(frozen=True)
class Line:
    """Degenerate level set: a straight line (point + direction)."""

    point: tuple[float, ...]
    direction: tuple[float, ...]


@dataclass(frozen=True)
class EllipticCylinder:
    """Right elliptic cylinder with axis along the named free coordinate.

    Cross-section: ((T - center_T)/a)^2 + (V/b)^2 = 1 with 0 < a < b.
    """

    center_T: float
    semi_axis_a: float
    semi_axis_b: float
    axis: str

    def __post_init__(self):
        if not (0.0 < self.semi_axis_a < self.semi_axis_b):
            raise ValueError(
                f"need 0 < a < b, got a={self.semi_axis_a}, b={self.semi_axis_b}"
            )


@dataclass(frozen=True)
class RationalCurve:
    """Sampled graph of a rational function, with excluded pole locations."""

    samples: tuple[tuple[float, float], ...]
    poles: tuple[float, ...] = ()


@dataclass(frozen=True)
class Contours:
    """Numerically extracted level curves on a 2-d slice."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]


LevelSetResult = Union[EmptySet, Line, EllipticCylinder, RationalCurve, Contours]


@dataclass(frozen=True)
class QuadricInvariants:
    """Invariants of the conic generating the HIV-1 energy surface at level C."""

    discriminant: float  # Delta_C = k^4 (n^2 delta^2 - 8 C)
    minor: float  # delta = 2 k^4
    trace: float  # I = 3 k^2
    critical_level: float  # C* = n^2 delta^2 / 8


def hiv_invariants(k: float, n: float, delta: float, C: float) -> QuadricInvariants:
    require_positive(k=k, n=n, delta=delta)
    if C < 0.0:
        raise ValueError(f"level must be nonnegative, got {C}")
    return QuadricInvariants(
        discriminant=k**4 * ((n * delta) ** 2 - 8.0 * C),
        minor=2.0 * k**4,
        trace=3.0 * k**2,
        critical_level=(n * delta) ** 2 / 8.0,
    )


def classify_hiv_level_set(
    k: float, n: float, delta: float, C: float, eps: float = DEGENERACY_EPS
) -> LevelSetResult:
    """Classify {EYM = C} for the HIV-1 flow.

    Below the critical level C* = n^2 delta^2 / 8 the set is empty; within a
    relative eps band of C* it is the line T = n delta / (2k), V = 0 (Tstar
    free); above it, a right elliptic cylinder around that line.
    """
    require_positive(k=k, n=n, delta=delta)
    if C < 0.0:
        raise ValueError(f"level must be nonnegative, got {C}")
    c_star = (n * delta) ** 2 / 8.0
    center = n * delta / (2.0 * k)
    if C < c_star * (1.0 - eps):
        return EmptySet()
    if C <= c_star * (1.0 + eps):
        return Line(point=(center, 0.0, 0.0), direction=(0.0, 1.0, 0.0))
    spread = math.sqrt(8.0 * C - (n * delta) ** 2)
    return EllipticCylinder(
        center_T=center,
        semi_axis_a=spread / (2.0 * k),
        semi_axis_b=spread / (k * math.sqrt(2.0)),
        axis="Tstar",
    )


def cancer_zero_curve(
    a: float, h: float, k: float, P_samples: Sequence[float]
) -> RationalCurve:
    """Zero-energy locus of the tumor model as a sampled rational graph:

        Q(P) = P (1 + k P^2) [h - (2a + 1)(1 + k P^2)]
               / [a (1 + k P^2)^2 - h (1 - k P^2)]

    P values where the denominator vanishes (relative to the magnitude of its
    terms) are excluded and reported as poles.
    """
    require_positive(a=a, h=h, k=k)
    if len(P_samples) == 0:
        raise ValueError("empty P sample list")
    samples = []
    poles = []
    for P in map(float, P_samples):
        if not math.isfinite(P):
            raise ValueError(f"non-finite sample {P}")
        w = 1.0 + k * P * P
        term_a = a * w * w
        term_h = h * (1.0 - k * P * P)
        den = term_a - term_h
        if abs(den) <= 1e-12 * (1.0 + max(abs(term_a), abs(term_h))):
            poles.append(P)
            continue
        num = P * w * (h - (2.0 * a + 1.0) * w)
        samples.append((P, num / den))
    return RationalCurve(tuple(samples), tuple(poles))


# ---------------------------------------------------------------------------
# marching squares

_SEGMENTS = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    3: (("left", "right"),),
    4: (("right", "top"),),
    6: (("bottom", "top"),),
    7: (("left", "top"),),
    8: (("top", "left"),),
    9: (("bottom", "top"),),
    11: (("right", "top"),),
    12: (("left", "right"),),
    13: (("bottom", "right"),),
    14: (("left", "bottom"),),
}


def marching_squares(
    xs: np.ndarray,
    ys: np.ndarray,
    values: np.ndarray,
    level: float,
    center_values: np.ndarray | None = None,
) -> list[list[tuple[float, float]]]:
    """Polylines of {f = level} from node samples values[ix, iy] = f(xs[ix], ys[iy]).

    Crossing points are linearly interpolated along cell edges. Saddle cells
    are disambiguated by the cell-center value (given, or the corner mean).
    Output is deterministic for fixed inputs.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (xs.size, ys.size):
        raise ValueError("values must have shape (len(xs), len(ys))")
    if xs.size < 2 or ys.size < 2:
        raise ValueError("need at least a 2x2 grid")
    inside = values < level

    # one interpolated crossing per grid edge, shared by both adjacent cells
    crossings: dict[tuple, tuple[float, float]] = {}

    def crossing(kind: str, ix: int, iy: int) -> tuple:
        key = (kind, ix, iy)
        if key not in crossings:
            if kind == "h":
                f0, f1 = values[ix, iy], values[ix + 1, iy]
                t = (level - f0) / (f1 - f0)
                crossings[key] = (xs[ix] + t * (xs[ix + 1] - xs[ix]), ys[iy])
            else:
                f0, f1 = values[ix, iy], values[ix, iy + 1]
                t = (level - f0) / (f1 - f0)
                crossings[key] = (xs[ix], ys[iy] + t * (ys[iy + 1] - ys[iy]))
        return key

    segments: list[tuple[tuple, tuple]] = []
    for ix in range(xs.size - 1):
        for iy in range(ys.size - 1):
            case = (
                int(inside[ix, iy])
                | int(inside[ix + 1, iy]) << 1
                | int(inside[ix + 1, iy + 1]) << 2
                | int(inside[ix, iy + 1]) << 3
            )
            if case in (0, 15):
                continue
            if case in (5, 10):
                if center_values is not None:
                    center = float(center_values[ix, iy])
                else:
                    center = float(
                        values[ix, iy]
                        + values[ix + 1, iy]
                        + values[ix + 1, iy + 1]
                        + values[ix, iy + 1]
                    ) / 4.0
                connected = center < level
                if case == 5:
                    pairs = (
                        (("bottom", "right"), ("top", "left"))
                        if connected
                        else (("bottom", "left"), ("top", "right"))
                    )
                else:
                    pairs = (
                        (("bottom", "left"), ("top", "right"))
                        if connected
                        else (("bottom", "right"), ("top", "left"))
                    )
            else:
                pairs = _SEGMENTS[case]
            edge_keys = {
                "bottom": ("h", ix, iy),
                "top": ("h", ix, iy + 1),
                "left": ("v", ix, iy),
                "right": ("v", ix + 1, iy),
            }
            for e1, e2 in pairs:
                k1 = crossing(*edge_keys[e1])
                k2 = crossing(*edge_keys[e2])
                segments.append((k1, k2))

    return _assemble(segments, crossings)


def _assemble(
    segments: list[tuple[tuple, tuple]],
    crossings: dict[tuple, tuple[float, float]],
) -> list[list[tuple[float, float]]]:
    """Join segments sharing edge crossings into polylines, open curves first."""
    adjacency: dict[tuple, list[int]] = {}
    for idx, (k1, k2) in enumerate(segments):
        adjacency.setdefault(k1, []).append(idx)
        adjacency.setdefault(k2, []).append(idx)

    used = [False] * len(segments)

    def walk(start: tuple) -> list[tuple]:
        path = [start]
        node = start
        while True:
            nxt_idx = next(
                (i for i in adjacency[node] if not used[i]),
                None,
            )
            if nxt_idx is None:
                return path
            used[nxt_idx] = True
            k1, k2 = segments[nxt_idx]
            node = k2 if k1 == node else k1
            path.append(node)

    polylines = []
    open_starts = sorted(key for key, idxs in adjacency.items() if len(idxs) == 1)
    for start in open_starts:
        if all(used[i] for i in adjacency[start]):
            continue
        polylines.append(walk(start))
    for idx in range(len(segments)):
        if not used[idx]:
            polylines.append(walk(segments[idx][0]))
    return [[crossings[key] for key in path] for path in polylines]


def extract_contours(
    s: OdeSystem,
    axes: tuple[str, str],
    fixed: Mapping[str, float],
    box: tuple[tuple[float, float], tuple[float, float]],
    level: float,
    grid: int,
) -> Contours:
    """Marching-squares contours of {EYM = level} on a 2-d slice of state space.

    The two `axes` states vary over `box`; every remaining state must be bound
    in `fixed`. Grid resolution is the number of cells per side. A pole in
    the box is an error: if the energy is non-finite at any grid node or cell
    centre, an EvaluationError gives their count and the first location.
    """
    u, v = axes
    if u == v:
        raise ValueError("axes must be distinct")
    for name in axes:
        if name not in s.state_names:
            raise ValueError(f"axis {name!r} is not a state variable")
    remaining = set(s.state_names) - {u, v}
    unbound = remaining - set(fixed)
    if unbound:
        raise ValueError(f"unbound remaining states: {sorted(unbound)}")
    if grid < 8:
        raise ValueError(f"grid resolution must be at least 8, got {grid}")
    if level < 0.0:
        raise ValueError(f"level must be nonnegative, got {level}")

    energy = yang_mills_energy(electromagnetic_form(nonlinear_connection(jacobian(s))))
    bindings = dict(s.params)
    bindings.update({name: float(fixed[name]) for name in remaining})
    field = simplify(substitute(energy, bindings))
    fn = compile_expr(field, (u, v))

    (ulo, uhi), (vlo, vhi) = box
    us = np.linspace(ulo, uhi, grid + 1)
    vs = np.linspace(vlo, vhi, grid + 1)
    uc, vc = 0.5 * (us[:-1] + us[1:]), 0.5 * (vs[:-1] + vs[1:])
    grids, bad = [], []
    with np.errstate(all="ignore"):
        for a, b in ((us, vs), (uc, vc)):
            f = np.broadcast_to(np.asarray(fn(a[:, None], b[None, :]), dtype=float), (a.size, b.size))
            bad += [(a[i], b[j]) for i, j in np.argwhere(~np.isfinite(f))]
            grids.append(f)
    if bad:
        raise EvaluationError(
            f"energy is non-finite at {len(bad)} grid nodes and cell centres, "
            f"first at {u}={bad[0][0]:.6g}, {v}={bad[0][1]:.6g}"
        )
    values, centers = grids
    polylines = marching_squares(us, vs, values, level, centers)
    return Contours(
        level=float(level),
        polylines=tuple(tuple(points) for points in polylines),
    )
