"""Energy level sets.

For a system whose nonlinear connection N is affine in the states, the
energy is a quadratic, EYM = |M x + b|^2, and `classify_level_set` reads
{EYM = C} off the `Derivation`: empty below the critical level C*, the
minimiser's affine set at it, above it a quadric (for HIV-1, the paper's
line and right elliptic cylinder). Arbitrary systems get numeric contour
extraction on 2-d slices via marching squares; at level 0 a planar system's
contour is {N_12 = 0}, the zero-energy locus (for the tumor model, the graph
of a rational function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .expr import EvaluationError, compile_expr, free_symbols, simplify, substitute
from .geometry import Derivation, OdeSystem, derive

__all__ = [
    "Contours",
    "QuadricLevelSet",
    "classify_level_set",
    "marching_squares",
    "extract_contours",
]

#: relative width of the rank cut and of the band around the critical level
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class Contours:
    """Numerically extracted level curves on a 2-d slice."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]


@dataclass(frozen=True)
class QuadricLevelSet:
    """{EYM = level} for a quadratic energy: the points center + sum_i t_i
    semi_axes[i] axes[i] + span(free), |t| = 1, directions as unit vectors
    in state order. At the critical level every semi-axis is 0; an empty set
    has no axes and no free directions."""

    level: float
    critical_level: float
    center: tuple[float, ...]
    semi_axes: tuple[float, ...]
    axes: tuple[tuple[float, ...], ...]
    free: tuple[tuple[float, ...], ...]

    @property
    def empty(self) -> bool:
        return not (self.semi_axes or self.free)

    @property
    def kind(self) -> str:
        """Named by the number of non-zero semi-axes and of free directions."""
        if self.empty:
            return "empty"
        counts = (sum(a > 0.0 for a in self.semi_axes), len(self.free))
        return {
            (0, 0): "point", (0, 1): "line", (0, 2): "plane", (1, 1): "two parallel lines",
            (1, 2): "two parallel planes", (2, 0): "ellipse", (2, 1): "elliptic cylinder", (3, 0): "ellipsoid",
        }.get(counts, "quadric with %d semi-axes and %d free directions" % counts)


def _check_level(level: float) -> None:
    if not (math.isfinite(level) and level >= 0.0):
        raise ValueError(f"level must be finite and nonnegative, got {level}")


def classify_level_set(d: Derivation, level: float) -> QuadricLevelSet:
    """Classify {EYM = level} for a system whose N is affine in the states.

    Then EYM = sum_{i<j} N_ij^2 = |M x + b|^2 with M[(i,j), k] = R_k[i, j],
    the torsion, and b = N(0). The eigenvectors of M^T M whose eigenvalue
    exceeds DEGENERACY_EPS times the largest are the axes, the rest are
    free; the least-squares minimiser is the center, C* = |M center + b|^2.
    Below C* (relative band DEGENERACY_EPS) the set is empty, within the band
    every semi-axis is 0, above it each is sqrt((level - C*) / eigenvalue).
    A torsion entry that still depends on a state once the parameters are
    bound is a ValueError naming the entry and the state.
    """
    _check_level(level)
    s, n = d.system, d.system.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    entries = [R[i, j] for R in d.torsion for i, j in pairs] + [d.connection[i, j] for i, j in pairs]
    bound = [simplify(substitute(e, s.params)) for e in entries]
    for index, e in enumerate(bound[: n * m]):
        if free_symbols(e) & set(s.state_names):
            (i, j), state = pairs[index % m], s.state_names[index // m]
            raise ValueError(f"energy is not quadratic in the states: N_{i + 1}{j + 1} is not affine in {state}")
    values = np.array(compile_expr(bound, s.state_names)(*[0.0] * n), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("N or its torsion is not finite at the origin")
    M, b = values[: n * m].reshape(n, m).T, values[n * m :]

    eigenvalues, vectors = np.linalg.eigh(M.T @ M)
    # sign-normalise: first non-zero component positive, and no -0.0
    first = vectors[np.argmax(vectors != 0.0, axis=0), range(n)]
    vectors = np.where(first < 0.0, -vectors, vectors) + 0.0
    ranked = eigenvalues > DEGENERACY_EPS * eigenvalues[-1]
    lam, axes = eigenvalues[ranked], vectors[:, ranked]
    center = -(axes @ ((axes.T @ (M.T @ b)) / lam)) + 0.0
    c_star = float(np.sum((M @ center + b) ** 2))
    above = level > c_star * (1.0 + DEGENERACY_EPS)
    if level < c_star * (1.0 - DEGENERACY_EPS) or (above and not lam.size):
        return QuadricLevelSet(float(level), c_star, tuple(center.tolist()), (), (), ())
    semi_axes = np.sqrt((level - c_star if above else 0.0) / lam)
    rows = [tuple(map(tuple, a.T.tolist())) for a in (axes, vectors[:, ~ranked])]
    return QuadricLevelSet(float(level), c_star, tuple(center.tolist()), tuple(semi_axes.tolist()), *rows)


# ---------------------------------------------------------------------------
# marching squares

#: cell sides, numbered as the columns of `sides` in `marching_squares`
BOTTOM, RIGHT, TOP, LEFT = range(4)
#: segments of each cell case (bit 0 for the corner (ix, iy), then counter-
#: clockwise) as pairs of sides; a saddle (5, 10) whose centre is inside the
#: level set joins the other pair of opposite corners and has 16 added
_SEGMENTS = {
    1: ((LEFT, BOTTOM),),
    2: ((BOTTOM, RIGHT),),
    3: ((LEFT, RIGHT),),
    4: ((RIGHT, TOP),),
    5: ((BOTTOM, LEFT), (TOP, RIGHT)),
    6: ((BOTTOM, TOP),),
    7: ((LEFT, TOP),),
    8: ((TOP, LEFT),),
    9: ((BOTTOM, TOP),),
    10: ((BOTTOM, RIGHT), (TOP, LEFT)),
    11: ((RIGHT, TOP),),
    12: ((LEFT, RIGHT),),
    13: ((BOTTOM, RIGHT),),
    14: ((LEFT, BOTTOM),),
    21: ((BOTTOM, RIGHT), (TOP, LEFT)),
    26: ((BOTTOM, LEFT), (TOP, RIGHT)),
}
#: the sides of _SEGMENTS[case] in a row of 4, padded with -1
_ENDS = np.full((32, 4), -1)
for _case, _pairs in _SEGMENTS.items():
    _ENDS[_case, : 2 * len(_pairs)] = np.ravel(_pairs)


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
    Every cell's case, every edge crossing and the segments of every crossed
    cell are computed with numpy; Python loops only over the segments as it
    joins them, so its work grows with the number of crossed cells, not with
    the number of cells. A non-finite node or centre value, or centre values
    of a shape other than (len(xs) - 1, len(ys) - 1), is a ValueError.
    Output is deterministic for fixed inputs.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    nx, ny = xs.size, ys.size
    if values.shape != (nx, ny):
        raise ValueError("values must have shape (len(xs), len(ys))")
    if nx < 2 or ny < 2:
        raise ValueError("need at least a 2x2 grid")
    located = [("values", values, xs, ys, "nodes")]
    if center_values is not None:
        center_values = np.asarray(center_values, dtype=float)
        if center_values.shape != (nx - 1, ny - 1):
            raise ValueError(f"center_values must have shape {(nx - 1, ny - 1)}, got {center_values.shape}")
        centres = (xs[:-1] + xs[1:]) / 2, (ys[:-1] + ys[1:]) / 2
        located.append(("center_values", center_values, *centres, "cells"))
    for name, array, px, py, what in located:
        bad = np.flatnonzero(~np.isfinite(array))
        if bad.size:
            i, j = divmod(int(bad[0]), array.shape[1])
            raise ValueError(
                f"{name} is non-finite at {bad.size} of {array.size} {what}, "
                f"first at (x, y) = ({px[i]:.6g}, {py[j]:.6g})"
            )

    # flat indices throughout: node (ix, iy) is ix*ny + iy, cell (ix, iy) is ix*(ny-1) + iy
    f = values.ravel()
    inside = (values < level).astype(np.uint8)
    cases = (inside[:-1, :-1] | inside[1:, :-1] << 1 | inside[1:, 1:] << 2 | inside[:-1, 1:] << 3).ravel()
    saddles = np.flatnonzero((cases == 5) | (cases == 10))
    if center_values is None:
        k = saddles + saddles // (ny - 1)
        center = (f[k] + f[k + ny] + f[k + ny + 1] + f[k + 1]) / 4.0
    else:
        center = center_values.ravel()[saddles]
    cases[saddles] += np.uint8(16) * (center < level)

    # one crossing per bracketing edge, shared by both adjacent cells: first
    # the horizontal edges (ix, iy)-(ix+1, iy), whose id is the flat index
    # ix*ny + iy of their first node, then the vertical edges (ix, iy)-(ix, iy+1)
    # with id nh + ix*(ny-1) + iy; each in increasing id, so a crossing's
    # index orders it by edge id
    h = np.flatnonzero(inside[:-1, :] != inside[1:, :])
    v = np.flatnonzero(inside[:, :-1] != inside[:, 1:])
    hi, hj = np.divmod(h, ny)
    vi, vj = np.divmod(v, ny - 1)
    vn = v + vi
    th = (level - f[h]) / (f[h + ny] - f[h])
    tv = (level - f[vn]) / (f[vn + 1] - f[vn])
    points = list(zip(
        np.concatenate([xs[hi] + th * (xs[hi + 1] - xs[hi]), xs[vi]]).tolist(),
        np.concatenate([ys[hj], ys[vj] + tv * (ys[vj + 1] - ys[vj])]).tolist(),
    ))
    nh = (nx - 1) * ny
    edge_ids = np.concatenate([h, nh + v])

    # the crossed cells in (ix, iy) order and the crossing index of each side;
    # a side the level does not cross gets an index its case never reads
    c = np.flatnonzero((cases != 0) & (cases != 15))
    bottom, left = c + c // (ny - 1), nh + c
    sides = np.searchsorted(edge_ids, np.stack([bottom, left + ny - 1, bottom + 1, left], axis=1))
    picks = _ENDS[cases[c]]
    return _assemble(np.take_along_axis(sides, picks, axis=1)[picks >= 0], points)


def _assemble(ends: np.ndarray, points: list[tuple[float, float]]) -> list[list[tuple[float, float]]]:
    """Join segments into polylines through their shared crossings.

    Segment s runs from crossing ends[2s] to ends[2s+1]; every crossing ends
    one segment (on the grid boundary) or two. Open curves come first, each
    walked from its lowest-numbered free end; then closed curves, each from
    the first end of its lowest-numbered segment.
    """
    # other[p]: the end that shares ends[p]'s crossing, else -1
    order = np.argsort(ends)
    shared = ends[order[1:]] == ends[order[:-1]]
    other = np.full(ends.size, -1)
    other[order[1:][shared]] = order[:-1][shared]
    other[order[:-1][shared]] = order[1:][shared]
    crossing, other = ends.tolist(), other.tolist()
    used = [False] * (ends.size // 2)

    def walk(p: int) -> list[tuple[float, float]]:
        path = [points[crossing[p]]]
        while p >= 0 and not used[p >> 1]:
            used[p >> 1] = True
            p ^= 1
            path.append(points[crossing[p]])
            p = other[p]
        return path

    polylines = [walk(p) for p in order.tolist() if other[p] < 0 and not used[p >> 1]]
    return polylines + [walk(2 * s) for s in range(len(used)) if not used[s]]


def extract_contours(
    s: OdeSystem,
    axes: tuple[str, str],
    fixed: Mapping[str, float],
    box: tuple[tuple[float, float], tuple[float, float]],
    level: float,
    grid: int,
) -> Contours:
    """Marching-squares contours of {EYM = level} on a 2-d slice of state space.

    The two `axes` states vary over `box`, each interval finite with lo < hi;
    every remaining state, and nothing else, must be bound in `fixed`. The
    level must be finite and nonnegative. Grid resolution is the number of
    cells per side. A pole in the box is an error: if the energy is
    non-finite at any grid node or cell centre, an EvaluationError gives
    their count and the first location.

    EYM >= 0 touches 0 without crossing it, so level 0 contours N_12 instead:
    for n = 2, EYM = N_12^2 and N_12 changes sign across {EYM = 0}. With
    n > 2 the zero set is the common zero set of n(n-1)/2 entries of N, and
    level 0 is a ValueError.
    """
    u, v = axes
    if u == v:
        raise ValueError("axes must be distinct")
    for name in axes:
        if name not in s.state_names:
            raise ValueError(f"axis {name!r} is not a state variable")
    remaining = set(s.state_names) - {u, v}
    unbound, stray = remaining - set(fixed), set(fixed) - remaining
    if unbound:
        raise ValueError(f"unbound remaining states: {sorted(unbound)}")
    if stray:
        raise ValueError(f"fixed values for names that are not remaining states: {sorted(stray)}")
    for name, (lo, hi) in zip(axes, box):
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"box interval for {name} needs finite lo < hi, got {lo:g}:{hi:g}")
    if grid < 8:
        raise ValueError(f"grid resolution must be at least 8, got {grid}")
    _check_level(level)
    if level == 0.0 and s.n != 2:
        raise ValueError(
            f"level 0 needs a planar system: with n={s.n} the zero-energy set is "
            f"the common zero set of {s.n * (s.n - 1) // 2} entries of N"
        )

    d = derive(s)
    traced = d.connection[0, 1] if level == 0.0 else d.yang_mills_energy
    bindings = dict(s.params)
    bindings.update({name: float(fixed[name]) for name in remaining})
    fn = compile_expr([traced], (u, v), bindings)

    (ulo, uhi), (vlo, vhi) = box
    us = np.linspace(ulo, uhi, grid + 1)
    vs = np.linspace(vlo, vhi, grid + 1)
    uc, vc = 0.5 * (us[:-1] + us[1:]), 0.5 * (vs[:-1] + vs[1:])
    grids, count, first = [], 0, None
    with np.errstate(all="ignore"):
        for a, b in ((us, vs), (uc, vc)):
            (f,) = fn(a[:, None], b[None, :])
            f = np.broadcast_to(np.asarray(f, dtype=float), (a.size, b.size))
            bad = np.flatnonzero(~np.isfinite(f))
            if bad.size and first is None:
                first = (a[bad[0] // b.size], b[bad[0] % b.size])
            count += bad.size
            grids.append(f)
    if count:
        raise EvaluationError(
            f"energy is non-finite at {count} grid nodes and cell centres, "
            f"first at {u}={first[0]:.6g}, {v}={first[1]:.6g}"
        )
    values, centers = grids
    polylines = marching_squares(us, vs, values, level, centers)
    return Contours(
        level=float(level),
        polylines=tuple(tuple(points) for points in polylines),
    )
