import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

import jetgeo.levelset
from conftest import cancer_zero_curve, hiv_level_set
from jetgeo.cli import parse_system_file
from jetgeo.geometry import derive
from jetgeo.levelset import Contours, classify_level_set, extract_contours, marching_squares
from jetgeo.models import builtin_model, cancer_model, hiv_model
from reference import evaluate

E_T, E_TSTAR, E_V = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# quadric level sets, with the HIV-1 closed form as the oracle


def _classify_hiv(k, n, delta, C):
    system, _ = hiv_model(k=k, n=n, delta=delta)
    return classify_level_set(derive(system), C)


def _assert_branch_matches_discriminant(result, oracle, C, k):
    assert oracle["minor"] > 0.0 and oracle["trace"] > 0.0
    disc = oracle["discriminant"]
    if result.kind == "line":
        assert abs(disc) <= 1e-9 * k**4 * (1.0 + 8.0 * C)
    elif result.kind == "elliptic cylinder":
        assert disc < 0.0
    else:
        assert result.kind == "empty" and disc > 0.0


def _assert_on_level(system, result, rng, count=64):
    """Points center + sum_i t_i semi_axes[i] axes[i] + sum_j s_j free[j] with
    |t| = 1 have EYM = level; the center attains the critical level."""
    energy = derive(system).yang_mills_energy

    def eym(x):
        point = dict(system.params)
        point.update(zip(system.state_names, x))
        return evaluate(energy, point)

    center = np.array(result.center)
    C_star = result.critical_level
    assert abs(eym(center) - C_star) <= 1e-9 * (1.0 + C_star)
    if result.empty:
        return
    for _ in range(count):
        t = np.array([rng.gauss(0.0, 1.0) for _ in result.semi_axes])
        x = center + sum(rng.uniform(-5.0, 5.0) * np.array(f) for f in result.free)
        if t.size:
            t /= np.linalg.norm(t)
            x = x + sum(ti * a * np.array(axis) for ti, a, axis in zip(t, result.semi_axes, result.axes))
        assert abs(eym(x) - result.level) <= 1e-9 * (1.0 + result.level)


def test_trichotomy_reference_levels():
    empty = _classify_hiv(1.0, 1.0, 1.0, 0.05)
    assert empty.kind == "empty" and empty.empty
    assert (empty.semi_axes, empty.axes, empty.free) == ((), (), ())

    line = _classify_hiv(1.0, 1.0, 1.0, 0.125)
    assert line.kind == "line"
    assert line.center == (0.5, 0.0, 0.0)
    assert line.semi_axes == (0.0, 0.0)
    assert line.free == (E_TSTAR,)

    cyl = _classify_hiv(1.0, 1.0, 1.0, 0.25)
    assert cyl.kind == "elliptic cylinder"
    assert cyl.critical_level == 0.125
    assert cyl.center[0] == pytest.approx(0.5, abs=1e-15)
    assert cyl.center[1:] == (0.0, 0.0)
    b, a = cyl.semi_axes
    assert a == pytest.approx(0.5, abs=1e-15)
    assert b == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert cyl.axes == (E_V, E_T)
    assert cyl.free == (E_TSTAR,)


def test_invariant_signs_track_the_branch():
    rng = random.Random(8)
    for _ in range(50):
        k = rng.uniform(0.2, 3.0)
        n = rng.uniform(0.2, 3.0)
        delta = rng.uniform(0.2, 3.0)
        c_star = (n * delta) ** 2 / 8.0
        level = rng.choice([0.0, c_star * rng.uniform(0.0, 0.95), c_star, c_star * rng.uniform(1.05, 4.0)])
        result = _classify_hiv(k, n, delta, level)
        _assert_branch_matches_discriminant(result, hiv_level_set(k, n, delta, level), level, k)


def test_classifier_matches_the_hiv_closed_form():
    rng = random.Random(17)
    factors = [None, 1.0 - 1e-10, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-10, None]
    for draw in range(245):
        k = rng.uniform(0.2, 3.0)
        n = rng.uniform(0.2, 3.0)
        delta = rng.uniform(0.2, 3.0)
        c_star = (n * delta) ** 2 / 8.0
        factor = factors[draw % len(factors)]
        if factor is None:
            factor = rng.uniform(0.0, 0.95) if draw % 2 else rng.uniform(1.05, 4.0)
        C = c_star * factor
        oracle = hiv_level_set(k, n, delta, C)
        result = _classify_hiv(k, n, delta, C)
        _assert_branch_matches_discriminant(result, oracle, C, k)
        assert result.critical_level == pytest.approx(oracle["critical_level"], rel=1e-12)
        assert result.center[0] == pytest.approx(oracle["center_T"], rel=1e-12)
        assert result.center[1:] == (0.0, 0.0)
        if result.empty:
            continue
        assert [abs(c) for c in result.free[0]] == list(E_TSTAR) and len(result.free) == 1
        assert result.axes == (E_V, E_T)
        # C - C* cancels near the critical level, so the squared semi-axes
        # agree to 1e-12 of C / eigenvalue; far from it, to 1e-12 relative
        for got, want, eigenvalue in zip(result.semi_axes, (oracle["b"], oracle["a"]), (k * k / 4, k * k / 2)):
            assert got**2 == pytest.approx(want**2, rel=1e-12, abs=1e-12 * C / eigenvalue)
            if factor >= 1.05:
                assert got == pytest.approx(want, rel=1e-12)


def test_trichotomy_is_exhaustive_and_exclusive_near_critical_level():
    k, n, delta = 1.3, 0.7, 1.9
    c_star = (n * delta) ** 2 / 8.0
    factors = (0.0, 0.5, 1.0 - 1e-10, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-10, 2.0)
    kinds = [_classify_hiv(k, n, delta, c_star * factor).kind for factor in factors]
    assert kinds == ["empty"] * 3 + ["line"] * 3 + ["elliptic cylinder"] * 2


def test_cylinder_semi_axes_ordered():
    rng = random.Random(9)
    for _ in range(30):
        k = rng.uniform(0.2, 3.0)
        n = rng.uniform(0.2, 3.0)
        delta = rng.uniform(0.2, 3.0)
        level = (n * delta) ** 2 / 8.0 * rng.uniform(1.01, 5.0)
        cyl = _classify_hiv(k, n, delta, level)
        assert cyl.kind == "elliptic cylinder"
        b, a = cyl.semi_axes
        assert 0.0 < a < b
        assert cyl.axes == (E_V, E_T)


def test_cylinder_parametrization_lies_on_energy_level():
    rng = random.Random(10)
    for _ in range(5):
        k = rng.uniform(0.3, 2.0)
        n = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.3, 2.0)
        level = (n * delta) ** 2 / 8.0 * rng.uniform(1.1, 4.0)
        system, _ = hiv_model(k=k, n=n, delta=delta)
        cyl = classify_level_set(derive(system), level)
        assert cyl.kind == "elliptic cylinder"
        _assert_on_level(system, cyl, rng)


@pytest.mark.parametrize(
    "text, kinds",
    [
        (
            "vars: x y z\nparams: a=2\neq x: z^2 + a*y\neq y: x^2\neq z: 3*y^2\n",
            {0.0: "point", 0.5: "ellipsoid", 3.0: "ellipsoid"},
        ),
        ("vars: x y\nparams: a=2\neq x: a*y^2 + 1\neq y: x^2 - y\n", {0.0: "line", 0.5: "two parallel lines"}),
        ("vars: x y\neq x: y\neq y: -x\n", {0.5: "empty", 1.0: "plane", 1.5: "empty"}),
    ],
)
def test_quadric_level_sets_of_file_systems_lie_on_the_level(text, kinds):
    system = parse_system_file(text)
    d = derive(system)
    rng = random.Random(11)
    for level, kind in kinds.items():
        result = classify_level_set(d, level)
        assert result.kind == kind
        _assert_on_level(system, result, rng)
    if system.n == 3:
        assert result.center == (1.0, 0.0, 0.0)


def test_classification_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        hiv_model(k=0.0)
    with pytest.raises(ValueError, match="positive"):
        hiv_model(n=-2.0)
    d = derive(hiv_model()[0])
    with pytest.raises(ValueError, match="nonnegative"):
        classify_level_set(d, -0.1)
    for level in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            classify_level_set(d, level)
    with pytest.raises(ValueError, match="N_12 is not affine in P"):
        classify_level_set(derive(cancer_model()[0]), 0.25)


# ---------------------------------------------------------------------------
# zero-energy curve


def test_zero_curve_zeroes_engine_energy():
    rng = random.Random(12)
    for _ in range(5):
        a = rng.uniform(0.1, 2.0)
        h = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.1, 2.0)
        system, _ = cancer_model(a=a, h=h, k=k)
        energy = derive(system).yang_mills_energy
        samples, _ = cancer_zero_curve(a, h, k, np.linspace(0.025, 5.0, 100))
        for P, Q in samples:
            point = dict(system.params)
            point.update({"P": P, "Q": Q})
            fp = h * Q * (1 - k * P * P) / (1 + k * P * P) ** 2
            fq = h * P / (1 + k * P * P)
            scale = (1.0 + abs((2 * a + 1) * P) + abs(a * Q) + abs(fp) + abs(fq)) ** 2
            assert evaluate(energy, point) <= 1e-18 * scale


@pytest.mark.parametrize("a, h, k", [(1.0, 1.0, 1.0), (0.3, 1.0, 0.1), (0.5, 2.0, 0.7)])
def test_level_zero_traces_the_cancer_zero_curve(a, h, k):
    # {EYM = 0} = {g = 0} with g = 2 N_12 = (2a+1) P + a Q - F_P - F_Q; each
    # vertex's first-order distance to it is |g| / |grad g|
    system, _ = cancer_model(r=0.5, a=a, h=h, k=k)
    result = extract_contours(system, ("P", "Q"), {}, ((0.025, 5.0), (-20.0, 20.0)), 0.0, 512)
    P, Q = np.array([point for line in result.polylines for point in line]).T
    assert P.size > 0
    w = 1.0 + k * P * P
    g = (2 * a + 1) * P + a * Q - h * Q * (1 - k * P * P) / w**2 - h * P / w
    g_P = (2 * a + 1) + 2 * h * k * P * Q * (3 - k * P * P) / w**3 - h * (1 - k * P * P) / w**2
    g_Q = a - h * (1 - k * P * P) / w**2
    assert np.max(np.abs(g) / np.hypot(g_P, g_Q)) <= 1e-3


def test_level_zero_needs_a_planar_system():
    system, _ = hiv_model()
    with pytest.raises(ValueError, match="n=3"):
        extract_contours(system, ("T", "V"), {"Tstar": 1.0}, ((0.0, 2.0), (0.0, 2.0)), 0.0, 16)


# ---------------------------------------------------------------------------
# marching squares


def _assert_one_unit_circle(grid):
    xs = np.linspace(-2.0, 2.0, grid + 1)
    ys = np.linspace(-2.0, 2.0, grid + 1)
    values = xs[:, None] ** 2 + ys[None, :] ** 2
    polylines = marching_squares(xs, ys, values, 1.0)
    tolerance = 2.0 * (4.0 / grid)
    count = 0
    for poly in polylines:
        for x, y in poly:
            assert abs(math.hypot(x, y) - 1.0) <= tolerance
            count += 1
    assert count > 100
    # a circle comes out as a single closed polyline
    assert len(polylines) == 1
    assert polylines[0][0] == polylines[0][-1]


def test_circle_contour_oracle():
    _assert_one_unit_circle(256)


def test_circle_contour_oracle_at_grid_1024():
    _assert_one_unit_circle(1024)


def test_no_crossings_yields_no_polylines():
    xs = np.linspace(0.0, 1.0, 9)
    ys = np.linspace(0.0, 1.0, 9)
    values = np.full((9, 9), 7.0)
    assert marching_squares(xs, ys, values, 1.0) == []


def test_saddle_disambiguation_uses_center_value():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    values = np.array([[-1.0, 1.0], [1.0, -1.0]])  # opposite corners inside
    joined = marching_squares(xs, ys, values, 0.0, center_values=np.array([[-0.5]]))
    split = marching_squares(xs, ys, values, 0.0, center_values=np.array([[0.5]]))
    assert len(joined) == 2 and len(split) == 2

    def endpoints(polys):
        return sorted(tuple(sorted((p[0], p[-1]))) for p in polys)

    assert endpoints(joined) != endpoints(split)


def test_extract_contours_on_gradient_slice_is_empty():
    # gradient field: energy is identically zero, so any positive level is empty
    from jetgeo.geometry import OdeSystem

    s = OdeSystem.from_strings(("x", "y"), ("2*x", "2*y"))
    result = extract_contours(s, ("x", "y"), {}, ((-2.0, 2.0), (-2.0, 2.0)), 1.0, 16)
    assert isinstance(result, Contours)
    assert result.polylines == ()


def test_extract_contours_vertices_lie_on_level():
    system, _ = cancer_model(r=0.5, a=0.3, h=1.0, k=0.1)
    energy = derive(system).yang_mills_energy
    level = 0.25
    result = extract_contours(system, ("P", "Q"), {}, ((0.0, 3.0), (0.0, 3.0)), level, 128)
    assert result.polylines
    spacing = 3.0 / 128
    worst = 0.0
    for poly in result.polylines:
        for P, Q in poly:
            point = dict(system.params)
            point.update({"P": P, "Q": Q})
            worst = max(worst, abs(evaluate(energy, point) - level))
    # linear interpolation error is O(h^2 * curvature); generous constant
    assert worst <= 50.0 * spacing**2


def test_extract_contours_validates_arguments():
    system, _ = cancer_model()
    box = ((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="distinct"):
        extract_contours(system, ("P", "P"), {}, box, 1.0, 16)
    with pytest.raises(ValueError, match="state variable"):
        extract_contours(system, ("P", "Z"), {}, box, 1.0, 16)
    with pytest.raises(ValueError, match="grid"):
        extract_contours(system, ("P", "Q"), {}, box, 1.0, 4)
    hiv, _ = hiv_model()
    with pytest.raises(ValueError, match="unbound"):
        extract_contours(hiv, ("T", "V"), {}, box, 1.0, 16)


@pytest.mark.parametrize(
    "box, level, fixed, message",
    [
        (((1.0, 1.0), (0.0, 3.0)), 1.0, {"Tstar": 1.0}, r"box interval for T needs finite lo < hi, got 1:1"),
        (((0.0, 3.0), (3.0, 0.0)), 1.0, {"Tstar": 1.0}, r"box interval for V needs finite lo < hi, got 3:0"),
        (((0.0, math.inf), (0.0, 3.0)), 1.0, {"Tstar": 1.0}, r"box interval for T needs finite lo < hi, got 0:inf"),
        (((0.0, 3.0), (0.0, 3.0)), math.nan, {"Tstar": 1.0}, r"level must be finite and nonnegative, got nan"),
        (((0.0, 3.0), (0.0, 3.0)), math.inf, {"Tstar": 1.0}, r"level must be finite and nonnegative, got inf"),
        (((0.0, 3.0), (0.0, 3.0)), 1.0, {"Tstar": 1.0, "Typo": 3.0}, r"not remaining states: \['Typo'\]"),
        (((0.0, 3.0), (0.0, 3.0)), 1.0, {"Tstar": 1.0, "T": 5.0}, r"not remaining states: \['T'\]"),
    ],
    ids=["empty-interval", "reversed-interval", "infinite-interval", "nan-level", "inf-level", "unknown-name", "axis-name"],
)
def test_extract_contours_rejects_bad_boxes_levels_and_fixed_names(box, level, fixed, message):
    system, _ = hiv_model()
    with pytest.raises(ValueError, match=message):
        extract_contours(system, ("T", "V"), fixed, box, level, 16)


# ---------------------------------------------------------------------------
# marching squares against a per-cell reference

_REFERENCE_SEGMENTS = {
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


def _reference_marching_squares(xs, ys, values, level, center_values=None):
    """Cell-by-cell marching squares: a Python loop over every cell, with
    crossings keyed by ("h"|"v", ix, iy) and joined by a dict walk."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    inside = values < level
    crossings = {}

    def crossing(kind, ix, iy):
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

    segments = []
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
                        values[ix, iy] + values[ix + 1, iy] + values[ix + 1, iy + 1] + values[ix, iy + 1]
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
                pairs = _REFERENCE_SEGMENTS[case]
            edge_keys = {
                "bottom": ("h", ix, iy),
                "top": ("h", ix, iy + 1),
                "left": ("v", ix, iy),
                "right": ("v", ix + 1, iy),
            }
            for e1, e2 in pairs:
                segments.append((crossing(*edge_keys[e1]), crossing(*edge_keys[e2])))

    adjacency = {}
    for idx, (k1, k2) in enumerate(segments):
        adjacency.setdefault(k1, []).append(idx)
        adjacency.setdefault(k2, []).append(idx)
    used = [False] * len(segments)

    def walk(start):
        path = [start]
        node = start
        while True:
            nxt_idx = next((i for i in adjacency[node] if not used[i]), None)
            if nxt_idx is None:
                return path
            used[nxt_idx] = True
            k1, k2 = segments[nxt_idx]
            node = k2 if k1 == node else k1
            path.append(node)

    polylines = []
    for start in sorted(key for key, idxs in adjacency.items() if len(idxs) == 1):
        if not all(used[i] for i in adjacency[start]):
            polylines.append(walk(start))
    for idx in range(len(segments)):
        if not used[idx]:
            polylines.append(walk(segments[idx][0]))
    return [[crossings[key] for key in path] for path in polylines]


def _hexed(polylines):
    return [[(float.hex(float(x)), float.hex(float(y))) for x, y in poly] for poly in polylines]


def _cases(values, level):
    inside = np.asarray(values) < level
    return inside[:-1, :-1] | inside[1:, :-1] << 1 | inside[1:, 1:] << 2 | inside[:-1, 1:] << 3


def _assert_matches_reference(xs, ys, values, level, center_values=None):
    got = marching_squares(xs, ys, values, level, center_values)
    want = _reference_marching_squares(xs, ys, values, level, center_values)
    assert _hexed(got) == _hexed(want)
    return got


def test_marching_squares_matches_reference_on_random_grids():
    rng = np.random.default_rng(11)
    crossed = 0
    for trial in range(120):
        nx, ny = rng.integers(2, 24, size=2)
        xs = np.sort(rng.uniform(-3.0, 3.0, nx)) + np.arange(nx) * 1e-3
        ys = np.linspace(rng.uniform(-2.0, 0.0), rng.uniform(0.5, 2.0), ny)
        if trial % 2:
            # integer values at an integer level: nodes on the level, many saddles
            values = rng.integers(-2, 3, size=(nx, ny)).astype(float)
            level = float(rng.integers(-1, 2))
        else:
            values = rng.normal(size=(nx, ny))
            level = float(rng.normal(scale=0.5))
        centers = rng.normal(size=(nx - 1, ny - 1)) if trial % 3 == 0 else None
        crossed += len(_assert_matches_reference(xs, ys, values, level, centers))
    assert crossed > 100


@pytest.mark.parametrize("with_centers", [False, True])
def test_marching_squares_matches_reference_on_saddles(with_centers):
    n = 9
    xs = np.linspace(0.0, 1.0, n)
    ys = np.linspace(0.0, 2.0, n)
    rng = np.random.default_rng(3)
    # checkerboard: every cell is a saddle, cases 5 and 10 alternate
    values = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2, 1.0, -1.0) * rng.uniform(0.5, 1.5, (n, n))
    cases = _cases(values, 0.0)
    assert {5, 10} <= set(np.unique(cases).tolist())
    centers = rng.normal(size=(n - 1, n - 1)) if with_centers else None
    _assert_matches_reference(xs, ys, values, 0.0, centers)


def test_marching_squares_matches_reference_with_nodes_on_the_level():
    xs = np.linspace(0.0, 1.0, 6)
    ys = np.linspace(0.0, 1.0, 5)
    values = np.add.outer(np.arange(6.0), -np.arange(5.0))
    assert np.any(values == 1.0)
    for level in (-2.0, 0.0, 1.0, 3.0):
        _assert_matches_reference(xs, ys, values, level)
    # a closed curve through nodes exactly on the level
    grid = np.linspace(-2.0, 2.0, 9)
    _assert_matches_reference(grid, grid, grid[:, None] ** 2 + grid[None, :] ** 2, 1.0)


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extract_contours_matches_reference_on_bench_slices(monkeypatch):
    W = _bench_workloads()
    calls = []

    def recording(*args):
        result = marching_squares(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(jetgeo.levelset, "marching_squares", recording)
    for op in W.contour_ops(0) + W.dense_ops(0):
        if op["model"] == "trig":
            system = parse_system_file(op["text"])
        else:
            system = builtin_model(op["model"], **op["params"])[0]
        box = tuple(tuple(b) for b in op["box"])
        extract_contours(system, tuple(op["axes"]), op["fixed"], box, op["level"], 64)
    assert len(calls) == 14
    for args, result in calls:
        assert result
        assert _hexed(result) == _hexed(_reference_marching_squares(*args))


def test_marching_squares_rejects_center_values_of_the_wrong_shape():
    xs = ys = np.array([0.0, 1.0])
    values = np.array([[-1.0, 1.0], [1.0, -1.0]])
    for shape in ((5, 5), (0, 0)):
        with pytest.raises(ValueError, match=r"center_values must have shape \(1, 1\)"):
            marching_squares(xs, ys, values, 0.0, center_values=np.zeros(shape))


def test_marching_squares_rejects_non_finite_values():
    xs = np.linspace(0.0, 1.0, 4)
    ys = np.linspace(0.0, 2.0, 5)
    values = np.add.outer(xs, ys)
    bad = values.copy()
    bad[2, 3] = np.nan
    bad[3, 1] = np.inf
    message = r"values is non-finite at 2 of 20 nodes, first at \(x, y\) = \(0.666667, 1.5\)"
    with pytest.raises(ValueError, match=message):
        marching_squares(xs, ys, bad, 1.0)
    centers = np.zeros((3, 4))
    centers[1, 0] = -np.inf
    message = r"center_values is non-finite at 1 of 12 cells, first at \(x, y\) = \(0.5, 0.25\)"
    with pytest.raises(ValueError, match=message):
        marching_squares(xs, ys, values, 1.0, center_values=centers)
