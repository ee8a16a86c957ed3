import math
import random

import numpy as np
import pytest

from jetgeo.expr import evaluate
from jetgeo.geometry import derive
from jetgeo.levelset import (
    Contours,
    EllipticCylinder,
    EmptySet,
    Line,
    cancer_zero_curve,
    classify_hiv_level_set,
    extract_contours,
    hiv_invariants,
    marching_squares,
)
from jetgeo.models import cancer_model, hiv_model


# ---------------------------------------------------------------------------
# closed-form classification


def test_trichotomy_reference_levels():
    assert classify_hiv_level_set(1.0, 1.0, 1.0, 0.05) == EmptySet()

    line = classify_hiv_level_set(1.0, 1.0, 1.0, 0.125)
    assert isinstance(line, Line)
    assert line.point == (0.5, 0.0, 0.0)
    assert line.direction == (0.0, 1.0, 0.0)

    cyl = classify_hiv_level_set(1.0, 1.0, 1.0, 0.25)
    assert isinstance(cyl, EllipticCylinder)
    assert cyl.center_T == pytest.approx(0.5, abs=1e-15)
    assert cyl.semi_axis_a == pytest.approx(0.5, abs=1e-15)
    assert cyl.semi_axis_b == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert cyl.axis == "Tstar"


def test_invariant_signs_track_the_branch():
    rng = random.Random(8)
    for _ in range(50):
        k = rng.uniform(0.2, 3.0)
        n = rng.uniform(0.2, 3.0)
        delta = rng.uniform(0.2, 3.0)
        c_star = (n * delta) ** 2 / 8.0
        level = rng.choice([0.0, c_star * rng.uniform(0.0, 0.95), c_star, c_star * rng.uniform(1.05, 4.0)])
        inv = hiv_invariants(k, n, delta, level)
        result = classify_hiv_level_set(k, n, delta, level)
        assert inv.minor > 0.0 and inv.trace > 0.0
        if isinstance(result, Line):
            assert abs(inv.discriminant) <= 1e-9 * k**4 * (1.0 + 8.0 * level)
        if isinstance(result, EllipticCylinder):
            assert inv.discriminant < 0.0
        if isinstance(result, EmptySet):
            assert inv.discriminant > 0.0


def test_trichotomy_is_exhaustive_and_exclusive_near_critical_level():
    k, n, delta = 1.3, 0.7, 1.9
    c_star = (n * delta) ** 2 / 8.0
    for factor in (0.0, 0.5, 1.0 - 1e-10, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-10, 2.0):
        result = classify_hiv_level_set(k, n, delta, c_star * factor)
        kinds = [isinstance(result, t) for t in (EmptySet, Line, EllipticCylinder)]
        assert sum(kinds) == 1


def test_cylinder_semi_axes_ordered():
    rng = random.Random(9)
    for _ in range(30):
        k = rng.uniform(0.2, 3.0)
        n = rng.uniform(0.2, 3.0)
        delta = rng.uniform(0.2, 3.0)
        level = (n * delta) ** 2 / 8.0 * rng.uniform(1.01, 5.0)
        cyl = classify_hiv_level_set(k, n, delta, level)
        assert isinstance(cyl, EllipticCylinder)
        assert 0.0 < cyl.semi_axis_a < cyl.semi_axis_b


def test_cylinder_parametrization_lies_on_energy_level():
    system, _ = hiv_model()
    energy = derive(system).yang_mills_energy
    rng = random.Random(10)
    for _ in range(5):
        k = rng.uniform(0.3, 2.0)
        n = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.3, 2.0)
        level = (n * delta) ** 2 / 8.0 * rng.uniform(1.1, 4.0)
        cyl = classify_hiv_level_set(k, n, delta, level)
        for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            point = dict(system.params)
            point.update(
                {
                    "k": k,
                    "n": n,
                    "delta": delta,
                    "T": cyl.center_T + cyl.semi_axis_a * math.cos(theta),
                    "V": cyl.semi_axis_b * math.sin(theta),
                    "Tstar": rng.uniform(-5.0, 5.0),
                }
            )
            assert abs(evaluate(energy, point) - level) <= 1e-9 * (1.0 + level)


def test_classification_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        classify_hiv_level_set(0.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="positive"):
        classify_hiv_level_set(1.0, -2.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        classify_hiv_level_set(1.0, 1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# zero-energy curve


def test_zero_curve_passes_through_origin():
    curve = cancer_zero_curve(0.7, 1.3, 0.4, [0.0])
    assert curve.samples == ((0.0, 0.0),)


def test_zero_curve_zeroes_engine_energy():
    rng = random.Random(12)
    for _ in range(5):
        a = rng.uniform(0.1, 2.0)
        h = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.1, 2.0)
        system, _ = cancer_model(a=a, h=h, k=k)
        energy = derive(system).yang_mills_energy
        curve = cancer_zero_curve(a, h, k, np.linspace(0.025, 5.0, 100))
        for P, Q in curve.samples:
            point = dict(system.params)
            point.update({"P": P, "Q": Q})
            fp = h * Q * (1 - k * P * P) / (1 + k * P * P) ** 2
            fq = h * P / (1 + k * P * P)
            scale = (1.0 + abs((2 * a + 1) * P) + abs(a * Q) + abs(fp) + abs(fq)) ** 2
            assert evaluate(energy, point) <= 1e-18 * scale


def test_zero_curve_denominator_positive_for_unit_parameters():
    # a = h = k = 1: denominator (1+P^2)^2 - (1-P^2) = P^4 + 3 P^2 > 0 for P > 0
    for P in np.linspace(0.01, 5.0, 50):
        assert (1 + P * P) ** 2 - (1 - P * P) == pytest.approx(P**4 + 3 * P * P, rel=1e-12)
    curve = cancer_zero_curve(1.0, 1.0, 1.0, np.linspace(0.01, 5.0, 200))
    assert curve.poles == ()
    assert len(curve.samples) == 200


def test_zero_curve_reports_poles():
    # a=0.1, h=2, k=0.5: denominator changes sign on (0, 2); bisect the root
    a, h, k = 0.1, 2.0, 0.5

    def den(P):
        w = 1.0 + k * P * P
        return a * w * w - h * (1.0 - k * P * P)

    lo, hi = 0.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if den(lo) * den(mid) <= 0:
            hi = mid
        else:
            lo = mid
    pole = 0.5 * (lo + hi)
    curve = cancer_zero_curve(a, h, k, [0.5, pole, 1.5])
    assert curve.poles == (pole,)
    assert len(curve.samples) == 2


def test_zero_curve_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        cancer_zero_curve(-1.0, 1.0, 1.0, [1.0])
    with pytest.raises(ValueError, match="empty"):
        cancer_zero_curve(1.0, 1.0, 1.0, [])
    with pytest.raises(ValueError, match="non-finite"):
        cancer_zero_curve(1.0, 1.0, 1.0, [float("nan")])


# ---------------------------------------------------------------------------
# marching squares


def test_circle_contour_oracle():
    grid = 256
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
