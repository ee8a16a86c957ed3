"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its measured
deviation so the suite doubles as a report when run with `pytest -s`.
"""

import math
import random

import numpy as np
import pytest

from conftest import cancer_zero_curve, gradient_field, hiv_level_set, random_rational_field
from jetgeo.expr import Num
from jetgeo.geometry import (
    OdeSystem,
    default_domain,
    derive,
    maxwell_check,
)
from jetgeo.levelset import classify_level_set, marching_squares
from jetgeo.models import GoldenSet, cancer_model, golden_compare, golden_domain, hiv_model
from jetgeo.variational import geodesic_check, integrate_flow
from reference import evaluate, evaluate_matrix


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion} {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def random_fields():
    rng = random.Random(424242)
    return [random_rational_field(rng, rng.choice((2, 3, 4))) for _ in range(100)]


def test_criterion_1_cancer_golden_suite():
    system, golden = cancer_model()
    wanted = (
        "connection[1][2]",
        "torsion[1][1][2]",
        "torsion[2][1][2]",
        "electromagnetic[2][1]",
        "EYM",
    )
    subset = GoldenSet({path: golden.entries[path] for path in wanted})
    comparison = golden_compare(
        system,
        subset,
        golden_domain(system, (0.1, 5.0)),
        samples=1000,
        tolerance=1e-9,
    )
    _report(
        "criterion-1 cancer-golden",
        comparison.passed,
        f"max_deviation={comparison.max_deviation:.3e} tolerance=1e-9",
    )


def test_criterion_2_hiv_golden_suite():
    system, golden = hiv_model()
    comparison = golden_compare(
        system,
        golden,
        golden_domain(system, (0.1, 10.0)),
        samples=1000,
        tolerance=1e-12,
    )
    _report(
        "criterion-2 hiv-golden",
        comparison.passed,
        f"paths={len(comparison.records)} max_deviation={comparison.max_deviation:.3e} "
        "tolerance=1e-12*scale",
    )


def test_criterion_3_structural_invariants(random_fields):
    rng = random.Random(7)
    worst = 0.0
    for system in random_fields:
        d = derive(system)
        N, F, slices = d.connection, d.electromagnetic, d.torsion
        energy = d.yang_mills_energy  # triangular form, checked against the trace form below
        trace_form = Num(0.0)
        for entry in F:
            trace_form = trace_form + entry**2
        trace_form = Num(0.5) * trace_form
        for _ in range(5):
            point = {name: rng.uniform(0.1, 2.0) for name in system.state_names}
            nv = evaluate_matrix(N, point)
            fv = evaluate_matrix(F, point)
            # N_ij and N_ji come from the same two J entries and F = -N, through
            # sign changes that are exact in floating point
            exact = [
                float(np.max(np.abs(nv + nv.T))),
                float(np.max(np.abs(fv + fv.T))),
                float(np.max(np.abs(fv + nv))),
            ]
            assert exact == [0.0, 0.0, 0.0], (system.state_names, point)
            # each remaining deviation normalized by the scale of what it compares
            scaled = []
            for R in slices:
                rv = evaluate_matrix(R, point)
                scaled.append(float(np.max(np.abs(rv + rv.T))) / (1.0 + float(np.max(np.abs(rv)))))
            e_tri = evaluate(energy, point)
            e_trace = evaluate(trace_form, point)
            assert e_tri >= 0.0
            scaled.append(abs(e_tri - e_trace) / (1.0 + max(abs(e_tri), abs(e_trace))))
            worst = max(worst, max(scaled))
            assert max(scaled) <= 1e-12, (system.state_names, point)
    _report(
        "criterion-3 structural-invariants",
        True,
        f"fields=100 worst_scaled_deviation={worst:.3e} tolerance=1e-12*scale",
    )


def test_criterion_4_maxwell_identity(random_fields):
    worst = 0.0
    systems = [cancer_model()[0], hiv_model()[0], *random_fields]
    for system in systems:
        record = maxwell_check(derive(system), default_domain(system), samples=32)
        worst = max(worst, record.max_deviation / (record.tolerance / 1e-9))
        assert record.passed, record
    _report(
        "criterion-4 maxwell",
        True,
        f"systems={len(systems)} worst_scaled_sum={worst:.3e} tolerance=1e-9*scale",
    )


def test_criterion_5_gradient_field_degeneracy():
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(20):
        system = gradient_field(rng, rng.choice((2, 3)), degree=4)
        d = derive(system)
        N, F, slices, energy, J = (
            d.connection, d.electromagnetic, d.torsion, d.yang_mills_energy, d.jacobian
        )
        for _ in range(5):
            point = {name: rng.uniform(0.1, 2.0) for name in system.state_names}
            scale = 1.0 + float(np.max(np.abs(evaluate_matrix(J, point))))
            deviation = max(
                float(np.max(np.abs(evaluate_matrix(N, point)))),
                float(np.max(np.abs(evaluate_matrix(F, point)))),
                max(float(np.max(np.abs(evaluate_matrix(R, point)))) for R in slices),
                math.sqrt(abs(evaluate(energy, point))),
            )
            worst = max(worst, deviation / scale)
            assert deviation <= 1e-12 * scale, point
    _report(
        "criterion-5 gradient-degeneracy",
        True,
        f"potentials=20 worst_scaled_deviation={worst:.3e} tolerance=1e-12*scale",
    )


def test_criterion_6_horizontal_geodesic_property():
    rng = random.Random(2718)
    cases = [
        (cancer_model(r=0.5, a=0.3, h=1.0, k=0.1)[0], "cancer"),
        (hiv_model()[0], "hiv1"),
    ]
    details = []
    for system, label in cases:
        x0 = [rng.uniform(0.5, 2.0) for _ in range(system.n)]
        fine = geodesic_check(system, integrate_flow(system, x0, 5.0, 1e-3))
        finer = geodesic_check(system, integrate_flow(system, x0, 5.0, 2.5e-4))
        ratio = fine.max_deviation / finer.max_deviation
        assert fine.passed, (label, fine)
        assert ratio >= 10.0, (label, ratio)
        details.append(f"{label}: residual={fine.max_deviation:.3e} dt/4-ratio={ratio:.1f}")
    _report("criterion-6 horizontal-geodesic", True, "; ".join(details))


def test_criterion_7_rk4_convergence_order():
    system = OdeSystem.from_strings(("x", "y"), ("-x", "-y"))

    def final_error(dt):
        traj = integrate_flow(system, (1.0, 1.0), 1.0, dt)
        return abs(traj.samples[-1, 0] - math.exp(-1.0))

    order = math.log2(final_error(0.1) / final_error(0.05))
    _report("criterion-7 rk4-order", 3.7 <= order <= 4.3, f"measured_order={order:.3f}")


def test_criterion_8_hiv_level_set_trichotomy():
    system, _ = hiv_model()
    d = derive(system)
    empty, line, cyl = (classify_level_set(d, C) for C in (0.05, 0.125, 0.25))
    assert empty.kind == "empty"
    assert line.kind == "line" and line.center[0] == pytest.approx(0.5) and line.center[2] == 0.0
    assert cyl.kind == "elliptic cylinder"
    b, a = cyl.semi_axes
    assert a == pytest.approx(0.5, abs=1e-12)
    assert b == pytest.approx(2.0**-0.5, abs=1e-12)

    for C, expected_sign in ((0.05, 1), (0.125, 0), (0.25, -1)):
        disc = hiv_level_set(1.0, 1.0, 1.0, C)["discriminant"]
        sign = 0 if disc == 0.0 else int(math.copysign(1, disc))
        assert sign == expected_sign, (C, disc)

    energy = d.yang_mills_energy
    worst = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        point = dict(system.params)
        point.update(
            {
                "T": cyl.center[0] + a * math.cos(theta),
                "V": b * math.sin(theta),
                "Tstar": 1.0,
            }
        )
        worst = max(worst, abs(evaluate(energy, point) - 0.25))
    assert worst <= 1e-9
    _report(
        "criterion-8 levelset-trichotomy",
        True,
        f"branches=empty/line/cylinder cylinder_worst|EYM-C|={worst:.3e}",
    )


def test_criterion_9_cancer_zero_curve():
    rng = random.Random(5150)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(0.1, 2.0)
        h = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.1, 2.0)
        system, _ = cancer_model(a=a, h=h, k=k)
        energy = derive(system).yang_mills_energy
        samples, poles = cancer_zero_curve(a, h, k, np.linspace(0.025, 5.0, 200))
        assert len(samples) + len(poles) == 200
        for P, Q in samples:
            point = dict(system.params)
            point.update({"P": P, "Q": Q})
            fp = h * Q * (1 - k * P * P) / (1 + k * P * P) ** 2
            fq = h * P / (1 + k * P * P)
            scale = (1.0 + abs((2 * a + 1) * P) + abs(a * Q) + abs(fp) + abs(fq)) ** 2
            value = evaluate(energy, point)
            worst = max(worst, value / scale)
            assert value <= 1e-18 * scale, (a, h, k, P, Q)
    _report(
        "criterion-9 cancer-zero-curve",
        True,
        f"draws=10 samples=200 worst_scaled_energy={worst:.3e} tolerance=1e-18*scale",
    )


def test_criterion_10_contour_oracle():
    grid = 256
    xs = np.linspace(-2.0, 2.0, grid + 1)
    ys = np.linspace(-2.0, 2.0, grid + 1)
    values = xs[:, None] ** 2 + ys[None, :] ** 2
    polylines = marching_squares(xs, ys, values, 1.0)
    tolerance = 2.0 * (4.0 / grid)
    worst = 0.0
    count = 0
    for poly in polylines:
        for x, y in poly:
            worst = max(worst, abs(math.hypot(x, y) - 1.0))
            count += 1
    assert count > 0
    _report(
        "criterion-10 contour-oracle",
        worst <= tolerance,
        f"vertices={count} worst_distance={worst:.3e} tolerance={tolerance:.3e}",
    )
