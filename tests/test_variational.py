import math
import random

import numpy as np
import pytest

from jetgeo.expr import Num, substitute
from jetgeo.geometry import OdeSystem, jacobian
from jetgeo.models import cancer_model, hiv_model
from jetgeo.variational import (
    IntegrationError,
    Trajectory,
    geodesic_check,
    integrate_flow,
    least_squares_lagrangian,
    second_order_prolongation,
    velocity_names,
)
from reference import euler_lagrange_residual, evaluate, evaluate_matrix, numerically_equivalent


@pytest.fixture(scope="module")
def cancer():
    return cancer_model(r=0.5, a=0.3, h=1.0, k=0.1)[0]


def linear_system(A):
    names = tuple(f"x{i + 1}" for i in range(len(A)))
    comps = tuple(
        " + ".join(f"{coeff}*{name}" for coeff, name in zip(row, names)) for row in A
    )
    return OdeSystem.from_strings(names, comps)


# ---------------------------------------------------------------------------
# Lagrangian


def test_velocity_names_and_collision(cancer):
    assert velocity_names(cancer) == ("x1_P", "x1_Q")
    bad = OdeSystem.from_strings(("P", "x1_P"), ("P", "x1_P"))
    with pytest.raises(ValueError, match="collide"):
        velocity_names(bad)


def test_lagrangian_vanishes_on_flow_data(cancer):
    L = least_squares_lagrangian(cancer)
    rng = random.Random(1)
    for _ in range(10):
        point = dict(cancer.params)
        point.update({name: rng.uniform(0.1, 3.0) for name in cancer.state_names})
        flow = [evaluate(comp, point) for comp in cancer.components]
        point.update(zip(velocity_names(cancer), flow))
        assert 0.0 <= evaluate(L, point) <= 1e-18


def test_lagrangian_nonnegative_off_flow(cancer):
    L = least_squares_lagrangian(cancer)
    rng = random.Random(2)
    for _ in range(20):
        point = dict(cancer.params)
        point.update({name: rng.uniform(0.1, 3.0) for name in cancer.state_names})
        point.update({name: rng.uniform(-3.0, 3.0) for name in velocity_names(cancer)})
        assert evaluate(L, point) >= 0.0


def test_lagrangian_value_frozen_point():
    # dT = s+(p-d)T-pT^2/m-kVT, dTstar = kTV-delta*Tstar, dV = n*delta*Tstar-cV
    # at s=0, p=d=1, m=k=n=delta=1, c=0 and state (1,1,1):
    # X = (-2, 0, 1), so L(state, velocity=0) = 4 + 0 + 1 = 5
    s = OdeSystem.from_strings(
        ("T", "Tstar", "V"),
        ("s + (p - d)*T - p*T^2/m - k*V*T", "k*T*V - delta*Tstar", "n*delta*Tstar - c*V"),
        {"s": 0.0, "p": 1.0, "d": 1.0, "delta": 1.0, "m": 1.0, "k": 1.0, "n": 1.0, "c": 0.0},
    )
    L = least_squares_lagrangian(s)
    point = dict(s.params)
    point.update({"T": 1.0, "Tstar": 1.0, "V": 1.0})
    point.update({name: 0.0 for name in velocity_names(s)})
    assert evaluate(L, point) == pytest.approx(5.0, abs=1e-15)


# ---------------------------------------------------------------------------
# prolongation


def test_constant_field_prolongation_is_zero():
    s = OdeSystem.from_strings(("x", "y"), ("2", "-3"))
    assert second_order_prolongation(s) == (Num(0.0), Num(0.0))


def test_linear_field_prolongation_matches_matrix_formula():
    A = np.array([[1.0, 2.0], [-3.0, 0.5]])
    s = linear_system(A.tolist())
    prol = second_order_prolongation(s)
    rng = random.Random(4)
    for _ in range(10):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        v = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        expected = (A - A.T) @ v + A.T @ (A @ x)
        point = dict(zip(s.state_names, x))
        point.update(zip(velocity_names(s), v))
        got = np.array([evaluate(p, point) for p in prol])
        assert np.allclose(got, expected, atol=1e-12)


def test_prolongation_on_flow_equals_chain_rule(cancer):
    # substituting x1 := X(x) must give d/dt X(x(t)) = J X
    prol = second_order_prolongation(cancer)
    J = jacobian(cancer)
    on_flow = {
        vname: comp for vname, comp in zip(velocity_names(cancer), cancer.components)
    }
    box = {name: (0.1, 2.0) for name in cancer.state_names}
    box.update({name: (0.1, 2.0) for name in cancer.params})
    for i in range(cancer.n):
        lhs = substitute(prol[i], on_flow)
        rhs = Num(0.0)
        for j in range(cancer.n):
            rhs = rhs + J[i, j] * cancer.components[j]
        assert numerically_equivalent(lhs, rhs, box)


# ---------------------------------------------------------------------------
# Euler-Lagrange residual


def test_residual_zero_on_flow_data(cancer):
    rng = random.Random(6)
    J = jacobian(cancer)
    for _ in range(5):
        point = dict(cancer.params)
        point.update({name: rng.uniform(0.2, 2.0) for name in cancer.state_names})
        x = [point[name] for name in cancer.state_names]
        flow = np.array([evaluate(comp, point) for comp in cancer.components])
        jv = evaluate_matrix(J, point)
        res = euler_lagrange_residual(cancer, x, flow, jv @ flow)
        scale = 1.0 + float(np.max(np.abs(jv)))
        assert np.max(np.abs(res)) <= 1e-12 * scale


def test_residual_zero_at_prolongation_for_arbitrary_velocity(cancer):
    rng = random.Random(7)
    prol = second_order_prolongation(cancer)
    for _ in range(10):
        x = [rng.uniform(0.2, 2.0) for _ in range(cancer.n)]
        v = [rng.uniform(-2.0, 2.0) for _ in range(cancer.n)]
        point = dict(cancer.params)
        point.update(zip(cancer.state_names, x))
        point.update(zip(velocity_names(cancer), v))
        acc = [evaluate(p, point) for p in prol]
        res = euler_lagrange_residual(cancer, x, v, acc)
        assert np.max(np.abs(res)) <= 1e-10


def test_residual_dimension_mismatch(cancer):
    with pytest.raises(ValueError, match="length"):
        euler_lagrange_residual(cancer, [1.0], [1.0, 2.0], [0.0, 0.0])


def test_residual_matches_discrete_action_gradient(cancer):
    """Finite-difference gradient of the discretized action recovers dt * residual.

    Discrete action: E = dt * sum_m L(x_m, (x_{m+1} - x_{m-1}) / (2 dt)) over a
    smooth non-flow path; its partial derivative in one middle coordinate is
    compared against the residual evaluated with central differences.
    """
    from jetgeo.variational import least_squares_lagrangian

    dt = 1e-3
    steps = 41
    ts = np.arange(steps) * dt
    path = np.stack([1.0 + 0.5 * np.sin(3.0 * ts), 1.5 + 0.25 * np.cos(2.0 * ts)], axis=1)
    L = least_squares_lagrangian(cancer)

    def lagrangian(xm, vm):
        point = dict(cancer.params)
        point.update(zip(cancer.state_names, xm))
        point.update(zip(velocity_names(cancer), vm))
        return evaluate(L, point)

    def action(p):
        total = 0.0
        for m in range(1, steps - 1):
            vm = (p[m + 1] - p[m - 1]) / (2.0 * dt)
            total += lagrangian(p[m], vm)
        return dt * total

    m = steps // 2
    vel = (path[m + 1] - path[m - 1]) / (2.0 * dt)
    acc = (path[m + 1] - 2.0 * path[m] + path[m - 1]) / dt**2
    res = euler_lagrange_residual(cancer, path[m], vel, acc)

    eps = 1e-6
    for i in range(2):
        bumped_up = path.copy()
        bumped_up[m, i] += eps
        bumped_down = path.copy()
        bumped_down[m, i] -= eps
        grad = (action(bumped_up) - action(bumped_down)) / (2.0 * eps)
        # grad approximates dt * residual_i up to O(dt^2) discretization error
        assert abs(grad / dt - res[i]) <= 10.0 * dt**2 * (1.0 + abs(res[i]))


# ---------------------------------------------------------------------------
# integration


def test_rk4_matches_exponential_decay():
    s = OdeSystem.from_strings(("x", "y"), ("-x", "-y"))
    traj = integrate_flow(s, (1.0, 1.0), 1.0, 1e-3)
    assert traj.samples.shape == (1001, 2)
    assert abs(traj.samples[-1, 0] - math.exp(-1)) <= 1e-9
    assert abs(traj.samples[-1, 1] - math.exp(-1)) <= 1e-9


def test_rk4_convergence_order():
    s = OdeSystem.from_strings(("x", "y"), ("-x", "-y"))

    def final_error(dt):
        traj = integrate_flow(s, (1.0, 1.0), 1.0, dt)
        return abs(traj.samples[-1, 0] - math.exp(-1))

    order = math.log2(final_error(0.1) / final_error(0.05))
    assert 3.7 <= order <= 4.3


def test_cancer_flow_stays_finite(cancer):
    traj = integrate_flow(cancer, (1.0, 1.0), 5.0, 1e-3)
    assert np.all(np.isfinite(traj.samples))


def test_integrate_validates_arguments(cancer):
    with pytest.raises(ValueError, match="dt"):
        integrate_flow(cancer, (1.0, 1.0), 1.0, 2.0)
    with pytest.raises(ValueError, match="positive"):
        integrate_flow(cancer, (1.0, 1.0), -1.0, 0.1)
    with pytest.raises(ValueError, match="length"):
        integrate_flow(cancer, (1.0,), 1.0, 0.01)


@pytest.mark.parametrize(
    "t_end, dt",
    [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (-math.inf, 0.1)],
)
def test_integrate_rejects_non_finite_times(cancer, t_end, dt):
    with pytest.raises(ValueError, match=r"dt and t_end must be finite"):
        integrate_flow(cancer, (1.0, 1.0), t_end, dt)


def test_integration_reports_blowup_time_and_state():
    s = OdeSystem.from_strings(("x", "y"), ("x^2", "0"))
    with pytest.raises(IntegrationError) as err:
        integrate_flow(s, (5.0, 1.0), 2.0, 1e-3)
    assert err.value.time <= 2.0
    assert len(err.value.state) == 2


def test_integration_reports_domain_error():
    # x(t) decays to 0; a Runge-Kutta stage eventually probes sqrt of a
    # slightly negative state
    s = OdeSystem.from_strings(("x", "y"), ("-sqrt(x)", "0"))
    with pytest.raises(IntegrationError, match="evaluation failed"):
        integrate_flow(s, (1.0, 0.0), 3.0, 1e-3)


def test_trajectory_csv_format():
    s = OdeSystem.from_strings(("x", "y"), ("-x", "-y"))
    traj = integrate_flow(s, (1.0, 2.0), 0.01, 0.005)
    csv = traj.to_csv(("x", "y"))
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 4
    assert lines[1] == "0,1,2"
    # full double precision survives the round-trip
    value = float(lines[2].split(",")[1])
    assert value == traj.samples[1, 0]


def test_trajectory_samples_are_read_only():
    s = OdeSystem.from_strings(("x", "y"), ("-x", "-y"))
    traj = integrate_flow(s, (1.0, 2.0), 0.01, 0.005)
    with pytest.raises(ValueError):
        traj.samples[0, 0] = 5.0


# ---------------------------------------------------------------------------
# geodesic verification


def test_geodesic_check_passes_for_both_models(cancer):
    hiv = hiv_model()[0]
    for s, x0 in ((cancer, (1.0, 1.0)), (hiv, (1.0, 1.0, 1.0))):
        traj = integrate_flow(s, x0, 2.0, 1e-3)
        record = geodesic_check(s, traj)
        assert record.passed, record


def test_geodesic_check_matches_lagrangian_residual(cancer):
    """geodesic_check takes 2 (P - x'') from the prolongation; at its worst
    sample that must equal the residual expanded from L itself."""
    hiv = hiv_model()[0]
    for s, x0 in ((cancer, (1.0, 1.0)), (hiv, (1.0, 1.0, 1.0))):
        traj = integrate_flow(s, x0, 2.0, 1e-3)
        record = geodesic_check(s, traj)
        m = int(record.detail.split("interior sample ")[1].split()[0])
        x, dt = traj.samples, traj.dt
        vel = (x[m + 1] - x[m - 1]) / (2.0 * dt)
        acc = (x[m + 1] - 2.0 * x[m] + x[m - 1]) / (dt * dt)
        res = euler_lagrange_residual(s, x[m], vel, acc)
        assert float(np.linalg.norm(res)) == pytest.approx(record.max_deviation, rel=1e-6)


@pytest.mark.parametrize(
    "components, x0",
    [(("2", "-3"), (1.0, 1.0)), (("x", "1"), (1.0, 0.0))],
    ids=["both-entries-constant", "P-is-x-and-0"],
)
def test_geodesic_check_broadcasts_constant_prolongation_entries(components, x0):
    s = OdeSystem.from_strings(("x", "y"), components)
    traj = integrate_flow(s, x0, 1.0, 1e-3)
    record = geodesic_check(s, traj)
    assert record.passed, record
    x, dt = traj.samples, traj.dt
    vel = (x[2:] - x[:-2]) / (2.0 * dt)
    acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (dt * dt)
    names = (*s.state_names, *velocity_names(s))
    prol = second_order_prolongation(s)
    worst = max(
        math.hypot(*(2.0 * (evaluate(p, dict(zip(names, (*xm, *vm)))) - am) for p, am in zip(prol, a)))
        for xm, vm, a in zip(x[1:-1], vel, acc)
    )
    assert record.max_deviation == pytest.approx(worst, rel=1e-12, abs=1e-300)


def test_geodesic_check_detects_corrupted_sample(cancer):
    traj = integrate_flow(cancer, (1.0, 1.0), 2.0, 1e-3)
    corrupted = traj.samples.copy()
    corrupted[1000, 0] += 1e-2
    record = geodesic_check(cancer, Trajectory(traj.dt, corrupted))
    assert not record.passed
    # the spike is localized at the perturbed sample
    assert "sample 1000" in record.detail or "sample 999" in record.detail or "sample 1001" in record.detail


def test_geodesic_check_requires_three_samples(cancer):
    tiny = Trajectory(0.1, np.array([[1.0, 1.0], [0.9, 0.9]]))
    with pytest.raises(ValueError, match="too short"):
        geodesic_check(cancer, tiny)
