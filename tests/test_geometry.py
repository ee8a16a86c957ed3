import itertools
import random

import numpy as np
import pytest

from conftest import gradient_field, random_rational_field
from jetgeo.expr import (
    Neg,
    Num,
    Sym,
    parse_expression,
    simplify,
)
from jetgeo.geometry import (
    ExprMatrix,
    OdeSystem,
    VerificationRecord,
    default_domain,
    derive,
    jacobian,
    maxwell_check,
)
from jetgeo.models import cancer_model, hiv_model
from jetgeo.variational import geodesic_check, integrate_flow
from reference import evaluate, evaluate_matrix, numerically_equivalent


@pytest.fixture(scope="module")
def hiv():
    return hiv_model()[0]


@pytest.fixture(scope="module")
def cancer():
    return cancer_model()[0]


def linear_system(A):
    names = tuple(f"x{i + 1}" for i in range(len(A)))
    comps = []
    for row in A:
        total = Num(0.0)
        for coeff, name in zip(row, names):
            total = total + Num(float(coeff)) * Sym(name)
        comps.append(simplify(total))
    return OdeSystem(names, tuple(comps))


# ---------------------------------------------------------------------------
# data model


def test_expr_matrix_validates_entry_count():
    with pytest.raises(ValueError, match="entries"):
        ExprMatrix(2, 2, (Num(0.0),))


def test_expr_matrix_indexing():
    m = ExprMatrix(2, 2, (Num(1.0), Num(2.0), Num(3.0), Num(4.0)))
    assert m[0, 1] == Num(2.0)
    with pytest.raises(IndexError):
        m.entry(2, 0)


def test_system_requires_two_states():
    with pytest.raises(ValueError, match="at least 2"):
        OdeSystem(("x",), (Sym("x"),))


def test_system_rejects_component_count_mismatch():
    with pytest.raises(ValueError, match="component"):
        OdeSystem(("x", "y"), (Sym("x"),))


def test_system_rejects_undeclared_symbols():
    # rejected at parse time when built from strings
    with pytest.raises(ValueError, match="unknown identifier 'z'"):
        OdeSystem.from_strings(("x", "y"), ("x + z", "y"))
    # and at construction time when a stray tree sneaks in
    with pytest.raises(ValueError, match="undeclared"):
        OdeSystem(("x", "y"), (Sym("z"), Sym("y")))


def test_system_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        OdeSystem.from_strings(("x", "x"), ("x", "x"))


def test_system_rejects_state_parameter_overlap():
    with pytest.raises(ValueError, match="both state and parameter"):
        OdeSystem.from_strings(("x", "y"), ("x", "y"), {"x": 1.0})


# ---------------------------------------------------------------------------
# jacobian


def test_hiv_jacobian_matches_closed_form(hiv):
    expected = [
        ["p - d - 2*p*T/m - k*V", "0", "-k*T"],
        ["k*V", "-delta", "k*T"],
        ["0", "n*delta", "-c"],
    ]
    J = jacobian(hiv)
    known = ("T", "Tstar", "V") + tuple(hiv.params)
    box = {name: (0.1, 2.0) for name in known}
    for i in range(3):
        for j in range(3):
            assert numerically_equivalent(
                J[i, j], parse_expression(expected[i][j], known), box
            ), (i, j)


def test_cancer_jacobian_first_entry(cancer):
    expected = parse_expression(
        "1 - 2*P - Q + h*Q*(1-k*P^2)/(1+k*P^2)^2", ("P", "Q", "r", "a", "h", "k")
    )
    box = {name: (0.1, 2.0) for name in ("P", "Q", "r", "a", "h", "k")}
    assert numerically_equivalent(jacobian(cancer)[0, 0], expected, box)


def test_linear_field_jacobian_is_constant_matrix():
    A = [[1.0, 2.0], [-3.0, 0.5]]
    J = jacobian(linear_system(A))
    for i in range(2):
        for j in range(2):
            assert J[i, j] == Num(A[i][j])


# ---------------------------------------------------------------------------
# connection / torsion / electromagnetic form


def test_hiv_connection_matches_closed_form(hiv):
    N = derive(hiv).connection
    point = {**hiv.params, "T": 1.3, "Tstar": 0.7, "V": 2.1, "k": 0.8, "n": 1.5, "delta": 0.6}
    kv, kt, nd = 0.8 * 2.1, 0.8 * 1.3, 1.5 * 0.6
    expected = -0.5 * np.array([[0, -kv, -kt], [kv, 0, kt - nd], [kt, -kt + nd, 0]])
    assert np.allclose(evaluate_matrix(N, point), expected, atol=1e-15)


def test_cancer_connection_offdiagonal(cancer):
    N = derive(cancer).connection
    known = ("P", "Q", "r", "a", "h", "k")
    g = "(2*a+1)*P + a*Q - h*Q*(1-k*P^2)/(1+k*P^2)^2 - h*P/(1+k*P^2)"
    box = {name: (0.1, 2.0) for name in known}
    assert numerically_equivalent(N[0, 1], parse_expression(f"({g})/2", known), box)
    assert numerically_equivalent(N[1, 0], parse_expression(f"-({g})/2", known), box)
    assert N[0, 0] == Num(0.0)
    assert N[1, 1] == Num(0.0)


def test_explicit_gradient_field_connection_is_structurally_zero():
    # X = grad(x^2 + y^2) = (2x, 2y) has a symmetric Jacobian
    s = OdeSystem.from_strings(("x", "y"), ("2*x", "2*y"))
    d = derive(s)
    assert all(entry == Num(0.0) for entry in d.connection)
    assert all(entry == Num(0.0) for entry in d.electromagnetic)


def test_random_gradient_fields_degenerate_numerically():
    rng = random.Random(99)
    for _ in range(5):
        s = gradient_field(rng, rng.choice((2, 3)))
        d = derive(s)
        N, E, slices = d.connection, d.yang_mills_energy, d.torsion
        for _ in range(5):
            point = {name: rng.uniform(0.1, 2.0) for name in s.state_names}
            nv = evaluate_matrix(N, point)
            jv = evaluate_matrix(d.jacobian, point)
            scale = 1.0 + float(np.max(np.abs(jv)))
            assert np.max(np.abs(nv)) <= 1e-12 * scale
            assert abs(evaluate(E, point)) <= (1e-12 * scale) ** 2
            for R in slices:
                assert np.max(np.abs(evaluate_matrix(R, point))) <= 1e-12 * scale


def test_hiv_torsion_slices_match_closed_form(hiv):
    slices = derive(hiv).torsion
    point = {**hiv.params, "T": 2.0, "Tstar": 1.0, "V": 0.5, "k": 1.7}
    k = 1.7
    r1 = np.array([[0, 0, k / 2], [0, 0, -k / 2], [-k / 2, k / 2, 0]])
    r3 = np.array([[0, k / 2, 0], [-k / 2, 0, 0], [0, 0, 0]])
    assert np.allclose(evaluate_matrix(slices[0], point), r1, atol=1e-15)
    assert all(entry == Num(0.0) for entry in slices[1])
    assert np.allclose(evaluate_matrix(slices[2], point), r3, atol=1e-15)


def test_cancer_torsion_slices_match_closed_form(cancer):
    known = ("P", "Q", "r", "a", "h", "k")
    box = {name: (0.1, 2.0) for name in known}
    f_pp = "-2*h*k*P*Q*(3-k*P^2)/(1+k*P^2)^3"
    f_pq = "h*(1-k*P^2)/(1+k*P^2)^2"
    slices = derive(cancer).torsion
    assert numerically_equivalent(
        slices[0][0, 1], parse_expression(f"a + (1 - ({f_pp}) - ({f_pq}))/2", known), box
    )
    assert numerically_equivalent(
        slices[1][0, 1], parse_expression(f"(a - ({f_pq}))/2", known), box
    )


def test_linear_field_torsion_vanishes():
    s = linear_system([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [0.5, 0.0, 1.0]])
    for R in derive(s).torsion:
        assert all(entry == Num(0.0) for entry in R)


def test_electromagnetic_form_is_structural_negation(hiv, cancer):
    for s in (hiv, cancer):
        d = derive(s)
        N, F = d.connection, d.electromagnetic
        for i in range(s.n):
            for j in range(s.n):
                assert F[i, j] == simplify(Neg(N[i, j]))


def test_torsion_slices_are_antisymmetric_on_random_fields():
    rng = random.Random(41)
    for _ in range(5):
        s = random_rational_field(rng, rng.choice((2, 3)))
        for R in derive(s).torsion:
            for _ in range(3):
                point = {name: rng.uniform(0.1, 2.0) for name in s.state_names}
                rv = evaluate_matrix(R, point)
                scale = 1.0 + float(np.max(np.abs(rv)))
                assert np.max(np.abs(rv + rv.T)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Yang-Mills energy


def test_hiv_energy_matches_closed_form(hiv):
    golden = parse_expression(
        "(k^2*(V^2+T^2)+(k*T-n*delta)^2)/4", ("T", "Tstar", "V", "k", "n", "delta")
    )
    box = {name: (0.1, 3.0) for name in ("T", "Tstar", "V", "k", "n", "delta")}
    assert numerically_equivalent(derive(hiv).yang_mills_energy, golden, box)


def test_cancer_energy_matches_closed_form(cancer):
    known = ("P", "Q", "r", "a", "h", "k")
    g = "(2*a+1)*P + a*Q - h*Q*(1-k*P^2)/(1+k*P^2)^2 - h*P/(1+k*P^2)"
    golden = parse_expression(f"(({g}))^2/4", known)
    box = {name: (0.1, 3.0) for name in known}
    assert numerically_equivalent(derive(cancer).yang_mills_energy, golden, box)


def test_constant_field_energy_is_zero():
    s = OdeSystem.from_strings(("x", "y"), ("3", "-1"))
    assert derive(s).yang_mills_energy == Num(0.0)


def test_energy_nonnegative_and_zero_iff_form_vanishes(hiv, cancer):
    rng = random.Random(17)
    trig = OdeSystem.from_strings(("x", "y"), ("sin(x*y) + cos(y)", "x*cos(x) - sin(y)^2"))
    fields = (random_rational_field(rng, rng.choice((2, 3))) for _ in range(10))
    for s in itertools.chain(fields, (cancer, hiv, trig)):
        d = derive(s)
        E, F = d.yang_mills_energy, d.electromagnetic
        for _ in range(5):
            point = {**s.params, **{name: rng.uniform(0.1, 2.0) for name in s.state_names}}
            energy = evaluate(E, point)
            fv = evaluate_matrix(F, point)
            biggest = float(np.max(np.abs(fv)))
            assert energy >= 0.0
            assert (energy <= 1e-18) == (biggest <= 1e-9)
            # the triangular sum equals the trace form 1/2 Tr(F F^T)
            trace_form = 0.5 * float(np.trace(fv @ fv.T))
            assert abs(energy - trace_form) <= 1e-12 * (1.0 + trace_form)


# ---------------------------------------------------------------------------
# Maxwell identity


def test_maxwell_check_builtin_models(hiv, cancer):
    rec_h = maxwell_check(derive(hiv), {name: (0.0, 10.0) for name in hiv.state_names})
    assert rec_h.passed and rec_h.max_deviation == 0.0
    rec_c = maxwell_check(derive(cancer), {name: (0.0, 5.0) for name in cancer.state_names})
    assert rec_c.passed


def test_maxwell_check_random_cubic_field_against_finite_differences():
    rng = random.Random(5)
    names = ("x1", "x2", "x3")
    comps = tuple(
        parse_expression(
            " + ".join(
                f"{round(rng.uniform(-1, 1), 3)}*{a}*{b}*{c}"
                for a, b, c in [(rng.choice(names), rng.choice(names), rng.choice(names)) for _ in range(3)]
            ),
            names,
        )
        for _ in range(3)
    )
    s = OdeSystem(names, comps)
    d = derive(s)
    record = maxwell_check(d, default_domain(s), samples=32)
    assert record.passed

    # independent route: cyclic sums from central finite differences of F
    F = d.electromagnetic
    step = 1e-5
    for _ in range(5):
        point = {name: rng.uniform(0.2, 1.8) for name in names}

        def d(i, j, k):
            up = dict(point)
            up[names[k]] += step
            down = dict(point)
            down[names[k]] -= step
            return (evaluate(F[i, j], up) - evaluate(F[i, j], down)) / (2 * step)

        for i in range(3):
            for j in range(3):
                for k in range(3):
                    cyc = d(i, j, k) + d(j, k, i) + d(k, i, j)
                    assert abs(cyc) <= 1e-6


def test_maxwell_check_rejects_degenerate_box(hiv):
    with pytest.raises(ValueError, match="degenerate"):
        maxwell_check(derive(hiv), {"T": (1.0, 1.0), "Tstar": (0.0, 1.0), "V": (0.0, 1.0)})


def test_check_records_store_builtin_types():
    s = random_rational_field(random.Random(1), 4)
    d = derive(s)
    records = [
        maxwell_check(d, default_domain(s)),
        geodesic_check(s, integrate_flow(s, (1.0,) * 4, 0.1, 1e-3)),
        VerificationRecord("numpy", np.bool_(True), np.float64(1.0), np.float64(2.0)),
    ]
    for record in records:
        assert type(record.passed) is bool
        assert type(record.max_deviation) is float
        assert type(record.tolerance) is float
