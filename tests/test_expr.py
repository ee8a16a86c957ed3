import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expression, random_rational_field
from jetgeo.expr import (
    Add,
    Div,
    EvaluationError,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Sym,
    compile_expr,
    differentiate,
    evaluate,
    free_symbols,
    numerically_equivalent,
    parse_expression,
    sample_deviation,
    sample_points,
    simplify,
    substitute,
    to_string,
)
from jetgeo.geometry import derive
from jetgeo.models import cancer_model

BOX4 = {name: (0.1, 3.0) for name in ("P", "Q", "h", "k")}


# ---------------------------------------------------------------------------
# parsing


def test_parse_rational_transition_function_structure():
    e = parse_expression("h*P*Q/(1+k*P^2)")
    assert isinstance(e, Div)
    assert e.left == Mul(Mul(Sym("h"), Sym("P")), Sym("Q"))
    assert e.right == Add(Num(1.0), Mul(Sym("k"), Pow(Sym("P"), 2)))


def test_parse_zero_literal():
    assert parse_expression("0") == Num(0.0)


def test_parse_dangling_operator_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_expression("1+")
    assert err.value.position == 2


def test_parse_unknown_identifier_rejected_with_known_symbols():
    with pytest.raises(ParseError, match="'z'"):
        parse_expression("x + z", ["x", "y"])
    # unrestricted parse accepts any identifier
    assert free_symbols(parse_expression("x + z")) == {"x", "z"}


def test_parse_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse_expression("P^2.5")
    with pytest.raises(ParseError, match="integer"):
        parse_expression("P^q")


def test_parse_unknown_function_rejected():
    with pytest.raises(ParseError, match="unknown function"):
        parse_expression("foo(x)")


@pytest.mark.parametrize(
    "text,point,value",
    [
        ("2+3*4", {}, 14.0),
        ("2*3^2", {}, 18.0),
        ("-3^2", {}, -9.0),
        ("(1+1)^3", {}, 8.0),
        ("x^-2", {"x": 2.0}, 0.25),
        ("2*-3", {}, -6.0),
        ("1 - 2 - 3", {}, -4.0),
        ("12/4/3", {}, 1.0),
        ("sqrt(exp(0))", {}, 1.0),
    ],
)
def test_parse_precedence(text, point, value):
    assert evaluate(parse_expression(text), point) == pytest.approx(value, abs=1e-15)


def test_parse_unary_minus_binds_below_power():
    e = parse_expression("-x^2")
    assert e == Neg(Pow(Sym("x"), 2))


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_of_transition_function_matches_closed_forms():
    f = parse_expression("h*P*Q/(1+k*P^2)")
    f_p = parse_expression("h*Q*(1-k*P^2)/(1+k*P^2)^2")
    f_q = parse_expression("h*P/(1+k*P^2)")
    assert numerically_equivalent(differentiate(f, "P"), f_p, BOX4)
    assert numerically_equivalent(differentiate(f, "Q"), f_q, BOX4)


def test_second_derivatives_of_transition_function():
    f = parse_expression("h*P*Q/(1+k*P^2)")
    f_p = differentiate(f, "P")
    f_pp = parse_expression("-2*h*k*P*Q*(3-k*P^2)/(1+k*P^2)^3")
    f_pq = parse_expression("h*(1-k*P^2)/(1+k*P^2)^2")
    assert numerically_equivalent(differentiate(f_p, "P"), f_pp, BOX4)
    assert numerically_equivalent(differentiate(f_p, "Q"), f_pq, BOX4)
    assert numerically_equivalent(
        differentiate(differentiate(f, "Q"), "Q"), Num(0.0), BOX4
    )


def test_derivative_of_unrelated_symbol_is_zero():
    assert differentiate(Sym("c"), "x") == Num(0.0)
    assert differentiate(parse_expression("c^3 + sin(c)"), "x") == Num(0.0)


@pytest.mark.parametrize(
    "text",
    ["x^3 - 2*x", "sin(x*y)", "exp(x/2)*cos(y)", "sqrt(x+y)", "log(x)*y", "x*y/(1+x^2)"],
)
def test_derivative_matches_central_finite_differences(text):
    e = parse_expression(text)
    de = differentiate(e, "x")
    rng = random.Random(7)
    step = 1e-6
    for _ in range(10):
        point = {"x": rng.uniform(0.3, 2.0), "y": rng.uniform(0.3, 2.0)}
        up = dict(point, x=point["x"] + step)
        down = dict(point, x=point["x"] - step)
        fd = (evaluate(e, up) - evaluate(e, down)) / (2 * step)
        exact = evaluate(de, point)
        assert abs(fd - exact) <= 1e-5 * (1.0 + abs(exact))


def test_differentiation_is_linear():
    rng = random.Random(11)
    names = ("x", "y")
    for _ in range(20):
        e1 = random_expression(rng, names, depth=3)
        e2 = random_expression(rng, names, depth=3)
        a = round(rng.uniform(-2, 2), 3)
        combined = differentiate(Add(Mul(Num(a), e1), e2), "x")
        split = Add(Mul(Num(a), differentiate(e1, "x")), differentiate(e2, "x"))
        box = {name: (0.2, 1.7) for name in names}
        try:
            assert numerically_equivalent(combined, split, box, rtol=1e-7)
        except EvaluationError:
            continue  # tree is singular on (almost) the whole box; skip


def test_mixed_partials_commute():
    rng = random.Random(13)
    names = ("x", "y")
    box = {name: (0.2, 1.7) for name in names}
    checked = 0
    for _ in range(40):
        e = random_expression(rng, names, depth=3)
        xy = differentiate(differentiate(e, "x"), "y")
        yx = differentiate(differentiate(e, "y"), "x")
        try:
            assert numerically_equivalent(xy, yx, box, rtol=1e-7)
            checked += 1
        except EvaluationError:
            continue
    assert checked >= 20


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_energy_closed_form_point():
    e = parse_expression("(k^2*(V^2+T^2)+(k*T-n*delta)^2)/4")
    point = {"k": 1.0, "n": 1.0, "delta": 1.0, "T": 1.0, "V": 0.0, "Tstar": 7.0}
    assert evaluate(e, point) == pytest.approx(0.25, abs=1e-15)


def test_evaluate_constant_under_empty_bindings():
    assert evaluate(Num(3.5), {}) == 3.5


def test_evaluate_division_by_zero_names_subexpression():
    e = parse_expression("1/(1+k*P^2)")
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(e, {"k": -1.0, "P": 1.0})


def test_evaluate_unbound_symbol():
    with pytest.raises(EvaluationError, match="unbound symbol 'q'"):
        evaluate(parse_expression("q+1"), {})


def test_evaluate_domain_errors():
    with pytest.raises(EvaluationError, match="sqrt of negative"):
        evaluate(parse_expression("sqrt(x)"), {"x": -1.0})
    with pytest.raises(EvaluationError, match="log of non-positive"):
        evaluate(parse_expression("log(x)"), {"x": 0.0})
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(parse_expression("x^-1"), {"x": 0.0})


# ---------------------------------------------------------------------------
# simplification


def test_simplify_identities():
    P = Sym("P")
    assert simplify(Mul(Num(1.0), P)) == P
    assert simplify(Add(Num(2.0), Num(3.0))) == Num(5.0)
    assert simplify(Mul(P, Num(0.0))) == Num(0.0)
    assert simplify(Add(P, Num(0.0))) == P
    assert simplify(Pow(P, 0)) == Num(1.0)
    assert simplify(Pow(P, 1)) == P
    assert simplify(Neg(Neg(P))) == P
    assert simplify(Sub(P, P)) == Num(0.0)
    assert simplify(Div(Num(0.0), P)) == Num(0.0)


def test_simplified_derivative_still_matches_closed_form():
    f = parse_expression("h*P*Q/(1+k*P^2)")
    f_q = simplify(differentiate(f, "Q"))
    assert numerically_equivalent(f_q, parse_expression("h*P/(1+k*P^2)"), BOX4)


def test_simplify_preserves_equivalence_on_random_corpus():
    rng = random.Random(2024)
    box = {name: (0.2, 1.9) for name in ("x", "y", "z")}
    checked = 0
    while checked < 50:
        e = random_expression(rng, ("x", "y", "z"), depth=4)
        try:
            dev = sample_deviation(e, simplify(e), box)
        except EvaluationError:
            continue
        assert dev <= 1e-9, to_string(e)
        checked += 1


# ---------------------------------------------------------------------------
# printing round-trip


@pytest.mark.parametrize(
    "text",
    [
        "h*P*Q/(1+k*P^2)",
        "h*Q*(1-k*P^2)/(1+k*P^2)^2",
        "-2*h*k*P*Q*(3-k*P^2)/(1+k*P^2)^3",
        "(k^2*(V^2+T^2)+(k*T-n*delta)^2)/4",
        "P - P*(P+Q) + h*P*Q/(1+k*P^2)",
        "1 - 2 - 3 - 4",
        "2/3/4/5",
        "-(x+y)^2",
        "x^-3*y",
    ],
)
def test_round_trip_reference_formulas(text):
    e = parse_expression(text)
    box = {name: (0.3, 2.0) for name in free_symbols(e)}
    assert numerically_equivalent(e, parse_expression(to_string(e)), box)


def test_round_trip_never_prints_non_finite_constants():
    # folding any of these to a constant would give inf, which prints as a symbol
    for e in (
        Num(1e200) * Num(1e200),
        Num(1e308) + Num(1e308),
        Num(-1e308) - Num(1e308),
        Num(1e300) / Num(1e-300),
    ):
        folded = simplify(e)
        assert folded == e
        reparsed = parse_expression(to_string(folded))
        assert free_symbols(reparsed) == frozenset()
        assert simplify(reparsed) == folded
    # a literal that overflows is rejected instead of read back as inf
    with pytest.raises(ParseError, match="overflows") as err:
        parse_expression("x + 1e400")
    assert err.value.position == 4


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_trees(case_seed):
    rng = random.Random(case_seed)
    e = random_expression(rng, ("x", "y"), depth=4)
    box = {"x": (0.2, 1.9), "y": (0.2, 1.9)}
    try:
        dev = sample_deviation(e, parse_expression(to_string(e)), box)
    except EvaluationError:
        return  # singular over the whole box
    assert dev <= 1e-9


# ---------------------------------------------------------------------------
# equivalence oracle


def test_equivalence_commutativity():
    x, y = Sym("x"), Sym("y")
    box = {"x": (0.1, 3.0), "y": (0.1, 3.0)}
    assert numerically_equivalent(Add(x, y), Add(y, x), box)


def test_equivalence_detects_constant_offset():
    x = Sym("x")
    box = {"x": (0.1, 3.0)}
    assert not numerically_equivalent(x, Add(x, Num(1e-3)), box)


def test_equivalence_requires_domain_coverage():
    with pytest.raises(ValueError, match="missing symbols"):
        numerically_equivalent(Sym("x"), Sym("y"), {"x": (0.0, 1.0)})


def test_equivalence_rejects_mostly_singular_box():
    e = parse_expression("log(-(1+x^2))")
    with pytest.raises(EvaluationError, match="singular"):
        sample_deviation(e, e, {"x": (0.1, 1.0)})


def _reference_points(probes, domain, samples, seed, fixed=None):
    """sample_points as a point-by-point loop on the interpreter."""
    rng = random.Random(seed)
    names = sorted(domain)
    rows, draws = [], 0
    while len(rows) < samples:
        if draws >= 10 * samples:
            raise EvaluationError(f"more than 90% of {draws} sample draws hit singularities")
        draws += 1
        point = dict(fixed or {})
        point.update({name: rng.uniform(*domain[name]) for name in names})
        try:
            values = [evaluate(p, point) for p in probes]
        except EvaluationError:
            continue
        if all(math.isfinite(v) for v in values):
            rows.append(values)
    return np.array(rows)


def _field_probes(seed):
    d = derive(random_rational_field(random.Random(seed), 4))
    return [*d.jacobian, *(e for R in d.torsion for e in R)], {}


def _cancer_probes():
    s, _ = cancer_model(r=0.7, a=1.3, h=0.9, k=1.1)
    d = derive(s)
    return [*d.jacobian, *(e for R in d.torsion for e in R)], dict(s.params)


@pytest.mark.parametrize(
    "probes, fixed, domain",
    [
        ([parse_expression("1/(x - 0.5)"), parse_expression("(x - 0.5)^-3")], {}, {"x": (0.0, 1.0)}),
        ([parse_expression("x"), parse_expression("sqrt(x - 0.5)")], {}, {"x": (0.0, 1.0)}),
        (*_field_probes(5), {f"x{i}": (0.1, 2.0) for i in range(1, 5)}),
        (*_cancer_probes(), {"P": (0.1, 5.0), "Q": (0.1, 5.0)}),
    ],
    ids=["pole", "half-rejected", "field-4d", "cancer-fixed-params"],
)
def test_sample_points_matches_interpreter_loop(probes, fixed, domain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_points(probes, domain, 32, seed=4, fixed=fixed)
    want = _reference_points(probes, domain, 32, seed=4, fixed=fixed)
    assert got.shape == (32, len(probes))
    assert got.tobytes() == want.tobytes()


def test_sample_points_rejects_a_probe_singular_at_every_draw():
    e = parse_expression("x*(1/0)")
    assert simplify(e) == e  # the constant division stays unfolded
    with pytest.raises(EvaluationError, match="singular"):
        _reference_points([e], {"x": (0.1, 1.0)}, 8, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="more than 90% of 80 sample draws hit singularities"):
            sample_points([e], {"x": (0.1, 1.0)}, 8, seed=0)


def test_equivalence_is_deterministic_in_seed():
    e1 = parse_expression("sin(x)*x + x^2")
    e2 = parse_expression("x^2 + x*sin(x)")
    box = {"x": (0.1, 3.0)}
    d1 = sample_deviation(e1, e2, box, seed=5)
    d2 = sample_deviation(e1, e2, box, seed=5)
    assert d1 == d2


# ---------------------------------------------------------------------------
# substitution / compilation


def test_substitute_parameters():
    e = parse_expression("a*x + b")
    bound = substitute(e, {"a": 2.0, "b": 3.0})
    assert free_symbols(bound) == {"x"}
    assert evaluate(bound, {"x": 4.0}) == 11.0


def test_compiled_function_matches_interpreter():
    e = parse_expression("x*y/(1+x^2) + sin(y)")
    fn = compile_expr(e, ("x", "y"))
    rng = random.Random(3)
    for _ in range(25):
        x, y = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        assert fn(x, y) == pytest.approx(evaluate(e, {"x": x, "y": y}), rel=1e-14)


def test_compiled_function_broadcasts():
    e = parse_expression("x^2 + y^2")
    fn = compile_expr(e, ("x", "y"))
    xs = np.array([1.0, 2.0, 3.0])
    assert np.allclose(fn(xs, 1.0), xs**2 + 1.0)


def test_compiled_negative_constant_keeps_its_sign_under_a_power():
    e = Pow(Num(-1.5), 2) * Sym("x")
    assert evaluate(e, {"x": 2.0}) == 4.5
    assert compile_expr(e, ("x",))(2.0) == 4.5


def test_compile_rejects_unlisted_symbols():
    with pytest.raises(ValueError, match="argument list"):
        compile_expr(parse_expression("x+y"), ("x",))
