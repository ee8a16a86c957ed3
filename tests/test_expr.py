import copy
import dataclasses
import gc
import math
import random
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expression, random_rational_field
from jetgeo.expr import (
    Add,
    Call,
    Div,
    EvaluationError,
    Expr,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Sym,
    compile_expr,
    differentiate,
    free_symbols,
    parse_expression,
    sample_deviation,
    sample_points,
    simplify,
    substitute,
    to_string,
)
from jetgeo import expr as expr_module
from jetgeo import levelset, variational
from jetgeo.geometry import OdeSystem, analyze, derive
from jetgeo.models import cancer_model, hiv_model
from reference import evaluate, numerically_equivalent

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


def _to_sympy(e, sp):
    """The same tree in sympy, with every constant as the exact rational of its double."""
    if isinstance(e, Num):
        return sp.Rational(e.value)
    if isinstance(e, Sym):
        return sp.Symbol(e.name)
    if isinstance(e, Neg):
        return -_to_sympy(e.arg, sp)
    if isinstance(e, Pow):
        return _to_sympy(e.base, sp) ** e.exponent
    if isinstance(e, Call):
        return getattr(sp, e.func)(_to_sympy(e.arg, sp))
    left, right = _to_sympy(e.left, sp), _to_sympy(e.right, sp)
    ops = {Add: sp.Add, Sub: lambda a, b: a - b, Mul: sp.Mul, Div: lambda a, b: a / b}
    return ops[type(e)](left, right)


def _has_call(e):
    children = (getattr(e, f.name) for f in dataclasses.fields(e))
    return isinstance(e, Call) or any(_has_call(c) for c in children if isinstance(c, Expr))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9))
def test_derivative_matches_sympy(case_seed):
    # sympy differentiates the same tree exactly and evaluates it to 30 digits
    sp = pytest.importorskip("sympy")
    rng = random.Random(case_seed)
    e = random_expression(rng, ("x", "y"), depth=4)
    while not _has_call(e):
        e = random_expression(rng, ("x", "y"), depth=4)
    exact = _to_sympy(e, sp)
    for var in ("x", "y"):
        derivative = differentiate(e, var)
        reference = sp.diff(exact, sp.Symbol(var))
        for _ in range(4):
            point = {"x": rng.uniform(0.2, 1.9), "y": rng.uniform(0.2, 1.9)}
            try:
                evaluate(e, point)  # the point is inside the tree's domain
                got = evaluate(derivative, point)
            except EvaluationError:
                continue
            want = reference.evalf(30, subs={sp.Symbol(k): sp.Rational(v) for k, v in point.items()})
            if not (want.is_real and want.is_finite and math.isfinite(got)):
                continue
            assert abs(got - float(want)) <= 1e-8 * (1.0 + abs(float(want))), (to_string(e), var, point)


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


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_rejects_fewer_than_one_draw(samples):
    # with no draw every deviation reads 0 and a check would PASS on nothing
    x = parse_expression("x")
    message = f"samples must be at least 1, got {samples}"
    with pytest.raises(ValueError, match=message):
        sample_points([x], {"x": (0.1, 1.0)}, samples, seed=0)
    with pytest.raises(ValueError, match=message):
        sample_deviation(x, x, {"x": (0.1, 1.0)}, samples=samples)
    with pytest.raises(ValueError, match=message):
        analyze(cancer_model()[0], samples=samples)


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
    g = parse_expression("a*x - b^2*cos(y) + x/a")
    params = {"a": 1.5, "b": -0.5}
    fn = compile_expr([e, Num(2.0)], ("x", "y"))
    bound = compile_expr([g], ("x", "y"), params)
    rng = random.Random(3)
    for _ in range(25):
        x, y = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        value, constant = fn(x, y)
        assert value == pytest.approx(evaluate(e, {"x": x, "y": y}), rel=1e-14)
        assert constant == 2.0
        (bound_value,) = bound(x, y)
        assert bound_value == pytest.approx(evaluate(g, {"x": x, "y": y, **params}), rel=1e-14)
    assert compile_expr([], ("x",))(1.0) == ()


def test_compiled_function_broadcasts():
    e = parse_expression("x^2 + y^2")
    fn = compile_expr([e], ("x", "y"))
    xs = np.array([1.0, 2.0, 3.0])
    (value,) = fn(xs, 1.0)
    assert np.allclose(value, xs**2 + 1.0)


def test_compiled_negative_constant_keeps_its_sign_under_a_power():
    e = Pow(Num(-1.5), 2) * Sym("x")
    assert evaluate(e, {"x": 2.0}) == 4.5
    assert compile_expr([e], ("x",))(2.0) == (4.5,)


def test_compile_rejects_unlisted_symbols():
    with pytest.raises(ValueError, match="argument list"):
        compile_expr([parse_expression("x+y")], ("x",))
    assert compile_expr([parse_expression("x+y")], ("x",), {"y": 1.0})(2.0) == (3.0,)


def test_each_consumer_compiles_once_per_family(monkeypatch):
    sizes = []

    def counting(exprs, *args, **kwargs):
        sizes.append(len(exprs))
        return compile_expr(exprs, *args, **kwargs)

    for module in (expr_module, variational, levelset):
        monkeypatch.setattr(module, "compile_expr", counting)
    s, _ = cancer_model(r=0.7, a=1.3, h=0.9, k=1.1)
    analyze(s)
    assert sizes == [8]  # the n^3 torsion entries
    sizes.clear()
    traj = variational.integrate_flow(s, (1.0, 1.0), 0.1, 1e-2)
    assert sizes == [2]  # the field components
    sizes.clear()
    variational.geodesic_check(s, traj)
    assert sizes == [2]  # the prolongation
    sizes.clear()
    levelset.extract_contours(s, ("P", "Q"), {}, ((0.1, 3.0), (0.1, 3.0)), 0.2, 16)
    assert sizes == [1]  # the energy


# ---------------------------------------------------------------------------
# results kept on the nodes


def _derived_strings(d):
    matrices = (d.jacobian, d.connection, *d.torsion, d.electromagnetic)
    return [to_string(e) for m in matrices for e in m] + [to_string(d.yang_mills_energy)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: cancer_model()[0],
        lambda: hiv_model()[0],
        lambda: random_rational_field(random.Random(0), 4),
        lambda: random_rational_field(random.Random(7), 4),
    ],
    ids=["cancer", "hiv1", "field-4d-seed0", "field-4d-seed7"],
)
def test_derivation_does_not_depend_on_kept_results(make):
    s = make()
    fresh = _derived_strings(derive(s))
    warm = _derived_strings(derive(s))
    reparsed = OdeSystem(
        s.state_names, tuple(parse_expression(to_string(c)) for c in s.components), s.params
    )
    assert warm == fresh
    assert _derived_strings(derive(reparsed)) == fresh


def test_kept_results_are_invisible_on_the_node():
    text = "h*P*Q/(1 + k*P^2) - sin(P*Q)^2"
    e, twin = parse_expression(text), parse_expression(text)
    simplified = simplify(e)
    derivatives = {name: differentiate(e, name) for name in ("P", "Q")}
    # a repeated call returns the kept object
    assert simplify(e) is simplified
    assert all(differentiate(e, name) is d for name, d in derivatives.items())
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
    assert dataclasses.fields(e) == dataclasses.fields(twin)
    assert dataclasses.asdict(e) == dataclasses.asdict(twin)
    assert dataclasses.replace(e) == twin
    assert not hasattr(e, "__dict__") and copy.deepcopy(e) == twin


@pytest.mark.parametrize(
    "call",
    [
        lambda: simplify(5),
        lambda: differentiate(5, "x"),
        lambda: differentiate(Add(Sym("x"), 5), "x"),
        lambda: substitute(5, {"x": 1.0}),
        lambda: free_symbols(5),
        lambda: to_string(5),
        lambda: compile_expr([5], ("x",)),
    ],
    ids=["simplify", "differentiate", "differentiate-child", "substitute",
         "free_symbols", "to_string", "compile_expr"],
)
def test_a_non_node_is_a_type_error(call):
    # a memo entry point must reject a non-node before it stores anything on it
    with pytest.raises(TypeError, match="not an expression node"):
        call()


def test_a_dropped_derivation_is_collected():
    # nothing outside the nodes holds on to a derived tree
    d = derive(random_rational_field(random.Random(0), 4))
    entry = d.torsion[0][0, 1]
    assert isinstance(entry, (Add, Sub, Mul, Div, Neg))
    ref = weakref.ref(entry)
    del d, entry
    gc.collect()
    assert ref() is None


def test_threads_deriving_one_system_get_equal_trees():
    # two threads may both compute a node's result and both store it; each
    # must still get the tree a single thread derives
    s = random_rational_field(random.Random(3), 4)
    want = _derived_strings(derive(random_rational_field(random.Random(3), 4)))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(derive(s))) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    assert all(_derived_strings(d) == want for d in results)
