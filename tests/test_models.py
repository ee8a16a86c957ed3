import dataclasses

import pytest

from jetgeo.expr import Num, numerically_equivalent, parse_expression
from jetgeo.geometry import derive
from jetgeo.models import (
    GoldenSet,
    builtin_model,
    cancer_model,
    golden_compare,
    golden_domain,
    hiv_model,
)

@pytest.fixture(scope="module")
def cancer():
    return cancer_model()


@pytest.fixture(scope="module")
def hiv():
    return hiv_model()


def test_cancer_golden_suite_passes(cancer):
    system, golden = cancer
    comparison = golden_compare(
        system, golden, golden_domain(system, (0.1, 5.0)), samples=200
    )
    assert comparison.passed, [r.name for r in comparison.records if not r.passed]
    assert comparison.max_deviation <= 1e-9


def test_hiv_golden_suite_passes(hiv):
    system, golden = hiv
    comparison = golden_compare(
        system, golden, golden_domain(system, (0.1, 10.0)), samples=200, tolerance=1e-12
    )
    assert comparison.passed, [r.name for r in comparison.records if not r.passed]


def test_cancer_golden_includes_transition_derivatives(cancer):
    _, golden = cancer
    assert set(golden.auxiliary) == {"F_P", "F_Q", "F_PP", "F_PQ", "F_QQ"}
    known = ("P", "Q", "r", "a", "h", "k")
    box = {name: (0.1, 3.0) for name in known}
    _, f_pp_reference = golden.auxiliary["F_PP"]
    assert numerically_equivalent(
        f_pp_reference,
        parse_expression("-2*h*k*P*Q*(3-k*P^2)/(1+k*P^2)^3", known),
        box,
    )
    engine_f_qq, reference_f_qq = golden.auxiliary["F_QQ"]
    assert engine_f_qq == Num(0.0)
    assert reference_f_qq == Num(0.0)


def test_golden_paths_cover_derived_objects(hiv, cancer):
    _, golden_h = hiv
    assert "EYM" in golden_h.entries
    assert "connection[2][3]" in golden_h.entries
    assert "torsion[1][1][3]" in golden_h.entries
    assert "electromagnetic[3][2]" in golden_h.entries
    _, golden_c = cancer
    assert "connection[1][2]" in golden_c.entries
    assert "torsion[2][1][2]" in golden_c.entries


def test_model_rejects_nonpositive_parameters():
    with pytest.raises(ValueError, match="positive"):
        cancer_model(r=-1.0)
    with pytest.raises(ValueError, match="positive"):
        cancer_model(h=0.0)
    with pytest.raises(ValueError, match="positive"):
        hiv_model(delta=0.0)


def test_wrong_sign_golden_fails_exactly_that_path(hiv):
    system, golden = hiv
    entries = dict(golden.entries)
    known = ("T", "Tstar", "V", "k", "n", "delta")
    entries["connection[1][2]"] = parse_expression("-k*V/2", known)  # sign flipped
    broken = dataclasses.replace(golden, entries=entries)
    comparison = golden_compare(
        system, broken, golden_domain(system, (0.1, 10.0)), tolerance=1e-12
    )
    failed = [r.name for r in comparison.records if not r.passed]
    assert failed == ["golden:connection[1][2]"]


def test_hiv_middle_torsion_slice_is_identically_zero(hiv):
    system, _ = hiv
    assert all(entry == Num(0.0) for entry in derive(system).torsion[1])


def test_connection_diagonals_are_identically_zero(hiv, cancer):
    for system in (hiv[0], cancer[0]):
        N = derive(system).connection
        for i in range(system.n):
            assert N[i, i] == Num(0.0)


def test_unresolvable_golden_path_raises(hiv):
    system, _ = hiv
    bogus = GoldenSet({"connection[9][9]": Num(0.0)})
    with pytest.raises(ValueError, match="unresolvable"):
        golden_compare(system, bogus, golden_domain(system, (0.1, 10.0)))
    bogus = GoldenSet({"shenanigans": Num(0.0)})
    with pytest.raises(ValueError, match="unresolvable"):
        golden_compare(system, bogus, golden_domain(system, (0.1, 10.0)))


def test_builtin_model_dispatch():
    system, _ = builtin_model("cancer", r=0.5)
    assert system.params["r"] == 0.5
    with pytest.raises(ValueError, match="unknown model"):
        builtin_model("lotka")


def test_golden_domain_covers_states_and_params(hiv):
    system, _ = hiv
    box = golden_domain(system, (0.1, 10.0))
    assert box["T"] == (0.1, 10.0)
    assert box["k"] == (0.1, 2.0)
    assert set(box) == set(system.state_names) | set(system.params)
