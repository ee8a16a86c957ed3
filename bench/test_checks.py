"""The benchmark's correctness checks accept correct output and reject wrong output.

Run with: python -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("sympy")
pytest.importorskip("scipy")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from jetgeo import builtin_model, extract_contours, geodesic_check, integrate_flow, to_string  # noqa: E402
from jetgeo.cli import parse_system_file  # noqa: E402
from jetgeo.geometry import analyze  # noqa: E402


def _derive(op):
    report = analyze(parse_system_file(op["text"]))
    values = checks.evaluate_report(report, op["states"], op["params"], op["points"], to_string)
    verdicts = {rec.name: bool(rec.passed) for rec in report.records()}
    return values, checks.derive_oracle(op["text"], op["points"]), verdicts


@pytest.mark.parametrize("index", [0, 1, 4, 7])
def test_derive_check_accepts_jetgeo_output(index):
    op = W.derive_ops(3)[index]
    values, oracle, verdicts = _derive(op)
    assert checks.check_derive(values, oracle, verdicts) == []


def test_derive_check_rejects_flipped_connection_sign():
    op = W.derive_ops(3)[4]  # a random 3-d field
    values, oracle, verdicts = _derive(op)
    N = values["N"]
    i, j = np.unravel_index(np.argmax(np.abs(N[0])), N[0].shape)
    assert abs(N[0, i, j]) > 1e-3
    wrong = copy.deepcopy(values)
    wrong["N"][:, i, j] *= -1.0
    errors = checks.check_derive(wrong, oracle, verdicts)
    assert any(e.startswith("N:") for e in errors)
    assert "N is not antisymmetric" in errors


def test_derive_check_rejects_failed_verdict():
    op = W.derive_ops(3)[2]
    values, oracle, verdicts = _derive(op)
    verdicts["maxwell"] = False
    assert checks.check_derive(values, oracle, verdicts) == ["verdict maxwell is not PASS"]


def _flow(op):
    system, _ = builtin_model(op["model"], **op["params"])
    traj = integrate_flow(system, op["x0"], op["t_end"], op["dt"])
    record = geodesic_check(system, traj)
    return {
        "end": traj.samples[-1].tolist(),
        "start": traj.samples[0].tolist(),
        "rows": int(traj.samples.shape[0]),
        "geodesic_passed": bool(record.passed),
        "geodesic_deviation": float(record.max_deviation),
    }


@pytest.mark.parametrize("index", [0, 1])
def test_flow_check_rejects_endpoint_off_by_1e_6(index):
    op = W.flow_ops(5)[index]
    program = _flow(op)
    reference = checks.flow_oracle(op)
    assert checks.check_flow(program, op, reference) == []
    wrong = copy.deepcopy(program)
    wrong["end"][-1] += 1e-6
    errors = checks.check_flow(wrong, op, reference)
    assert len(errors) == 1 and errors[0].startswith("endpoint deviates")


def _contour(op):
    system, _ = builtin_model(op["model"], **op["params"])
    box = tuple(tuple(b) for b in op["box"])
    result = extract_contours(system, tuple(op["axes"]), op["fixed"], box, op["level"], op["grid"])
    return [list(map(tuple, line)) for line in result.polylines]


@pytest.mark.parametrize("index", [0, 1])
def test_contour_check_rejects_vertex_moved_along_its_edge(index):
    op = W.contour_ops(5)[index]
    lines = _contour(op)
    assert checks.check_contour(lines, op) == []
    stats = checks.contour_stats(op)
    h = stats["vs"][1] - stats["vs"][0]
    line = lines[0]
    k = len(line) // 2
    u, v = line[k]
    # on a vertical edge u is a grid value; move v by half a cell along that edge
    on_vertical = np.min(np.abs(stats["us"] - u)) < 1e-9
    moved = (u, v + 0.5 * h) if on_vertical else (u + 0.5 * (stats["us"][1] - stats["us"][0]), v)
    wrong = [list(l) for l in lines]
    wrong[0][k] = moved
    errors = checks.check_contour(wrong, op)
    assert any("interpolation error" in e or "bracket" in e for e in errors)


def test_contour_check_rejects_vertex_moved_off_the_grid_edges():
    op = W.contour_ops(5)[0]
    lines = _contour(op)
    stats = checks.contour_stats(op)
    hu, hv = stats["us"][1] - stats["us"][0], stats["vs"][1] - stats["vs"][0]
    wrong = [list(l) for l in lines]
    u, v = wrong[0][3]
    wrong[0][3] = (u + 0.3 * hu, v + 0.3 * hv)
    assert any("off the grid edges" in e for e in checks.check_contour(wrong, op))


def test_ellipse_check_rejects_scaled_hiv1_curve():
    op = W.contour_ops(5)[1]
    assert op["model"] == "hiv1"
    lines = _contour(op)
    stats = checks.contour_stats(op)
    hu, hv = stats["us"][1] - stats["us"][0], stats["vs"][1] - stats["vs"][0]
    center, _, _ = checks.hiv1_ellipse(op["params"], op["level"])
    pts = np.asarray(lines[0])
    assert checks._check_ellipse(lines, op, pts, hu, hv) == []
    scaled = pts.copy()
    scaled[:, 0] = center + 1.01 * (scaled[:, 0] - center)
    scaled[:, 1] *= 1.01
    errors = checks._check_ellipse([list(map(tuple, scaled))], op, scaled, hu, hv)
    assert "a vertex lies outside the closed-form ellipse" in errors


def test_dense_check_accepts_jetgeo_output():
    op = W.dense_ops(5)[0]
    system = parse_system_file(op["text"])
    box = tuple(tuple(b) for b in op["box"])
    result = extract_contours(system, tuple(op["axes"]), op["fixed"], box, op["level"], op["grid"])
    stats = checks.contour_stats(op)
    assert 0.10 <= stats["active_cells"] / op["grid"] ** 2 <= 0.25
    assert checks.check_contour([list(map(tuple, l)) for l in result.polylines], op, stats) == []


def test_text_reader_handles_printed_precedence():
    b = {"x": np.array([2.0]), "y": np.array([3.0])}
    assert checks.evaluate_text("-x^2", b)[0] == -4.0
    assert checks.evaluate_text("x*-1.5/y^-2", b)[0] == pytest.approx(-27.0)
    assert checks.evaluate_text("(x - y)^3 - sin(0)", b)[0] == -1.0
