"""Correctness checks of the benchmark, computed apart from jetgeo.

- `evaluate_text` evaluates the printed form of an expression (the jetgeo
  input grammar) with its own parser, so program output is read without the
  program's evaluator.
- derive: sympy's exact polynomial ring differentiates the same system text
  (`derive_oracle`).
- flow: scipy DOP853 integrates hand-written right-hand sides (`flow_oracle`).
- contour: hand-derived energies in numpy (`energy_function`), plus the
  closed-form hiv1 ellipse.

Each `check_*` returns a list of messages; an empty list means the result is
correct. numpy is imported here; sympy and scipy only inside the oracles, so
the measured process never loads them.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: relative tolerance of derived objects against the sympy oracle
DERIVE_RTOL = 1e-8
#: absolute-plus-relative tolerance of flow endpoints against DOP853
FLOW_TOL = 1e-9
#: slack on the linear-interpolation bound of contour vertices
CONTOUR_SLACK = 4.0


# ---------------------------------------------------------------------------
# printed expressions

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)|(\S))")
_FUNCS = {"sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}


class _TextEval:
    """Recursive-descent evaluator of the grammar jetgeo prints.

    expr := term (('+'|'-') term)*;  term := factor (('*'|'/') factor)*;
    factor := '-' factor | base ('^' '-'? integer)?;
    base := number | name | func '(' expr ')' | '(' expr ')'.
    """

    def __init__(self, text: str, bindings: dict, number=float):
        self.number = number
        self.tokens = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
            self.tokens.append(m.groups())
            pos = m.end()
        self.tokens.append((None, None, None))
        self.i = 0
        self.bindings = bindings

    def op(self, chars: str) -> str | None:
        tok = self.tokens[self.i][2]
        if tok is not None and tok in chars:
            self.i += 1
            return tok
        return None

    def run(self):
        value = self.expr()
        if self.i != len(self.tokens) - 1:
            raise ValueError(f"trailing input at token {self.i}")
        return value

    def expr(self):
        value = self.term()
        while (op := self.op("+-")) is not None:
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while (op := self.op("*/")) is not None:
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        if self.op("-"):
            return -self.factor()
        value = self.base()
        if self.op("^"):
            sign = -1 if self.op("-") else 1
            number = self.tokens[self.i][0]
            if number is None or not number.isdigit():
                raise ValueError("integer exponent expected")
            self.i += 1
            value = value ** (sign * int(number))
        return value

    def base(self):
        number, name, op = self.tokens[self.i]
        self.i += 1
        if number is not None:
            return self.number(number)
        if name is not None:
            if self.op("("):
                arg = self.expr()
                if not self.op(")"):
                    raise ValueError("')' expected")
                return _FUNCS[name](arg)
            return self.bindings[name]
        if op == "(":
            value = self.expr()
            if not self.op(")"):
                raise ValueError("')' expected")
            return value
        raise ValueError(f"unexpected token {op!r}")


def evaluate_text(text: str, bindings: dict):
    """Value of a printed expression; bindings may hold numpy arrays."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return _TextEval(text, bindings).run()


# ---------------------------------------------------------------------------
# derive


def parse_system_text(text: str):
    """States, parameter values and right-hand sides of a system file."""
    states: list[str] = []
    params: dict[str, str] = {}
    eqs: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("vars:"):
            states = line[5:].split()
        elif line.startswith("params:"):
            for item in line[7:].split():
                name, value = item.split("=")
                params[name] = value
        elif line.startswith("eq "):
            name, body = line[3:].split(":", 1)
            eqs[name.strip()] = body.strip()
    return states, params, [eqs[name] for name in states]


class _Ratio:
    """Numerator and denominator in a sympy polynomial ring; no cancellation."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self.p, self.q = p, q

    def __add__(self, o):
        if self.q == o.q:
            return _Ratio(self.p + o.p, self.q)
        return _Ratio(self.p * o.q + o.p * self.q, self.q * o.q)

    def __sub__(self, o):
        if self.q == o.q:
            return _Ratio(self.p - o.p, self.q)
        return _Ratio(self.p * o.q - o.p * self.q, self.q * o.q)

    def __mul__(self, o):
        return _Ratio(self.p * o.p, self.q * o.q)

    def __truediv__(self, o):
        return _Ratio(self.p * o.q, self.q * o.p)

    def __neg__(self):
        return _Ratio(-self.p, self.q)

    def __pow__(self, e: int):
        return _Ratio(self.p**e, self.q**e) if e >= 0 else _Ratio(self.q**-e, self.p**-e)


def _poly_values(poly, X: np.ndarray) -> np.ndarray:
    """Values of a ring element at the rows of X."""
    terms = poly.terms()
    if not terms:
        return np.zeros(X.shape[0])
    monoms = np.array([m for m, _ in terms], dtype=float)
    coeffs = np.array([float(c) for _, c in terms])
    return np.prod(X[:, None, :] ** monoms[None, :, :], axis=2) @ coeffs


def derive_oracle(text: str, points) -> dict:
    """J, N, R_k, F and EYM of the system text at the points.

    The field is read into sympy's exact polynomial ring over QQ as
    numerator/denominator pairs P/Q, differentiated there, and combined by
    the quotient rule:
        X_j  = (P_j Q - P Q_j) / Q^2
        X_jk = (P_jk Q + P_j Q_k - P_k Q_j - P Q_jk) / Q^2 - 2 (P_j Q - P Q_j) Q_k / Q^3
    R[p, k, i, j] = dN_ij/dx^k = -1/2 (X^i_jk - X^j_ik).
    """
    from fractions import Fraction

    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    states, params, bodies = parse_system_text(text)
    n = len(states)
    R_, *gens = ring(",".join(states), QQ)
    one = R_.one

    def number(text):
        return _Ratio(R_(QQ(Fraction(text))), one)

    bindings = {name: _Ratio(g, one) for name, g in zip(states, gens)}
    bindings.update({name: number(value) for name, value in params.items()})
    field = [_TextEval(body, bindings, number).run() for body in bodies]

    X = np.array(points, dtype=float)
    J = np.empty((X.shape[0], n, n))
    H = np.empty((X.shape[0], n, n, n))  # H[p, i, j, k] = d2X^i/dx^j dx^k
    for i, comp in enumerate(field):
        P, Q = comp.p, comp.q
        v = lambda poly: _poly_values(poly, X)  # noqa: E731
        p, q = v(P), v(Q)
        pj = [v(P.diff(g)) for g in gens]
        qj = [v(Q.diff(g)) for g in gens]
        for j in range(n):
            J[:, i, j] = (pj[j] * q - p * qj[j]) / q**2
            for k in range(j, n):
                pjk, qjk = v(P.diff(gens[j]).diff(gens[k])), v(Q.diff(gens[j]).diff(gens[k]))
                val = (pjk * q + pj[j] * qj[k] - pj[k] * qj[j] - p * qjk) / q**2 \
                    - 2.0 * (pj[j] * q - p * qj[j]) * qj[k] / q**3
                H[:, i, j, k] = H[:, i, k, j] = val
    N = -0.5 * (J - J.transpose(0, 2, 1))
    Rk = -0.5 * (H - H.transpose(0, 2, 1, 3))  # [p, i, j, k]
    F = -N
    return {"J": J, "N": N, "R": Rk.transpose(0, 3, 1, 2), "F": F,
            "EYM": 0.5 * np.sum(F * F, axis=(1, 2))}


def evaluate_report(report, states, params, points, to_string) -> dict:
    """Values of the report's J, N, R_k, F and EYM at the points, read from their text."""
    bindings = {name: float(value) for name, value in params.items()}
    cols = np.array(points, dtype=float)
    bindings.update({name: cols[:, i] for i, name in enumerate(states)})
    k = len(points)

    def matrix(m):
        out = np.empty((k, m.rows, m.cols))
        for i in range(m.rows):
            for j in range(m.cols):
                out[:, i, j] = evaluate_text(to_string(m[i, j]), bindings)
        return out

    return {
        "J": matrix(report.jacobian),
        "N": matrix(report.connection),
        "R": np.stack([matrix(s) for s in report.torsion], axis=1),
        "F": matrix(report.electromagnetic),
        "EYM": np.broadcast_to(evaluate_text(to_string(report.yang_mills_energy), bindings), (k,)).copy(),
    }


def check_derive(program: dict, oracle: dict, verdicts: dict) -> list[str]:
    """Program values against the oracle, plus the identities the method must keep."""
    errors = []
    for key in ("J", "N", "R", "F", "EYM"):
        got = np.asarray(program[key], dtype=float)
        want = oracle[key]
        if got.shape != want.shape:
            errors.append(f"{key}: shape {got.shape} != {want.shape}")
            continue
        dev = float(np.max(np.abs(got - want)))
        tol = DERIVE_RTOL * (1.0 + float(np.max(np.abs(want))))
        if not dev <= tol:
            errors.append(f"{key}: deviation {dev:.3e} from sympy exceeds {tol:.3e}")
    N = np.asarray(program["N"], dtype=float)
    R = np.asarray(program["R"], dtype=float)
    F = np.asarray(program["F"], dtype=float)
    E = np.asarray(program["EYM"], dtype=float)
    scale = 1.0 + float(np.max(np.abs(N)))
    if np.max(np.abs(N + N.transpose(0, 2, 1))) > 1e-12 * scale:
        errors.append("N is not antisymmetric")
    if np.max(np.abs(R + R.transpose(0, 1, 3, 2))) > 1e-12 * (1.0 + float(np.max(np.abs(R)))):
        errors.append("a torsion slice is not antisymmetric")
    if np.max(np.abs(F + N)) > 1e-12 * scale:
        errors.append("F != -N")
    trace = 0.5 * np.sum(F * F, axis=(1, 2))
    if np.max(np.abs(E - trace)) > 1e-10 * (1.0 + float(np.max(trace))):
        errors.append("EYM != 1/2 Tr(F F^T)")
    if np.min(E) < 0.0:
        errors.append("EYM is negative")
    for name, passed in verdicts.items():
        if passed is not True:
            errors.append(f"verdict {name} is not PASS")
    return errors


# ---------------------------------------------------------------------------
# flow


def flow_rhs(model: str, params: dict):
    """Right-hand side written out by hand from the model equations."""
    if model == "cancer":
        r, a, h, k = (params[n] for n in ("r", "a", "h", "k"))

        def rhs(t, x):
            P, Q = x
            f = h * P * Q / (1.0 + k * P * P)
            return [P - P * (P + Q) + f, -r * Q + a * P * (P + Q) - f]

        return rhs
    if model == "hiv1":
        s, p, d, delta, m, k, n, c = (
            params[name] for name in ("s", "p", "d", "delta", "m", "k", "n", "c")
        )

        def rhs(t, x):
            T, Ts, V = x
            return [
                s + (p - d) * T - p * T * T / m - k * V * T,
                k * T * V - delta * Ts,
                n * delta * Ts - c * V,
            ]

        return rhs
    raise ValueError(f"unknown model {model!r}")


def flow_oracle(op: dict) -> np.ndarray:
    """Endpoint from scipy solve_ivp (DOP853, rtol 1e-12)."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        flow_rhs(op["model"], op["params"]), (0.0, op["t_end"]), op["x0"],
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def check_flow(program: dict, op: dict, reference) -> list[str]:
    errors = []
    end = np.asarray(program["end"], dtype=float)
    ref = np.asarray(reference, dtype=float)
    tol = FLOW_TOL * (1.0 + float(np.max(np.abs(ref))))
    dev = float(np.max(np.abs(end - ref)))
    if not dev <= tol:
        errors.append(f"endpoint deviates {dev:.3e} from DOP853 (tolerance {tol:.3e})")
    steps = int(round(op["t_end"] / op["dt"]))
    if program["rows"] != steps + 1:
        errors.append(f"{program['rows']} samples, expected {steps + 1}")
    if list(program["start"]) != [float(v) for v in op["x0"]]:
        errors.append("first sample is not the initial state")
    if program["geodesic_passed"] is not True:
        errors.append(f"geodesic_check failed ({program['geodesic_deviation']:.3e})")
    return errors


# ---------------------------------------------------------------------------
# contour


def energy_function(op: dict):
    """EYM on the op's 2-d slice, derived by hand: EYM = sum_{i<j} F_ij^2."""
    p = op["params"]
    if op["model"] == "cancer":
        a, h, k = (p[n] for n in ("a", "h", "k"))

        def energy(P, Q):
            w = 1.0 + k * P * P
            j12 = -P + h * P / w  # dX^P/dQ
            j21 = a * (2.0 * P + Q) - h * Q * (1.0 - k * P * P) / (w * w)  # dX^Q/dP
            return 0.25 * (j12 - j21) ** 2

        return energy
    if op["model"] == "hiv1":
        k, nd = p["k"], p["n"] * p["delta"]

        def energy(T, V):
            return 0.25 * (k * k * (V * V + T * T) + (k * T - nd) ** 2)

        return energy
    if op["model"] == "trig":
        a, b, w, v = (p[n] for n in ("a", "b", "w", "v"))

        def energy(x, y):
            return 0.25 * (a * w * np.cos(w * y) + b * v * np.sin(v * x)) ** 2

        return energy
    raise ValueError(f"unknown model {op['model']!r}")


def contour_stats(op: dict) -> dict:
    """Grid, node energies and the sign-change edges of the op, computed apart."""
    (ulo, uhi), (vlo, vhi) = op["box"]
    grid = op["grid"]
    us = np.linspace(ulo, uhi, grid + 1)
    vs = np.linspace(vlo, vhi, grid + 1)
    energy = energy_function(op)
    values = energy(us[:, None], vs[None, :]) * np.ones((us.size, vs.size))
    inside = values < op["level"]
    crossed_edges = int(np.sum(inside[1:, :] != inside[:-1, :]) + np.sum(inside[:, 1:] != inside[:, :-1]))
    case = inside[:-1, :-1] * 1 + inside[1:, :-1] * 2 + inside[1:, 1:] * 4 + inside[:-1, 1:] * 8
    active = int(np.sum((case != 0) & (case != 15)))
    near = np.abs(values - op["level"]) <= 1e-9 * (1.0 + abs(op["level"]))
    return {"us": us, "vs": vs, "energy": energy, "crossed_edges": crossed_edges,
            "active_cells": active, "near_nodes": int(np.sum(near))}


def check_contour(polylines, op: dict, stats: dict | None = None) -> list[str]:
    """Every vertex on a grid edge, within the linear-interpolation error of the level.

    For a vertex at fraction t of an edge of length h, linear interpolation
    misses the level by at most t(1-t) h^2/2 max|f''|; f'' is estimated from
    second differences of the independent energy along the edge.
    """
    if stats is None:
        stats = contour_stats(op)
    us, vs, energy = stats["us"], stats["vs"], stats["energy"]
    level = op["level"]
    errors = []
    if not polylines:
        return ["no contour extracted"]
    pts = np.concatenate([np.asarray(p, dtype=float).reshape(-1, 2) for p in polylines])
    hu, hv = us[1] - us[0], vs[1] - vs[0]
    iu = np.clip(np.floor((pts[:, 0] - us[0]) / hu).astype(int), 0, us.size - 2)
    iv = np.clip(np.floor((pts[:, 1] - vs[0]) / hv).astype(int), 0, vs.size - 2)
    eps = 1e-9
    on_u = np.minimum(np.abs(pts[:, 0] - us[iu]), np.abs(pts[:, 0] - us[iu + 1])) <= eps * hu
    on_v = np.minimum(np.abs(pts[:, 1] - vs[iv]), np.abs(pts[:, 1] - vs[iv + 1])) <= eps * hv
    inside_box = (pts[:, 0] >= us[0] - eps * hu) & (pts[:, 0] <= us[-1] + eps * hu) \
        & (pts[:, 1] >= vs[0] - eps * hv) & (pts[:, 1] <= vs[-1] + eps * hv)
    off = ~(on_u | on_v) | ~inside_box
    if np.any(off):
        errors.append(f"{int(np.sum(off))} vertices off the grid edges")
        return errors
    # edge endpoints: a vertex on a u grid line lies on a vertical edge (u fixed)
    u_line = np.where(np.abs(pts[:, 0] - us[iu]) <= eps * hu, us[iu], us[np.minimum(iu + 1, us.size - 1)])
    v_line = np.where(np.abs(pts[:, 1] - vs[iv]) <= eps * hv, vs[iv], vs[np.minimum(iv + 1, vs.size - 1)])
    a = np.where(on_u[:, None], np.stack([u_line, vs[iv]], 1), np.stack([us[iu], v_line], 1))
    b = np.where(on_u[:, None], np.stack([u_line, vs[iv + 1]], 1), np.stack([us[iu + 1], v_line], 1))
    h = np.where(on_u, hv, hu)
    t = np.linalg.norm(pts - a, axis=1) / h
    quarter = [energy(*(a + q * (b - a)).T) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    f0, f1 = quarter[0], quarter[-1]
    if np.any((np.minimum(f0, f1) > level) | (np.maximum(f0, f1) < level)):
        errors.append("a vertex sits on an edge whose ends do not bracket the level")
    second = np.max(
        [np.abs(quarter[i - 1] - 2.0 * quarter[i] + quarter[i + 1]) for i in (1, 2, 3)], axis=0
    ) / (0.25 * h) ** 2
    bound = CONTOUR_SLACK * t * (1.0 - t) * h * h / 2.0 * second + 1e-10 * (1.0 + abs(level))
    miss = np.abs(energy(pts[:, 0], pts[:, 1]) - level)
    bad = miss > bound
    if np.any(bad):
        worst = int(np.argmax(miss - bound))
        errors.append(
            f"{int(np.sum(bad))} vertices miss the level by more than the interpolation error "
            f"(worst {miss[worst]:.3e} > {bound[worst]:.3e})"
        )
    # consecutive vertices of a polyline share a cell
    for line in polylines:
        arr = np.asarray(line, dtype=float).reshape(-1, 2)
        step = np.abs(np.diff(arr, axis=0))
        if np.any((step[:, 0] > hu * (1 + 1e-9)) | (step[:, 1] > hv * (1 + 1e-9))):
            errors.append("consecutive polyline vertices are not in one cell")
            break
    distinct = len({(float(x), float(y)) for x, y in pts})
    if abs(distinct - stats["crossed_edges"]) > 4 * stats["near_nodes"]:
        errors.append(f"{distinct} distinct vertices but {stats['crossed_edges']} crossed edges")
    if op["model"] == "hiv1":
        errors.extend(_check_ellipse(polylines, op, pts, hu, hv))
    return errors


def hiv1_ellipse(params: dict, level: float) -> tuple[float, float, float]:
    """Center T and semi-axes (a along T, b along V) of {EYM = level} in a T,V slice.

    EYM = (k^2 (V^2 + T^2) + (k T - n delta)^2) / 4 = level is
    2 k^2 (T - n delta / 2k)^2 + k^2 V^2 = 4 level - (n delta)^2 / 2, for any Tstar.
    """
    k, nd = params["k"], params["n"] * params["delta"]
    spread = math.sqrt(8.0 * level - nd * nd)
    return nd / (2.0 * k), spread / (2.0 * k), spread / (k * math.sqrt(2.0))


def _check_ellipse(polylines, op: dict, pts: np.ndarray, hu: float, hv: float) -> list[str]:
    """The T,V slice of the hiv1 energy is one closed ellipse, known in closed form."""
    center, semi_a, semi_b = hiv1_ellipse(op["params"], op["level"])
    errors = []
    if len(polylines) != 1 or tuple(polylines[0][0]) != tuple(polylines[0][-1]):
        errors.append(f"expected one closed curve, got {len(polylines)} polylines")
    du, dv = pts[:, 0] - center, pts[:, 1]
    # the energy is convex, so its chords lie above it and vertices fall inside
    if np.max((du / semi_a) ** 2 + (dv / semi_b) ** 2) > 1.0 + 1e-9:
        errors.append("a vertex lies outside the closed-form ellipse")
    if not (semi_a - hu <= np.max(np.abs(du)) <= semi_a + 1e-9 * semi_a):
        errors.append("T extent does not match the semi-axis a")
    if not (semi_b - hv <= np.max(np.abs(dv)) <= semi_b + 1e-9 * semi_b):
        errors.append("V extent does not match the semi-axis b")
    return errors
