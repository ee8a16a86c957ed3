"""Seeded input generators for the four benchmark workloads.

Everything here is plain data: system-file text, parameter values, initial
states, boxes, grids and levels. Nothing imports jetgeo, so the parent
process and the checks can regenerate any input from (workload, seed) alone.

A run replays *rounds*. A round is the workload's fixed operation list, the
same in every round, so each operation's time can be averaged over its
repeats, and a program that reuses work across calls on the same input
profits here.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("derive", "flow", "contour", "contour-dense")

#: one derive round: built-in models (which also run golden_compare) and
#: random fields given as (dimension, number of rational components), four
#: times over, so that a seed's 40 systems stand for the family and the
#: seeds differ little in cost
DERIVE_MIX = ("cancer", "hiv1", (2, 1), (2, 1), (3, 1), (3, 2), (3, 1), (4, 2), (4, 2), (4, 2)) * 4
#: check points per derive operation (states drawn from DERIVE_BOX)
DERIVE_POINTS = 3
DERIVE_BOX = (0.1, 2.0)
#: state boxes of the golden comparison, as in `jetgeo verify`
GOLDEN_STATE_BOX = {"cancer": (0.1, 5.0), "hiv1": (0.1, 10.0)}

FLOW_T_END = 5.0
FLOW_DT = 1e-3
FLOW_OPS = 8

CONTOUR_GRID = 256
CONTOUR_OPS = 8
DENSE_GRID = 192
DENSE_OPS = 6

CANCER_EQS = (
    ("P", "P - P*(P + Q) + h*P*Q/(1 + k*P^2)"),
    ("Q", "-r*Q + a*P*(P + Q) - h*P*Q/(1 + k*P^2)"),
)
HIV1_EQS = (
    ("T", "s + (p - d)*T - p*T^2/m - k*V*T"),
    ("Tstar", "k*T*V - delta*Tstar"),
    ("V", "n*delta*Tstar - c*V"),
)
TRIG_EQS = (
    ("x", "a*sin(w*y) + e*x"),
    ("y", "b*cos(v*x) - e*y"),
)
CANCER_PARAMS = ("r", "a", "h", "k")
HIV1_PARAMS = ("s", "p", "d", "delta", "m", "k", "n", "c")


def _rng(seed: int, *stream) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *stream)))


def _num(x: float) -> str:
    return repr(float(x))


def system_text(states, params: dict, eqs) -> str:
    """System file in the jetgeo line format."""
    lines = ["vars: " + " ".join(states)]
    if params:
        lines.append("params: " + " ".join(f"{k}={_num(v)}" for k, v in params.items()))
    lines.extend(f"eq {name}: {body}" for name, body in eqs)
    return "\n".join(lines) + "\n"


def _draw(rng: random.Random, names, lo: float, hi: float) -> dict:
    return {name: round(rng.uniform(lo, hi), 4) for name in names}


# ---------------------------------------------------------------------------
# random fields of the tests/conftest.py family, as text


def _polynomial(rng: random.Random, names) -> str:
    """Constant plus three monomials of degrees 1, 2 and 3 in random order."""
    parts = [_num(round(rng.uniform(-2.0, 2.0), 3))]
    degrees = [1, 2, 3]
    rng.shuffle(degrees)
    for degree in degrees:
        factors = [f"({_num(round(rng.uniform(-2.0, 2.0), 3))})"]
        for _ in range(degree):
            factors.append(rng.choice(names))
        parts.append("*".join(factors))
    return " + ".join(parts)


def random_field(rng: random.Random, n: int, rational: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Polynomial components, `rational` of them divided by 1 + sum c x^2 > 0.

    tests/conftest.py makes each component rational with probability 1/2,
    draws each monomial's degree from 1..3 and each denominator's number of
    squares from 1..n. Here all three are stratified: a fixed count of
    rational components, one monomial of each degree, and denominators of
    (n + 1) // 2 and (n + 2) // 2 squares in turn, which keeps the mean of
    1..n. The denominators set most of a field's cost, so the fields of one
    kind differ less in cost and so do the seeds.
    """
    names = tuple(f"x{i + 1}" for i in range(n))
    which = sorted(rng.sample(range(n), k=rational))
    eqs = []
    for i, name in enumerate(names):
        body = _polynomial(rng, names)
        if i in which:
            den = ["1"]
            squares = (n + 1 + which.index(i) % 2) // 2
            for var in rng.sample(names, k=squares):
                den.append(f"{_num(round(rng.uniform(0.2, 1.5), 3))}*{var}^2")
            body = f"({body})/({' + '.join(den)})"
        eqs.append((name, body))
    return names, tuple(eqs)


# ---------------------------------------------------------------------------
# derive


def derive_ops(seed: int) -> list[dict]:
    """One derive round: a system-file text and check points per DERIVE_MIX item."""
    rng = _rng(seed, "derive")
    ops = []
    for item in DERIVE_MIX:
        if item == "cancer":
            params = _draw(rng, CANCER_PARAMS, 0.2, 2.0)
            states, eqs = ("P", "Q"), CANCER_EQS
        elif item == "hiv1":
            params = _draw(rng, HIV1_PARAMS, 0.2, 2.0)
            states, eqs = ("T", "Tstar", "V"), HIV1_EQS
        else:
            params = {}
            states, eqs = random_field(rng, *item)
        points = [[rng.uniform(*DERIVE_BOX) for _ in states] for _ in range(DERIVE_POINTS)]
        ops.append(
            {
                "kind": item if isinstance(item, str) else "field",
                "states": list(states),
                "params": params,
                "text": system_text(states, params, eqs),
                "points": points,
            }
        )
    return ops


# ---------------------------------------------------------------------------
# flow


def flow_ops(seed: int) -> list[dict]:
    """Half cancer, half hiv1; parameters in [0.7, 1.3], initial states in [0.3, 1.2].

    The ranges keep transients slow enough that geodesic_check's fixed
    default tolerance holds at dt = 1e-3: with parameters in [0.5, 1.5] and
    states up to 2, correct hiv1 trajectories get residuals up to 7.8 times
    that tolerance (see CHANGES.md).
    """
    rng = _rng(seed, "flow")
    ops = []
    for i in range(FLOW_OPS):
        model = ("cancer", "hiv1")[i % 2]
        names = CANCER_PARAMS if model == "cancer" else HIV1_PARAMS
        n = 2 if model == "cancer" else 3
        ops.append(
            {
                "model": model,
                "params": _draw(rng, names, 0.7, 1.3),
                "x0": [round(rng.uniform(0.3, 1.2), 4) for _ in range(n)],
                "t_end": FLOW_T_END,
                "dt": FLOW_DT,
            }
        )
    return ops


# ---------------------------------------------------------------------------
# contour


def contour_ops(seed: int) -> list[dict]:
    """Cancer (P,Q) and hiv1 (T,V; Tstar fixed) slices at stratified seeded levels.

    Cancer levels put g = 2 sqrt(level) (EYM = g^2/4) in the middle of the
    range g takes on the box; hiv1 levels give ellipses whose semi-axes span
    27-60% of the box half-widths.
    """
    rng = _rng(seed, "contour")
    cancer = _draw(rng, CANCER_PARAMS, 0.5, 1.5)
    hiv1 = _draw(rng, HIV1_PARAMS, 0.5, 1.5)
    half = CONTOUR_OPS // 2
    cancer_ops, hiv1_ops = [], []
    for j in range(half):
        g = 2.0 + 6.0 * (j + rng.random()) / half
        cancer_ops.append(
            {
                "model": "cancer",
                "params": cancer,
                "axes": ["P", "Q"],
                "fixed": {},
                "box": [[0.0, 3.0], [0.0, 3.0]],
                "level": g * g / 4.0,
                "grid": CONTOUR_GRID,
            }
        )
    k, nd = hiv1["k"], hiv1["n"] * hiv1["delta"]
    # the box half-widths are 1.5 times the semi-axes of an ellipse with a = a_max
    a_max = 2.0
    center = nd / (2.0 * k)
    box = [[center - 1.5 * a_max, center + 1.5 * a_max],
           [-1.5 * a_max * math.sqrt(2.0), 1.5 * a_max * math.sqrt(2.0)]]
    for j in range(half):
        frac = 0.4 + 0.5 * (j + rng.random()) / half
        spread = 2.0 * k * frac * a_max
        hiv1_ops.append(
            {
                "model": "hiv1",
                "params": hiv1,
                "axes": ["T", "V"],
                "fixed": {"Tstar": round(rng.uniform(0.2, 2.0), 4)},
                "box": box,
                "level": (spread * spread + nd * nd) / 8.0,
                "grid": CONTOUR_GRID,
            }
        )
    return [op for pair in zip(cancer_ops, hiv1_ops) for op in pair]


def dense_ops(seed: int) -> list[dict]:
    """Trigonometric field whose energy is an egg-crate: many closed level curves.

    EYM = (a w cos(w y) + b v sin(v x))^2 / 4; levels put |g| = 2 sqrt(level)
    at 30-85% of the peak |a w| + |b v|.
    """
    rng = _rng(seed, "dense")
    params = {
        "a": round(rng.uniform(0.9, 1.1), 4),
        "b": round(rng.uniform(0.9, 1.1), 4),
        "w": round(rng.uniform(7.5, 8.5), 4),
        "v": round(rng.uniform(7.5, 8.5), 4),
        "e": round(rng.uniform(0.05, 0.2), 4),
    }
    peak = params["a"] * params["w"] + params["b"] * params["v"]
    ops = []
    for j in range(DENSE_OPS):
        g = peak * (0.3 + 0.55 * (j + rng.random()) / DENSE_OPS)
        ops.append(
            {
                "model": "trig",
                "params": params,
                "text": system_text(("x", "y"), params, TRIG_EQS),
                "axes": ["x", "y"],
                "fixed": {},
                "box": [[0.0, 2.0 * math.pi], [0.0, 2.0 * math.pi]],
                "level": g * g / 4.0,
                "grid": DENSE_GRID,
            }
        )
    return ops
