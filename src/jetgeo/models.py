"""Built-in systems: a two-population tumor growth model and a three-species
HIV-1 infection model, each packaged with the closed forms of its derived
geometric objects for regression testing.

Default parameter values are arbitrary smoke-test values (all 1.0); the
regression harness samples parameters over boxes instead of privileging any
single point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .expr import Box, Expr, differentiate, parse_expression, sample_deviation
from .geometry import Derivation, ExprMatrix, OdeSystem, VerificationRecord, derive

__all__ = [
    "GoldenSet",
    "GoldenComparison",
    "cancer_model",
    "hiv_model",
    "builtin_model",
    "golden_compare",
    "golden_domain",
    "require_positive",
    "MODEL_NAMES",
]

MODEL_NAMES = ("cancer", "hiv1")


@dataclass(frozen=True)
class GoldenSet:
    """Closed-form reference expressions.

    `entries` maps report paths with 1-based indices ("connection[1][2]",
    "torsion[k][i][j]", "electromagnetic[i][j]", "EYM") to transcribed closed
    forms. `auxiliary` holds named scalar pairs (engine-derived expression,
    transcribed closed form) for quantities that are not report objects, such
    as partial derivatives of a model's transition function.
    """

    entries: Mapping[str, Expr]
    auxiliary: Mapping[str, tuple[Expr, Expr]] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.auxiliary is None:
            object.__setattr__(self, "auxiliary", {})


@dataclass(frozen=True)
class GoldenComparison:
    """Per-path verdicts for one golden set."""

    records: tuple[VerificationRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_deviation(self) -> float:
        return max((r.max_deviation for r in self.records), default=0.0)


def require_positive(**params: float) -> None:
    """Reject model parameters that are not strictly positive."""
    bad = {name: value for name, value in params.items() if not value > 0.0}
    if bad:
        raise ValueError(f"parameters must be positive: {bad}")


def _parse_matrix_entries(
    prefix: str, rows: Sequence[Sequence[str]], known: Sequence[str]
) -> dict[str, Expr]:
    out = {}
    for i, row in enumerate(rows, start=1):
        for j, text in enumerate(row, start=1):
            out[f"{prefix}[{i}][{j}]"] = parse_expression(text, known)
    return out


def cancer_model(
    r: float = 1.0, a: float = 1.0, h: float = 1.0, k: float = 1.0
) -> tuple[OdeSystem, GoldenSet]:
    """Tumor growth flow in proliferating (P) and quiescent (Q) cell counts.

        dP/dt = P - P(P+Q) + F(P,Q)
        dQ/dt = -r Q + a P(P+Q) - F(P,Q)
        F(P,Q) = h P Q / (1 + k P^2)
    """
    require_positive(r=r, a=a, h=h, k=k)
    transition = "h*P*Q/(1 + k*P^2)"
    system = OdeSystem.from_strings(
        ("P", "Q"),
        (
            f"P - P*(P + Q) + {transition}",
            f"-r*Q + a*P*(P + Q) - {transition}",
        ),
        {"r": r, "a": a, "h": h, "k": k},
    )

    known = ("P", "Q", "r", "a", "h", "k")
    f_p = "h*Q*(1 - k*P^2)/(1 + k*P^2)^2"
    f_q = "h*P/(1 + k*P^2)"
    f_pp = "-2*h*k*P*Q*(3 - k*P^2)/(1 + k*P^2)^3"
    f_pq = "h*(1 - k*P^2)/(1 + k*P^2)^2"
    f_qq = "0"
    g = f"(2*a + 1)*P + a*Q - ({f_p}) - ({f_q})"

    entries = {}
    entries.update(
        _parse_matrix_entries(
            "connection",
            [["0", f"({g})/2"], [f"-({g})/2", "0"]],
            known,
        )
    )
    slice1 = f"a + (1 - ({f_pp}) - ({f_pq}))/2"
    slice2 = f"(a - ({f_pq}))/2"
    entries.update(
        _parse_matrix_entries("torsion[1]", [["0", slice1], [f"-({slice1})", "0"]], known)
    )
    entries.update(
        _parse_matrix_entries("torsion[2]", [["0", slice2], [f"-({slice2})", "0"]], known)
    )
    entries.update(
        _parse_matrix_entries(
            "electromagnetic",
            [["0", f"-({g})/2"], [f"({g})/2", "0"]],
            known,
        )
    )
    entries["EYM"] = parse_expression(f"(({g}))^2/4", known)

    f_expr = parse_expression(transition, known)
    engine_fp = differentiate(f_expr, "P")
    engine_fq = differentiate(f_expr, "Q")
    auxiliary = {
        "F_P": (engine_fp, parse_expression(f_p, known)),
        "F_Q": (engine_fq, parse_expression(f_q, known)),
        "F_PP": (differentiate(engine_fp, "P"), parse_expression(f_pp, known)),
        "F_PQ": (differentiate(engine_fp, "Q"), parse_expression(f_pq, known)),
        "F_QQ": (differentiate(engine_fq, "Q"), parse_expression(f_qq, known)),
    }
    return system, GoldenSet(entries, auxiliary)


def hiv_model(
    s: float = 1.0,
    p: float = 1.0,
    d: float = 1.0,
    delta: float = 1.0,
    m: float = 1.0,
    k: float = 1.0,
    n: float = 1.0,
    c: float = 1.0,
) -> tuple[OdeSystem, GoldenSet]:
    """HIV-1 infection flow in uninfected cells (T), productively infected
    cells (Tstar) and free virions (V).

        dT/dt     = s + (p - d) T - p T^2 / m - k V T
        dTstar/dt = k T V - delta Tstar
        dV/dt     = n delta Tstar - c V
    """
    require_positive(s=s, p=p, d=d, delta=delta, m=m, k=k, n=n, c=c)
    system = OdeSystem.from_strings(
        ("T", "Tstar", "V"),
        (
            "s + (p - d)*T - p*T^2/m - k*V*T",
            "k*T*V - delta*Tstar",
            "n*delta*Tstar - c*V",
        ),
        {"s": s, "p": p, "d": d, "delta": delta, "m": m, "k": k, "n": n, "c": c},
    )

    known = ("T", "Tstar", "V", "s", "p", "d", "delta", "m", "k", "n", "c")
    entries = {}
    entries.update(
        _parse_matrix_entries(
            "connection",
            [
                ["0", "k*V/2", "k*T/2"],
                ["-k*V/2", "0", "-(k*T - n*delta)/2"],
                ["-k*T/2", "(k*T - n*delta)/2", "0"],
            ],
            known,
        )
    )
    entries.update(
        _parse_matrix_entries(
            "torsion[1]",
            [["0", "0", "k/2"], ["0", "0", "-k/2"], ["-k/2", "k/2", "0"]],
            known,
        )
    )
    entries.update(
        _parse_matrix_entries(
            "torsion[2]",
            [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            known,
        )
    )
    entries.update(
        _parse_matrix_entries(
            "torsion[3]",
            [["0", "k/2", "0"], ["-k/2", "0", "0"], ["0", "0", "0"]],
            known,
        )
    )
    entries.update(
        _parse_matrix_entries(
            "electromagnetic",
            [
                ["0", "-k*V/2", "-k*T/2"],
                ["k*V/2", "0", "(k*T - n*delta)/2"],
                ["k*T/2", "-(k*T - n*delta)/2", "0"],
            ],
            known,
        )
    )
    entries["EYM"] = parse_expression("(k^2*(V^2 + T^2) + (k*T - n*delta)^2)/4", known)
    return system, GoldenSet(entries)


def builtin_model(name: str, **params: float) -> tuple[OdeSystem, GoldenSet]:
    if name == "cancer":
        return cancer_model(**params)
    if name == "hiv1":
        return hiv_model(**params)
    raise ValueError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")


# ---------------------------------------------------------------------------
# golden comparison

_PATH_RE = re.compile(r"^(jacobian|connection|torsion|electromagnetic)((?:\[\d+\])+)$")


def _resolve_path(path: str, d: Derivation) -> Expr:
    if path == "EYM":
        return d.yang_mills_energy
    match = _PATH_RE.match(path)
    if not match:
        raise ValueError(f"unresolvable golden path {path!r}")
    name = match.group(1)
    indices = [int(ix) - 1 for ix in re.findall(r"\[(\d+)\]", match.group(2))]
    try:
        if name == "torsion":
            if len(indices) != 3:
                raise IndexError
            k, i, j = indices
            return d.torsion[k].entry(i, j)
        matrix: ExprMatrix = getattr(d, name)
        if len(indices) != 2:
            raise IndexError
        return matrix.entry(*indices)
    except IndexError:
        raise ValueError(f"unresolvable golden path {path!r}") from None


def golden_compare(
    system: OdeSystem,
    golden: GoldenSet,
    domain: Box,
    samples: int = 32,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> GoldenComparison:
    """Check every golden expression against the engine-derived object.

    Each comparison samples the domain box (states and parameters alike) and
    records the worst relative deviation; the whole set passes only if every
    path passes.
    """
    d = derive(system)
    pairs = [(path, _resolve_path(path, d), golden.entries[path]) for path in sorted(golden.entries)]
    pairs += [(name, *golden.auxiliary[name]) for name in sorted(golden.auxiliary)]
    records = []
    for name, engine, reference in pairs:
        dev = sample_deviation(engine, reference, domain, samples=samples, seed=seed)
        records.append(VerificationRecord(f"golden:{name}", dev <= tolerance, dev, tolerance))
    return GoldenComparison(tuple(records))


def golden_domain(
    system: OdeSystem,
    state_interval: tuple[float, float],
    param_interval: tuple[float, float] = (0.1, 2.0),
) -> dict[str, tuple[float, float]]:
    """Sampling box covering states and parameters for golden comparisons."""
    box = {name: state_interval for name in system.state_names}
    box.update({name: param_interval for name in system.params})
    return box
