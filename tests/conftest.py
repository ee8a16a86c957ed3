"""Shared generators for randomized structural tests.

Everything is seeded; reruns are byte-identical.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from jetgeo.expr import Add, Call, Div, Expr, Mul, Neg, Num, Pow, Sub, Sym, differentiate
from jetgeo.geometry import OdeSystem


def random_polynomial(
    rng: random.Random,
    names: tuple[str, ...],
    degree: int = 3,
    terms: int = 3,
) -> Expr:
    """Random polynomial with small integer-ish coefficients."""
    total: Expr = Num(round(rng.uniform(-2.0, 2.0), 3))
    for _ in range(terms):
        coeff: Expr = Num(round(rng.uniform(-2.0, 2.0), 3))
        budget = rng.randint(1, degree)
        monomial = coeff
        for _ in range(budget):
            monomial = monomial * Sym(rng.choice(names))
        total = total + monomial
    return total


def random_rational_field(rng: random.Random, n: int) -> OdeSystem:
    """Vector field with polynomial or rational components.

    Denominators are 1 + sum of squared states, so components are smooth on
    every sampling box used in the tests.
    """
    names = tuple(f"x{i + 1}" for i in range(n))
    components = []
    for _ in range(n):
        numerator = random_polynomial(rng, names, degree=3, terms=3)
        if rng.random() < 0.5:
            denominator: Expr = Num(1.0)
            for name in rng.sample(names, k=rng.randint(1, n)):
                denominator = denominator + Num(round(rng.uniform(0.2, 1.5), 3)) * Pow(Sym(name), 2)
            components.append(Div(numerator, denominator))
        else:
            components.append(numerator)
    return OdeSystem(names, tuple(components))


def gradient_field(rng: random.Random, n: int, degree: int = 4) -> OdeSystem:
    """X = grad(phi) for a random polynomial potential phi."""
    names = tuple(f"x{i + 1}" for i in range(n))
    phi = random_polynomial(rng, names, degree=degree, terms=4)
    return OdeSystem(names, tuple(differentiate(phi, name) for name in names))


def random_expression(rng: random.Random, names: tuple[str, ...], depth: int = 3) -> Expr:
    """Random expression tree mixing arithmetic, powers and safe functions."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(-3.0, 3.0), 3))
        return Sym(rng.choice(names))
    pick = rng.randrange(8)
    a = random_expression(rng, names, depth - 1)
    b = random_expression(rng, names, depth - 1)
    if pick == 0:
        return Add(a, b)
    if pick == 1:
        return Sub(a, b)
    if pick == 2:
        return Mul(a, b)
    if pick == 3:
        return Div(a, b)
    if pick == 4:
        return Neg(a)
    if pick == 5:
        return Pow(a, rng.randint(-2, 3))
    if pick == 6:
        return Call(rng.choice(("sin", "cos")), a)
    return Call("exp", Mul(Num(0.25), a))


def cancer_zero_curve(
    a: float, h: float, k: float, P_samples: Sequence[float]
) -> tuple[list[tuple[float, float]], list[float]]:
    """Zero-energy locus of the tumor model in closed form, the graph

        Q(P) = P (1 + k P^2) [h - (2a + 1)(1 + k P^2)]
               / [a (1 + k P^2)^2 - h (1 - k P^2)]

    sampled at P_samples. Returns the (P, Q) samples and, apart, the P values
    where the denominator vanishes relative to the magnitude of its terms.
    """
    samples, poles = [], []
    for P in map(float, P_samples):
        w = 1.0 + k * P * P
        term_a = a * w * w
        term_h = h * (1.0 - k * P * P)
        den = term_a - term_h
        if abs(den) <= 1e-12 * (1.0 + max(abs(term_a), abs(term_h))):
            poles.append(P)
            continue
        samples.append((P, P * w * (h - (2.0 * a + 1.0) * w) / den))
    return samples, poles


def hiv_level_set(k: float, n: float, delta: float, C: float) -> dict[str, float]:
    """The paper's closed form for {EYM = C} of the HIV-1 flow.

    EYM = (k^2 (T^2 + V^2) + (k T - n delta)^2) / 4 is generated by a conic
    in (T, V) with invariants Delta_C = k^4 (n^2 delta^2 - 8 C), delta = 2 k^4
    and I = 3 k^2. Since delta > 0 and I > 0, the sign of Delta_C decides the
    branch: empty above 0, the line T = n delta / (2k), V = 0 (Tstar free) at
    0, below 0 a right elliptic cylinder around that line with semi-axis a
    along T and b along V, 0 < a < b. The critical level is C* = n^2 delta^2 / 8.
    """
    spread = math.sqrt(max(8.0 * C - (n * delta) ** 2, 0.0))
    return {
        "discriminant": k**4 * ((n * delta) ** 2 - 8.0 * C),
        "minor": 2.0 * k**4,
        "trace": 3.0 * k**2,
        "critical_level": (n * delta) ** 2 / 8.0,
        "center_T": n * delta / (2.0 * k),
        "a": spread / (2.0 * k),
        "b": spread / (k * math.sqrt(2.0)),
    }
