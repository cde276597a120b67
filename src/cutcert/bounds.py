"""Cut lower-bound formulas and the identity chain behind them.

For a graph partitioned into c-small blocks, every cut (S, S^c) obeys
crossing >= lambda(c) * min(e(S), e(S^c)) with lambda(c) = 2(1-c)/(1+c).
This module evaluates that coefficient, the p-dependent intermediate bound
it is distilled from, the piecewise refinement that keeps the dropped
c*p*q*n term, and the residuals of every algebraic identity used along the
way. It alone knows the bound: cut verification reads its kind and variant
names, their check and the per-e table from here.

The formulas carry no float literals, so a ``fractions.Fraction`` c (with
integer e and n) gives exact values and exact case splits, while a float c
gives floats. A float such as 2/3 lies an ulp below the rational 2/3, and the
answers for it follow that float, not the rational it approximates.
"""
from __future__ import annotations

import math

import numpy as np

from .graphs import Graph, cut_stats

INTERIOR = "interior"
ENDPOINTS = "endpoints"
FLAT = "flat"

KIND_BASE = "base"
KIND_REFINED = "refined"

AS_STATED = "as-stated"
TIGHT = "tight"


class BoundDomainError(ValueError):
    """Bound evaluated outside its domain (c or p out of range) or by an unknown name."""


def check_bound_names(kind: str, variant: str) -> None:
    """Raise unless kind is a bound kind and variant a refined-bound variant."""
    if kind not in (KIND_BASE, KIND_REFINED):
        raise BoundDomainError(f"unknown bound kind {kind!r}")
    if variant not in (AS_STATED, TIGHT):
        raise BoundDomainError(f"unknown variant {variant!r}")


def lambda_value(c: float) -> float:
    """Cut-bound coefficient 2(1-c)/(1+c); decreasing from 2 to 0 on [0,1)."""
    if not 0 <= c < 1:
        raise BoundDomainError(f"coefficient defined for 0 <= c < 1, got {c}")
    return 2 * (1 - c) / (1 + c)


def intermediate_bound(c: float, e: float, n: float, p: float) -> float:
    """The p-dependent lower bound on the crossing count, before minimizing.

    [2(1-c)(1-2p+2p^2) e + c(p-p^2) n] / [c + 2(1-c)(p-p^2)].
    """
    if not 0 <= c < 1:
        raise BoundDomainError(f"need 0 <= c < 1, got {c}")
    if not 0 < p < 1:
        raise BoundDomainError(f"need 0 < p < 1, got {p}")
    pq = p - p * p  # > 0 in floats too: fl(p * p) < p on (0, 1), so the denominator is > 0
    return (2 * (1 - c) * (1 - 2 * pq) * e + c * pq * n) / (c + 2 * (1 - c) * pq)


def case_threshold(c: float, n: float) -> float:
    """Edge-count threshold c^2 n / (4(1-c)) separating the two refined cases."""
    if not 0 < c < 1:
        raise BoundDomainError(f"threshold defined for 0 < c < 1, got {c}")
    if not n >= 0:
        raise BoundDomainError(f"need n >= 0, got {n}")
    return c * c * n / (4 * (1 - c))


def refined_bound(c: float, e: float, n: float, variant: str = AS_STATED) -> float:
    """Piecewise refinement keeping the c*p*q*n term.

    Above the case threshold: lambda(c) e plus an additive term in n --
    (c/4) n as stated, or the exact balanced-cut minimum c n / (2(1+c)) for
    the tight variant. At or below the threshold: 2(1-c)/c * e.
    """
    if not 0 < c < 1:
        raise BoundDomainError(f"refined bound defined for 0 < c < 1, got {c}")
    if not (e >= 0 and n >= 1):
        raise BoundDomainError(f"need e >= 0 and n >= 1, got e={e}, n={n}")
    check_bound_names(KIND_REFINED, variant)
    return _refined_at(c, n, variant)(e)


def _refined_at(c: float, n: float, variant: str):
    """The refined bound at c and n as a function of e, for a whole table of e."""
    threshold, lam, slope = case_threshold(c, n), lambda_value(c), 2 * (1 - c) / c
    additive = c * n / (2 * (1 + c)) if variant == TIGHT else c * n / 4
    return lambda e: lam * e + additive if e > threshold else slope * e


def bound_table(kind: str, variant: str, c, graph: Graph):
    """The bound at every possible e_min = 0..m//2, from the exact c.

    Returns (need, value): a cut passes iff crossing >= need[e_min], the
    ceiling of the exact bound (crossing is an integer), and value[e_min] is
    the bound correctly rounded to a float for reports.
    """
    check_bound_names(kind, variant)
    es, lam = range(graph.m // 2 + 1), lambda_value(c)
    exact = ([lam * e for e in es] if kind == KIND_BASE
             else list(map(_refined_at(c, graph.n, variant), es)))
    return np.array([math.ceil(b) for b in exact]), np.array([float(b) for b in exact])


def f_minimizer_location(c: float, e: float, n: float) -> str:
    """Where the intermediate bound attains its minimum over p.

    The derivative sign is that of (2p-1)(4(1-c)e - c^2 n), so the minimum
    sits at p = 1/2 when e exceeds the case threshold c^2 n / (4(1-c)), at
    the endpoints below it, and the bound is flat in p at it. Comparing e with
    ``case_threshold``, as the refined bound does, makes minimizer and case agree.
    """
    threshold = case_threshold(c, n)
    if not e >= 0:
        raise BoundDomainError(f"need e >= 0, got {e}")
    return INTERIOR if e > threshold else ENDPOINTS if e < threshold else FLAT


# ---------------------------------------------------------------------------
# Identity residuals for the signed cut vector x (q on S, -p off S)

ID_CROSSING_LAPLACIAN = "crossing_equals_laplacian_form"
ID_LAPLACIAN_SPLIT = "laplacian_form_degree_minus_adjacency"
ID_PAIR_PRODUCTS = "pair_products_equal_minus_half_pqn"
ID_HANDSHAKE_S = "degree_sum_S_handshake"
ID_HANDSHAKE_SC = "degree_sum_complement_handshake"
ID_DEGREE_WEIGHTED = "degree_weighted_square_split"

IDENTITY_NAMES = (
    ID_CROSSING_LAPLACIAN,
    ID_LAPLACIAN_SPLIT,
    ID_PAIR_PRODUCTS,
    ID_HANDSHAKE_S,
    ID_HANDSHAKE_SC,
    ID_DEGREE_WEIGHTED,
)


def identity_suite(graph: Graph, members) -> dict[str, float]:
    """Absolute residuals of the cut-vector identities for a proper cut.

    The identities are evaluated on the integer vector X = n*x, and the
    residuals are reported in the units of x (divided by n^2, or 2n^2 for
    the pair products), so every residual is exactly 0 for any graph and
    any nonempty proper S: a nonzero one is a bug, not rounding. A trivial
    cut degenerates the vector and is rejected, and a vertex outside [0, n)
    raises ``GraphInputError``. The edge counts come from ``cut_stats``,
    independently of the quadratic forms, which read the graph's cached
    float64 ``form_stack``; nothing per cut rebuilds a matrix. X is t = n - s
    on S and -s off S (s = |S|), built in the pass that sums deg(S), deg(S^c).

    The float64 products are exact: stack rows have absolute sum <= 2n and
    |X_v| < n, so each partial sum is an integer <= 2n^4 < 2^53 while n < 8192.
    """
    S = frozenset(members)
    n = graph.n
    if not S or len(S) >= n:
        raise BoundDomainError("identities need a nonempty proper subset S")
    stats = cut_stats(graph, S)  # validates S before X is built from it
    s, t = len(S), n - len(S)
    X, deg = [], [0, 0]  # deg(S^c) and deg(S), each summed over its own side
    for v, d in enumerate(graph.degrees):
        inside = v in S
        X.append(t if inside else -s)
        deg[inside] += d
    deg_Sc, deg_S = deg
    X = np.array(X, dtype=np.float64)
    XLX, XAX, XDX, sum_sq, XX = ((graph.form_stack @ X).reshape(5, n) @ X).tolist()
    n2 = n * n

    return {
        ID_CROSSING_LAPLACIAN: abs(n2 * stats.crossing - XLX) / n2,
        ID_LAPLACIAN_SPLIT: abs(XLX - (XDX - XAX)) / n2,
        ID_PAIR_PRODUCTS: abs(sum_sq - XX + s * t * n) / (2 * n2),
        ID_HANDSHAKE_S: abs(deg_S - (2 * stats.e_in + stats.crossing)),
        ID_HANDSHAKE_SC: abs(deg_Sc - (2 * stats.e_out + stats.crossing)),
        ID_DEGREE_WEIGHTED: abs(
            XDX
            - (
                2 * t * t * stats.e_in
                + 2 * s * s * stats.e_out
                + (s * s + t * t) * stats.crossing
            )
        ) / n2,
    }
