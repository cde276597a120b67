"""Smallness certification.

A graph with adjacency matrix M is c-small when cJ - M is positive
semidefinite (J the all-ones matrix), i.e. x^t M x <= c (sum x)^2 for every
real x. This module decides the property at a given c and finds the
minimal feasible c exactly, from one pass over the graph's structure.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphs import Graph, _mask_members

PROBE_MARGIN = 1e-9


class SmallnessCertificate(NamedTuple):
    """Small(parts) or NotSmallForAnyC(witness).

    A small graph is complete multipartite, and ``parts`` holds one vertex
    bitmask per part (an edgeless graph has one part, the order-0 graph
    none); c_min is the exact Fraction (k-1)/k for k parts (0 with none).
    With no feasible c, parts is None and the witness w has sum(w) = 0 and
    w^t M w = 2 > 0, which rules out every finite c at once.
    """

    parts: tuple[int, ...] | None
    witness: np.ndarray | None = None

    @property
    def small(self) -> bool:
        return self.parts is not None

    @property
    def c_min(self) -> Fraction | None:
        if self.parts is None:
            return None
        k = len(self.parts)
        return Fraction(k - 1, k) if k else Fraction(0)


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def minimal_c(graph: Graph) -> SmallnessCertificate:
    """Minimal c for which the graph is c-small, or a proof none exists.

    cJ - M >= 0 leaves M at most one positive eigenvalue, so a small graph
    is complete multipartite plus isolated vertices (Smith, 1970), and an
    isolated vertex beside an edge already breaks smallness. For k parts,
    x^t M x = (sum x)^2 - sum of squared part sums <= (1 - 1/k)(sum x)^2 by
    Cauchy-Schwarz, with equality at x_v = 1/(k |part(v)|).

    Vertices are grouped by neighbourhood bitmask: the graph is complete
    multipartite (edgeless counts as one part) iff each group is the
    complement of its neighbourhood. Otherwise the witness is x = (1, 1, -2)
    on an edge uw and a vertex v adjacent to neither: sum(x) = 0 and
    x^t M x = 2.
    """
    adj = graph.adjacency_masks
    groups = {}
    for v, nbrs in enumerate(adj):
        groups[nbrs] = groups.get(nbrs, 0) | 1 << v
    full = (1 << graph.n) - 1
    for nbrs, part in groups.items():
        stray = full ^ nbrs ^ part
        if stray:
            # u is not adjacent to v but has another neighbourhood; a vertex
            # w in exactly one of the two closes an edge the third one misses
            v, u = _low_bit(part), _low_bit(stray)
            w = _low_bit(adj[u] ^ nbrs)
            a, b, z = (u, w, v) if adj[u] >> w & 1 else (v, w, u)
            x = np.zeros(graph.n)
            x[[a, b]] = 1.0
            x[z] = -2.0
            return SmallnessCertificate(None, x)
    return SmallnessCertificate(tuple(groups.values()))


def is_c_small(graph: Graph, c: float):
    """Decide whether the graph is c-small; False comes with a violating x.

    The violating x has x^t M x > c (sum x)^2: the (1, 1, -2) witness of a
    graph not small for any c, or x_v = 1/(k |part(v)|), which sums to 1
    with x^t M x = 1 - 1/k. c is compared with (k-1)/k exactly, so a float c
    counts at its exact binary value.
    """
    if c < 0:
        raise ValueError(f"smallness constant must be nonnegative, got {c}")
    cert = minimal_c(graph)
    if not cert.small:
        return False, cert.witness
    if c >= cert.c_min:
        return True, None
    k = len(cert.parts)
    x = np.zeros(graph.n)
    for part in cert.parts:
        x[list(_mask_members(part))] = 1.0 / (k * part.bit_count())
    return False, x


def random_vector_probe(graph: Graph, c: float, trials: int, seed: int = 0) -> np.ndarray | None:
    """Sample vectors with entries uniform in [-1, 1] looking for a violation.

    Returns the first x with x^t M x > c (sum x)^2 + PROBE_MARGIN,
    or None.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    M = graph.adjacency_matrix()
    rng = np.random.default_rng(seed)
    chunk = 2048
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        X = rng.uniform(-1.0, 1.0, size=(k, graph.n))
        forms = np.einsum("ij,ij->i", X @ M, X)
        sums = X.sum(axis=1)
        bad = np.nonzero(forms > c * sums**2 + PROBE_MARGIN)[0]
        if bad.size:
            return X[bad[0]].copy()
        done += k
    return None
