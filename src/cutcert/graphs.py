"""Undirected simple graphs: construction, generators, cuts, and matrix views.

Vertices are dense 0-indexed integers so cuts can be handled as bitmasks.
Graphs are immutable after construction; every operation here is pure.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class GraphInputError(ValueError):
    """Malformed graph input: bad endpoint, self-loop, or unparsable text."""


def _canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v

    def __post_init__(self):
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2
                    and all(isinstance(x, int) for x in edge)
                    and 0 <= edge[0] < edge[1] < self.n):
                raise GraphInputError(
                    f"edge {edge!r} is not a pair of ints u < v in [0,{self.n})"
                )

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbourhood of each vertex as a bitmask: bit w of entry v is edge vw."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(nbrs.bit_count() for nbrs in self.adjacency_masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency A and Laplacian L = diag(d) - A, built once and read-only."""
        A = np.zeros((self.n, self.n))
        for u, v in self.edges:
            A[u, v] = 1.0
            A[v, u] = 1.0
        L = np.diag(self.degrees) - A
        A.flags.writeable = False
        L.flags.writeable = False
        return A, L

    @cached_property
    def form_stack(self) -> np.ndarray:
        """int64 stack [L; A; diag(d); J; I] of shape (5n, n), read-only.

        For an integer vector X, ``(form_stack @ X).reshape(5, n) @ X`` is
        (X'LX, X'AX, X'diag(d)X, (sum X)^2, X'X) in two products.
        """
        A, L = self._dense
        stack = np.vstack([L, A, np.diag(self.degrees), np.ones((self.n, self.n)),
                           np.eye(self.n)]).astype(np.int64)
        stack.flags.writeable = False
        return stack

    def adjacency_matrix(self) -> np.ndarray:
        return self._dense[0]

    def laplacian_matrix(self) -> np.ndarray:
        return self._dense[1]

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph on the given vertices, reindexed to 0..k-1 in sorted order;
        each kept vertex walks its kept neighbours above it."""
        keep = sorted(set(vertices))
        for v in keep:
            if not 0 <= v < self.n:
                raise GraphInputError(f"vertex {v} out of range for n={self.n}")
        if len(keep) == self.n:
            return self
        index = {v: i for i, v in enumerate(keep)}
        kept = sum(1 << v for v in keep)
        sub = []
        for i, v in enumerate(keep):
            above = self.adjacency_masks[v] & kept & -(2 << v)
            while above:
                w = above.bit_length() - 1
                sub.append((i, index[w]))
                above ^= 1 << w
        return Graph(len(keep), frozenset(sub))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise GraphInputError("relabeling must be a permutation of the vertices")
        return Graph(
            self.n, frozenset(_canon_edge(int(perm[u]), int(perm[v])) for u, v in self.edges)
        )


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from possibly duplicated edge pairs.

    Duplicates are silently merged; self-loops and out-of-range endpoints
    are rejected.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    edges = set()
    for u, v in pairs:
        if u == v:
            raise GraphInputError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) has endpoint out of range [0,{n})")
        edges.add(_canon_edge(u, v))
    return Graph(n, frozenset(edges))


@dataclass(frozen=True)
class CutStats:
    """Edge counts of a cut: inside S, inside S^c, and crossing."""

    e_in: int
    e_out: int
    crossing: int

    @property
    def e_min(self) -> int:
        return min(self.e_in, self.e_out)


def cut_stats(graph: Graph, members: Iterable[int]) -> CutStats:
    """Edge counts of the cut S = members, from each edge's two endpoints."""
    inside = [False] * graph.n
    for v in members:
        if not 0 <= v < graph.n:
            raise GraphInputError(f"cut vertex {v} out of range for n={graph.n}")
        inside[v] = True
    counts = [0, 0, 0]  # edges with 0, 1 or 2 endpoints in S
    for u, v in graph.edges:
        counts[inside[u] + inside[v]] += 1
    return CutStats(e_in=counts[2], e_out=counts[0], crossing=counts[1])


# ---------------------------------------------------------------------------
# Generators


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def complete(n: int) -> Graph:
    return from_edge_list(n, itertools.combinations(range(n), 2))


def path(n: int) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def star(k: int) -> Graph:
    """Star with k leaves: vertex 0 is the hub, n = k + 1."""
    if k < 1:
        raise GraphInputError(f"star needs at least one leaf, got {k}")
    return from_edge_list(k + 1, ((0, i) for i in range(1, k + 1)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphInputError(f"complete_bipartite needs positive sides, got {a},{b}")
    return from_edge_list(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise GraphInputError(f"part sizes must be positive, got {list(sizes)}")
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [range(bounds[i], bounds[i + 1]) for i in range(len(sizes))]
    pairs = []
    for i, j in itertools.combinations(range(len(parts)), 2):
        pairs.extend((u, v) for u in parts[i] for v in parts[j])
    return from_edge_list(bounds[-1], pairs)


def random_gnp(n: int, prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if not 0.0 <= prob <= 1.0:
        raise GraphInputError(f"edge probability must be in [0,1], got {prob}")
    rng = random.Random(seed)
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < prob]
    return from_edge_list(n, pairs)


def _pattern_edges(block: Sequence[int], pattern: str) -> list[tuple[int, int]]:
    b = sorted(block)
    if pattern == "complete":
        return list(itertools.combinations(b, 2))
    if pattern == "complete-bipartite-halves":
        h = len(b) // 2
        return [(u, v) for u in b[:h] for v in b[h:]]
    if pattern == "star-at-first":
        return [(b[0], v) for v in b[1:]]
    if pattern == "empty":
        return []
    raise GraphInputError(f"unknown block pattern {pattern!r}")


def design_graph(n: int, blocks: Sequence[Sequence[int]], pattern) -> Graph:
    """Graph whose edge set is the union of per-block pattern edges.

    The blocks must form a valid pairwise 2-partition of 0..n-1 (every pair
    in exactly one block), which makes the per-block edge sets disjoint.
    ``pattern`` is a single pattern name applied to every block, or a
    sequence with one name per block.
    """
    from .partitions import validate

    report = validate(n, blocks)
    if not report.valid:
        raise GraphInputError(f"invalid block design: {report.summary()}")
    if isinstance(pattern, str):
        patterns = [pattern] * len(blocks)
    else:
        patterns = list(pattern)
        if len(patterns) != len(blocks):
            raise GraphInputError(
                f"got {len(patterns)} patterns for {len(blocks)} blocks"
            )
    pairs = []
    for block, pat in zip(blocks, patterns):
        pairs.extend(_pattern_edges(block, pat))
    return from_edge_list(n, pairs)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v"; '#' comments.


def parse_edge_list(text: str) -> Graph:
    header = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected integers, got {raw!r}")
        if header is None:
            if len(values) != 2:
                raise GraphInputError(f"line {lineno}: header must be 'n m'")
            header = values
            continue
        if len(values) != 2:
            raise GraphInputError(f"line {lineno}: edge line must be 'u v'")
        pairs.append((values[0], values[1]))
    if header is None:
        raise GraphInputError("empty graph file: missing 'n m' header")
    n, m = header
    if len(pairs) != m:
        raise GraphInputError(f"header promises {m} edges, file lists {len(pairs)}")
    return from_edge_list(n, pairs)


def load_edge_list(file) -> Graph:
    with open(file) as fh:
        return parse_edge_list(fh.read())
