"""Undirected simple graphs: construction, generators, cuts, and matrix views.

Vertices are dense 0-indexed integers so cuts can be handled as bitmasks.
Graphs are immutable after construction; every operation here is pure.
"""
from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class GraphInputError(ValueError):
    """Malformed graph input: bad endpoint, self-loop, or unparsable text."""


def _canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _mask_members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending, one step per set bit."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; construction checks every edge."""

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v

    def __post_init__(self):
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2 and isinstance(edge[0], int)
                    and isinstance(edge[1], int) and edge[0] <= edge[1]):
                raise GraphInputError(f"edge {edge!r} is not a pair of ints u < v in [0,{self.n})")
            u, v = edge
            if u == v:
                raise GraphInputError(f"self-loop ({u},{v}) not allowed")
            if u < 0 or v >= self.n:
                raise GraphInputError(f"edge ({u},{v}) has endpoint out of range [0,{self.n})")

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbourhood of each vertex as a bitmask: bit w of entry v is edge vw."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def _endpoint_bits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per vertex v, two bitsets over edge indices in sorted edge order:
        the edges whose lower endpoint is v, and those whose upper one is
        (at most n·m bits in all)."""
        lower, upper = [0] * self.n, [0] * self.n
        for i, (u, v) in enumerate(sorted(self.edges)):
            lower[u] |= 1 << i
            upper[v] |= 1 << i
        return tuple(lower), tuple(upper)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(nbrs.bit_count() for nbrs in self.adjacency_masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def form_stack(self) -> np.ndarray:
        """float64 stack [L; A; diag(d); J; I] of shape (5n, n), read-only:
        the graph's one dense build, allocated once and filled in place.

        For a vector X, ``(form_stack @ X).reshape(5, n) @ X`` is
        (X'LX, X'AX, X'diag(d)X, (sum X)^2, X'X) in two products.
        """
        stack = np.zeros((5 * self.n, self.n))
        L, A, D, J, I = stack.reshape(5, self.n, self.n)
        for u, v in self.edges:
            A[u, v] = A[v, u] = 1.0
        np.fill_diagonal(D, self.degrees)
        np.subtract(D, A, out=L)
        J.fill(1.0)
        np.fill_diagonal(I, 1.0)
        stack.flags.writeable = False
        return stack

    def adjacency_matrix(self) -> np.ndarray:
        return self.form_stack[self.n:2 * self.n]

    def laplacian_matrix(self) -> np.ndarray:
        return self.form_stack[:self.n]

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
        return Graph(len(keep), frozenset(
            (i, index[w]) for i, v in enumerate(keep)
            for w in _mask_members(self.adjacency_masks[v] & kept & -(2 << v))))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise GraphInputError("relabeling must be a permutation of the vertices")
        return Graph(
            self.n, frozenset(_canon_edge(int(perm[u]), int(perm[v])) for u, v in self.edges)
        )


def _check_count(n: int, error=GraphInputError) -> None:
    """A vertex count must index a sequence: n in [0, sys.maxsize]."""
    if not 0 <= n <= sys.maxsize:
        raise error(f"vertex count must be in [0, {sys.maxsize}], got {n}")


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from possibly duplicated edge pairs in either order.

    Duplicates are silently merged and Graph checks the edges; n is checked
    first, so a generator's pairs stay unbuilt.
    """
    _check_count(n)
    return Graph(n, frozenset(_canon_edge(u, v) for u, v in pairs))


class CutStats(NamedTuple):
    """Edge counts of a cut: inside S, inside S^c, and crossing."""

    e_in: int
    e_out: int
    crossing: int


def cut_stats(graph: Graph, members: Iterable[int]) -> CutStats:
    """Edge counts of the cut S = members (read once, repeats allowed), each
    edge classified by its own two endpoints: P and Q, the ORs of the members'
    ``_endpoint_bits``, hold the edges with lower and with upper endpoint in S,
    so e_in = |P & Q|, crossing = |P ^ Q| and e_out counts the edges in neither.
    """
    lower, upper = graph._endpoint_bits
    P = Q = 0
    for v in members:
        if not 0 <= v < graph.n:
            raise GraphInputError(f"cut vertex {v} out of range for n={graph.n}")
        P |= lower[v]
        Q |= upper[v]
    return CutStats((P & Q).bit_count(), graph.m - (P | Q).bit_count(), (P ^ Q).bit_count())


# ---------------------------------------------------------------------------
# Generators


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def _all_pairs(n: int):
    """Every pair u < v below n, in order; combinations only copies range(n)
    when the first pair is read, and chain adds no work per pair."""
    return itertools.chain.from_iterable(map(itertools.combinations, [range(n)], [2]))


def complete(n: int) -> Graph:
    return from_edge_list(n, _all_pairs(n))


def path(n: int) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def star(k: int) -> Graph:
    """Star with k leaves: vertex 0 is the hub, n = k + 1."""
    if k < 1:
        raise GraphInputError(f"star needs at least one leaf, got {k}")
    return complete_multipartite((1, k))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphInputError(f"complete_bipartite needs positive sides, got {a},{b}")
    return complete_multipartite((a, b))


def _cross_pairs(parts: Sequence[Sequence[int]]):
    """Every pair (u, v) from two different parts, u's part first; each
    product copies its two parts only when its first pair is read."""
    pairs_of = itertools.starmap(itertools.product, itertools.combinations(parts, 2))
    return itertools.chain.from_iterable(pairs_of)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise GraphInputError(f"part sizes must be positive, got {list(sizes)}")
    bounds = list(itertools.accumulate(sizes, initial=0))
    return from_edge_list(bounds[-1], _cross_pairs(
        [range(lo, hi) for lo, hi in itertools.pairwise(bounds)]))


def random_gnp(n: int, prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if not 0.0 <= prob <= 1.0:
        raise GraphInputError(f"edge probability must be in [0,1], got {prob}")
    rng = random.Random(seed)
    return from_edge_list(n, (e for e in _all_pairs(n) if rng.random() < prob))


def _pattern_edges(block: Sequence[int], pattern: str) -> Iterable[tuple[int, int]]:
    b = sorted(block)
    if pattern == "complete":
        return itertools.combinations(b, 2)
    if pattern == "complete-bipartite-halves":
        return _cross_pairs((b[:len(b) // 2], b[len(b) // 2:]))
    if pattern == "star-at-first":
        return _cross_pairs((b[:1], b[1:]))
    if pattern == "empty":
        return ()
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
    pairs = itertools.chain.from_iterable(map(_pattern_edges, blocks, patterns))
    return from_edge_list(n, pairs)


# ---------------------------------------------------------------------------
# Text formats, both read by _int_lines: an edge list is "n m", then m "u v" lines.


def _int_lines(text: str, error=GraphInputError) -> list[tuple[int, list[int]]]:
    """(line number, integers) of each line that is not blank or a '#' comment."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            try:
                rows.append((lineno, list(map(int, fields))))
            except ValueError:
                raise error(f"line {lineno}: expected integers, got {raw!r}")
    return rows


def parse_edge_list(text: str) -> Graph:
    rows = _int_lines(text)
    if not rows:
        raise GraphInputError("empty graph file: missing 'n m' header")
    (lineno, header), edges = rows[0], rows[1:]
    if len(header) != 2:
        raise GraphInputError(f"line {lineno}: header must be 'n m'")
    for lineno, pair in edges:
        if len(pair) != 2:
            raise GraphInputError(f"line {lineno}: edge line must be 'u v'")
    n, m = header
    if len(edges) != m:
        raise GraphInputError(f"header promises {m} edges, file lists {len(edges)}")
    return from_edge_list(n, [pair for _, pair in edges])


def load_edge_list(file) -> Graph:
    with open(file) as fh:
        return parse_edge_list(fh.read())
