"""Independent answers for the benchmark's checks.

Nothing here imports cutcert. Smallness comes from the closed form for
complete multipartite graphs; cut statistics and bound verdicts come from
exact integer arithmetic on adjacency bitmasks.
"""
from __future__ import annotations

import numpy as np

# Masks are canonical cuts: vertex 0 on the S side, S a proper subset.
_CHUNK = 1 << 16


class SimpleGraph:
    """Graph on vertices 0..n-1 as adjacency bitmasks."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
        self.m = len(self.edges)
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj
        self.degrees = [bin(a).count("1") for a in adj]

    def matrix(self) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        for u, v in self.edges:
            M[u, v] = M[v, u] = 1.0
        return M

    def induced(self, block) -> "SimpleGraph":
        index = {v: i for i, v in enumerate(sorted(block))}
        return SimpleGraph(
            len(index),
            [(index[u], index[v]) for u, v in self.edges if u in index and v in index],
        )


def part_count(g: SimpleGraph) -> int | None:
    """k when g is complete k-partite (so its minimal c is (k-1)/k), else None.

    Non-adjacency is an equivalence relation exactly for complete
    multipartite graphs. When it is not, some edge uw has a vertex v adjacent
    to neither, and x = (1, 1, -2) on (u, w, v) has sum 0 and x^t M x = 2 > 0,
    so no finite c works. The edgeless graph is one part: c = 0.
    """
    full = (1 << g.n) - 1
    classes = set()
    for v in range(g.n):
        cls = full & ~g.adj[v]
        classes.add(cls)
    # equivalence: the classes partition the vertex set
    if sum(bin(c).count("1") for c in classes) != g.n:
        return None
    union = 0
    for c in classes:
        union |= c
    return len(classes) if union == full else None


def c_of_parts(k: int) -> float:
    return (k - 1) / k


def _popcount(x: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    x = x.astype(np.uint64)
    total = np.zeros(x.shape, dtype=np.int64)
    for shift in range(0, 64, 8):
        total += _BYTE_COUNTS[((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.intp)]
    return total


_BYTE_COUNTS = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def cut_stats(g: SimpleGraph, masks: np.ndarray):
    """(e_in, e_out, crossing) for each bitmask cut, by popcount."""
    masks = np.asarray(masks, dtype=np.int64)
    two_e_in = np.zeros(masks.shape, dtype=np.int64)
    deg_in = np.zeros(masks.shape, dtype=np.int64)
    for v in range(g.n):
        in_s = (masks >> v) & 1
        deg_in += in_s * g.degrees[v]
        two_e_in += in_s * _popcount(masks & g.adj[v])
    e_in = two_e_in // 2
    crossing = deg_in - two_e_in
    return e_in, g.m - e_in - crossing, crossing


def all_masks(n: int):
    """Every canonical cut of an n-vertex graph, in chunks, in enumeration order."""
    total = 2 ** (n - 1) - 1
    for start in range(0, total, _CHUNK):
        t = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield 1 | (t << 1)


def violated(k: int, kind: str, variant: str, n: int, e_min, crossing) -> np.ndarray:
    """Exact verdict of the cut bound at c = (k-1)/k, in integers.

    With c = (k-1)/k: lambda(c) = 2/(2k-1); the refined case threshold
    c^2 n / (4(1-c)) is (k-1)^2 n / (4k); the additive terms are
    (k-1) n / (4k) as stated and (k-1) n / (2(2k-1)) tight; the low branch
    coefficient 2(1-c)/c is 2/(k-1).
    """
    e_min = np.asarray(e_min, dtype=np.int64)
    crossing = np.asarray(crossing, dtype=np.int64)
    if kind == "base":
        return (2 * k - 1) * crossing < 2 * e_min
    if k < 2:
        raise ValueError("refined bound needs c > 0")
    above = 4 * k * e_min > (k - 1) ** 2 * n
    if variant == "tight":
        above_bad = 2 * (2 * k - 1) * crossing < 4 * e_min + (k - 1) * n
    else:
        above_bad = 4 * k * (2 * k - 1) * crossing < 8 * k * e_min + (k - 1) * (2 * k - 1) * n
    below_bad = (k - 1) * crossing < 2 * e_min
    return np.where(above, above_bad, below_bad)


def bound_value(k: int, kind: str, variant: str, n: int, e_min) -> np.ndarray:
    """The bound at c = (k-1)/k as floats, for comparing printed values."""
    e_min = np.asarray(e_min, dtype=float)
    lam = 2.0 / (2 * k - 1)
    if kind == "base":
        return lam * e_min
    additive = (k - 1) * n / (2.0 * (2 * k - 1)) if variant == "tight" else (k - 1) * n / (4.0 * k)
    above = 4 * k * e_min > (k - 1) ** 2 * n
    return np.where(above, lam * e_min + additive, 2.0 / (k - 1) * e_min)


def partition_parts(g: SimpleGraph, blocks) -> int | None:
    """Largest k over the blocks' induced subgraphs; None if one is not small."""
    ks = [part_count(g.induced(b)) for b in blocks]
    return None if None in ks else max(ks)


def degree_dominance_ok(g: SimpleGraph, blocks) -> bool:
    replication = [0] * g.n
    for b in blocks:
        for v in b:
            replication[v] += 1
    return all(r <= d for r, d in zip(replication, g.degrees))


def exhaustive_summary(g: SimpleGraph, k: int, kind: str, variant: str):
    """(violating masks, worst crossing/bound ratio) over all cuts."""
    bad = []
    worst = np.inf
    for masks in all_masks(g.n):
        e_in, e_out, crossing = cut_stats(g, masks)
        e_min = np.minimum(e_in, e_out)
        bad.extend(int(x) for x in masks[violated(k, kind, variant, g.n, e_min, crossing)])
        bound = bound_value(k, kind, variant, g.n, e_min)
        positive = bound > 1e-9
        if positive.any():
            worst = min(worst, float((crossing[positive] / bound[positive]).min()))
    return bad, worst


def complete_graph_violating_sizes(n: int, k: int, kind: str, variant: str) -> list[int]:
    """Side sizes s whose cuts of K_n violate the bound (all such cuts agree)."""
    s = np.arange(1, n)
    e_in = s * (s - 1) // 2
    e_out = (n - s) * (n - s - 1) // 2
    crossing = s * (n - s)
    return [int(x) for x in s[violated(k, kind, variant, n, np.minimum(e_in, e_out), crossing)]]


def sparsity_minimum(g: SimpleGraph):
    """(crossing, e_min) of the smallest crossing/e_min over cuts with e_min > 0."""
    best = None
    for masks in all_masks(g.n):
        e_in, e_out, crossing = cut_stats(g, masks)
        e_min = np.minimum(e_in, e_out)
        ok = e_min > 0
        if not ok.any():
            continue
        ratios = crossing[ok] / e_min[ok]
        i = int(np.argmin(ratios))
        cand = (int(crossing[ok][i]), int(e_min[ok][i]))
        if best is None or cand[0] * best[1] < best[0] * cand[1]:
            best = cand
    return best
