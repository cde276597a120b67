"""Cut enumeration and bound verification.

Cuts are canonicalized so that vertex 0 lies on the S side; each unordered
split {S, S^c} is then seen exactly once. Exhaustive enumeration covers all
2^(n-1) - 1 nontrivial cuts (capped at n = 26); beyond that, sampling with a
fixed seed gives reproducible spot checks. Draw i of seed s (0 <= s < 2^64)
is output i of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), the mixed word
s + i·0x9E3779B97F4A7C15 mod 2^64, computed a chunk at a time in numpy uint64
arithmetic from s and the draw count alone, never loading numpy.random. Its
top n - 1 bits r give the mask 2r + 1, the all-ones r is dropped, and so the
masks are uniform over the canonical cuts.

Cuts are int64 bitmasks, handled a chunk at a time. With m edges, e(S^c) =
m - e(S) - e(S, S^c), so everything the bound asks of a cut follows from
its key e(S)·(m + 1) + e(S, S^c), one integer below (m + 1)^2; the kernels
produce keys and nothing else. Both split each cut S into a high half H
(vertices b..n-1) and a low half L (vertices 0..b-1, b = min(n, 16)), and
both read the L terms of the key from one table indexed by L itself, built
once per call. The exhaustive path then adds, meet-in-the-middle style,
one chunk per H with the H terms and the edges between H and L, O(1)
amortized work per cut. Sampled cuts gather their L terms from the table
and add each high vertex's with one popcount of the masks ANDed with its
lower neighbours: O(n - b) vector operations per chunk, none at n <= 16,
in int32 below 32 vertices. Verification keeps an int8 verdict per key
(unseen, pass, fail): a chunk gathers its verdicts, sorts the keys no
earlier chunk saw and decodes each of them once, and these give the worst
ratio. Failing cuts keep their masks and keys, decoded once after the last
chunk. A CSV row after its mask is fixed by the key, so each distinct key's
text is formatted once per call and looked up by key; each chunk's rows are
written as soon as it is checked, so memory does not grow with the number
of cuts. The bound and its table come from bounds. enumerate_cuts decodes
the exhaustive kernel's masks one cut at a time, so verification, the
sparsity profile and the identity audit read one traversal of the cuts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds, linalg
from .graphs import Graph, _mask_members
from .partitions import (
    PairPartition,
    partition_certificate,
    replication_degree_check,
)

EXHAUSTIVE_CAP = 26

_CHUNK = 1 << 16
_LOW_BITS = 16


class CutCapError(ValueError):
    """Exhaustive enumeration requested past the cap; use sampling instead."""


def _cut_count(n: int) -> int:
    """Number of nontrivial canonical cuts, 2^(n-1) - 1 (none below n = 2)."""
    if n > EXHAUSTIVE_CAP:
        raise CutCapError(
            f"exhaustive enumeration capped at n={EXHAUSTIVE_CAP}; "
            f"got n={n}, use sampling"
        )
    return (1 << (n - 1)) - 1 if n > 1 else 0


def _sampled_masks(n: int, trials: int, seed: int):
    """Yield trials seeded masks in chunks of at most _CHUNK, drawn from the
    SplitMix64 counter stream of the module docstring."""
    full = np.uint64((1 << n) - 1)
    drawn = done = 0
    while done < trials:
        k = min(_CHUNK, trials - done)
        z = np.arange(drawn + 1, drawn + k + 1, dtype=np.uint64)
        drawn += k
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(seed)
        z ^= z >> 30
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        z >>= 64 - n
        z |= 1  # 2r + 1, r the top n - 1 bits
        masks = z[z != full].view(np.int64)
        if len(masks):
            done += len(masks)
            yield masks


def _decode(graph: Graph, keys):
    """(e_in, e_out, crossing) of cut keys e_in * (m + 1) + crossing."""
    e_in, crossing = np.divmod(keys, graph.m + 1)
    return e_in, graph.m - e_in - crossing, crossing


def _low_keys(graph: Graph, b: int) -> np.ndarray:
    """int32 table of (m - 1)e(L) + deg(L) at index L, for every subset L of
    the low b vertices: a cut's key, as crossing = deg(S) - 2e(S).

    Doubling over v = 0..b-1, entries 2^v..2^(v+1)-1 add v to the entries
    below them. With e(L) <= 120 and m <= 1891 every entry fits int32.
    """
    size = 1 << b
    subsets = np.arange(size, dtype=np.int32)
    key = np.zeros(size, dtype=np.int32)
    for v in range(b):
        k = 1 << v
        # narrowed first: K_62's neighbour bits above 31 overflow int32
        np.bitwise_count(subsets[:k] & (graph.adjacency_masks[v] & k - 1), out=key[k:2 * k])
        key[k:2 * k] *= graph.m - 1
        key[k:2 * k] += key[:k]
        key[k:2 * k] += graph.degrees[v]
    return key


def _mask_keys(graph: Graph, masks: np.ndarray, key_low: np.ndarray) -> np.ndarray:
    """The key of each bitmask cut: int32 below 32 vertices, else int64.

    Each mask gathers its low half's key from _low_keys's table key_low at
    index mask & (2^b - 1). Each high vertex v >= b in S then adds
    (m - 1)·popcount(S & N⁻(v)) + deg_v, N⁻(v) its neighbours below v: its
    edges down into S and its degree. Below 32 vertices the masks and
    keys fit int32, which halves the bytes each vector operation moves.
    """
    dtype = np.int32 if graph.n < 32 else np.int64
    b = len(key_low).bit_length() - 1
    masks = masks.astype(dtype, copy=False)
    keys = key_low.take(masks & (1 << b) - 1).astype(dtype, copy=False)
    inside = np.empty_like(keys)
    term = np.empty_like(keys)
    for v in range(b, graph.n):
        np.bitwise_and(np.right_shift(masks, v, out=inside), 1, out=inside)
        np.bitwise_count(np.bitwise_and(masks, graph.adjacency_masks[v] & (1 << v) - 1,
                                        out=term), out=term)
        term *= graph.m - 1
        term += graph.degrees[v]
        keys += np.multiply(inside, term, out=term)
    return keys


def _sampled_keys(graph: Graph, trials: int, seed: int):
    """Yield (masks, keys) for trials seeded cuts, the table built first."""
    key_low = _low_keys(graph, min(graph.n, _LOW_BITS))
    for masks in _sampled_masks(graph.n, trials, seed):
        yield masks, _mask_keys(graph, masks, key_low)


def _exhaustive_keys(graph: Graph):
    """Yield (masks, int32 keys) for every canonical cut, masks ascending.

    Meet in the middle (Horowitz and Sahni, 1974): S = H | L with L over the
    low b bits and H over the rest, and e(S) = e(L) + e(H) + e(H, L). The L
    terms are _low_keys's odd entries (vertex 0 is always in S), so entry i
    is L = 2i + 1. Each H is one chunk, masks H << b | L, whose table adds
    the H terms (m - 1)(e(H) + e(H, L)) + deg(H); e(H, L) sums
    w_v = |N(v) & H| over v in L, doubled the same way. The all-ones mask is
    dropped.
    """
    if not _cut_count(graph.n):
        return
    b = min(graph.n, _LOW_BITS)
    adj, deg = graph.adjacency_masks, graph.degrees
    w = graph.m - 1
    # the odd L, copied once so that no chunk reads a strided view; int64
    # masks: int32 ones raised the per-cut-audit benchmark's peak RSS by 7%
    key_low = _low_keys(graph, b)[1::2].copy()
    low = np.arange(1, 1 << b, 2, dtype=np.int64)
    across = np.empty_like(key_low)
    last = (1 << (graph.n - b)) - 1
    for h in range(last + 1):
        high = h << b
        members = _mask_members(high)
        # seeded with the terms of L = {0}, so entry L ends up as the H terms
        across[0] = w * (sum((adj[v] & high).bit_count() for v in members) // 2
                         + (adj[0] & high).bit_count()) + sum(deg[v] for v in members)
        for v in range(1, b):
            k = 1 << (v - 1)
            np.add(across[:k], w * (adj[v] & high).bit_count(), out=across[k:2 * k])
        masks, keys = low | high, key_low + across
        yield (masks, keys) if h < last else (masks[:-1], keys[:-1])


def enumerate_cuts(graph: Graph):
    """Yield each nontrivial unordered cut once, as the frozenset of the side
    containing 0, in ascending bitmask order: the masks of _exhaustive_keys."""
    for masks, _ in _exhaustive_keys(graph):
        yield from map(frozenset, map(_mask_members, masks.tolist()))


def fiedler_value(graph: Graph) -> float:
    """Second smallest Laplacian eigenvalue (algebraic connectivity)."""
    if graph.n < 2:
        raise ValueError(f"Fiedler value needs n >= 2, got n={graph.n}")
    return float(linalg.eigen_all(graph.laplacian_matrix()).values[1])


class SparsityProfile(NamedTuple):
    """Smallest crossing / e_min over nontrivial cuts with e_min > 0.

    ratio None means no cut has edges on both sides ("unbounded": any
    coefficient works for this graph); the argmin cut is then None too.
    """

    ratio: float | None
    bitmask: int | None

    @property
    def members(self) -> tuple | None:
        return None if self.bitmask is None else _mask_members(self.bitmask)


def sparsity_profile(graph: Graph) -> SparsityProfile:
    # the ratio of every key, the same division per key as per cut; the cap
    # comes first, as n <= 26 keeps the table within 326^2 entries
    _cut_count(graph.n)
    e_in, e_out, crossing = _decode(graph, np.arange((graph.m + 1) ** 2))
    e_min = np.minimum(e_in, e_out)
    ratio_of = np.divide(crossing, e_min, out=np.full(len(e_min), math.inf), where=e_min > 0)
    best, best_cut = math.inf, None
    for masks, keys in _exhaustive_keys(graph):
        ratios = ratio_of.take(keys)
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best, best_cut = float(ratios[i]), int(masks[i])
    return SparsityProfile(None if best_cut is None else best, best_cut)


# ---------------------------------------------------------------------------
# Bound verification


class Violation(NamedTuple):
    bitmask: int
    e_in: int
    e_out: int
    crossing: int
    bound: float

    @property
    def members(self) -> tuple:
        return _mask_members(self.bitmask)


@dataclass(frozen=True, eq=False)  # failing holds arrays: compare with np.array_equal
class VerificationReport:
    reason: str | None
    c: float | None
    degree_dominance_failures: tuple
    cuts_examined: int
    worst_ratio: float
    failing: tuple  # Violation's fields as five arrays, in mask order

    @property
    def violations(self) -> tuple:
        return tuple(map(Violation, *(a.tolist() for a in self.failing)))

    @property
    def applicable(self) -> bool:
        return self.reason is None

    @property
    def degree_dominance_ok(self) -> bool:
        return not self.degree_dominance_failures


def _check_cut_request(n: int, trials: int | None, seed: int) -> None:
    """Raise unless verify_bound can examine the cuts asked for on n vertices:
    every cut up to the cap (trials None), or trials >= 1 seeded samples."""
    if trials is None:
        _cut_count(n)
    elif trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    elif seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    elif seed >= 1 << 64:
        raise ValueError(f"seed must be in [0, {(1 << 64) - 1}], got {seed}")
    elif n > 62:
        raise CutCapError("sampled bitmask cuts support n <= 62")
    elif n < 2:
        raise ValueError("sampling needs n >= 2")


def verify_bound(
    graph: Graph,
    partition: PairPartition,
    kind: str = bounds.KIND_BASE,
    variant: str = bounds.AS_STATED,
    trials: int | None = None,
    seed: int = 0,
    csv=None,
) -> VerificationReport:
    """Check the cut bound against every nontrivial cut of the graph or,
    given trials, against that many uniformly sampled cuts, deterministic
    per seed. An inapplicable bound examines none. A text stream csv gets
    the header once the bound is settled, then each chunk's rows as soon as
    it is evaluated."""
    _check_cut_request(graph.n, trials, seed)  # whatever the certificate says
    bounds.check_bound_names(kind, variant)
    key_chunks = (_exhaustive_keys(graph) if trials is None
                  else _sampled_keys(graph, trials, seed))
    dominance_failures = replication_degree_check(graph, partition)
    cert = partition_certificate(graph, partition)
    reason = None
    if not cert.small:
        reason = f"block {cert.offending_block} is not c-small for any c"
    elif kind == bounds.KIND_REFINED and cert.c == 0:
        reason = "refined bound needs c > 0 (graph has no edges)"

    worst = math.inf
    examined = 0
    fail_masks, fail_keys = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    if reason is None:
        need, value = bounds.bound_table(kind, variant, cert.c, graph)
    else:
        key_chunks, value = (), np.zeros(0)
    # the verdict of each key once it is seen: 0 unseen, 1 pass, 2 fail
    memo = np.zeros((graph.m + 1) ** 2, dtype=np.int8)
    # the CSV row after the mask is fixed by the key, so each key seen is
    # formatted once per call
    tail_of = {}
    if csv is not None:
        csv.write("cut_bitmask,e_in,e_out,crossing,bound,pass\n")
    for masks, keys in key_chunks:
        examined += len(masks)
        verdict = memo.take(keys)
        fresh = verdict == 0
        if fresh.any():
            # each unseen key once, the first of each sorted run: np.unique on
            # numpy 2.4 is 8-10x slower (1.05 vs 0.10 ms, 32,768 keys, 20 distinct)
            new = keys[fresh]
            new.sort()
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]
            e_in, e_out, crossing = _decode(graph, new)
            e_min = np.minimum(e_in, e_out)
            ok = memo[new] = np.where(crossing >= need[e_min], 1, 2)
            verdict = memo.take(keys)
            # the smallest crossing / bound, one float division per new key
            bound = value[e_min]
            ratios = np.divide(crossing, bound, out=np.full(len(new), math.inf),
                               where=bound > 0)
            worst = min(worst, float(ratios.min()))
            if csv is not None:
                rows = zip(*(a.tolist() for a in (new, e_in, e_out, crossing, bound, ok)))
                tail_of.update((k, f",{i},{o},{x},{b!r},{'pass' if v == 1 else 'fail'}\n")
                               for k, i, o, x, b, v in rows)
        fail = verdict == 2
        fail_masks.append(masks[fail])
        fail_keys.append(keys[fail])
        if csv is not None:
            csv.write("".join([f"{mask}{tail_of[k]}"
                               for mask, k in zip(masks.tolist(), keys.tolist())]))
    e_in, e_out, crossing = _decode(graph, np.concatenate(fail_keys))
    bound = value[np.minimum(e_in, e_out)]
    return VerificationReport(
        reason=reason,
        c=None if reason else float(cert.c),
        degree_dominance_failures=dominance_failures,
        cuts_examined=examined,
        worst_ratio=worst,
        failing=(np.concatenate(fail_masks), e_in, e_out, crossing, bound),
    )
