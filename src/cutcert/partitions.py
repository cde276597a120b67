"""Pairwise 2-partitions of a vertex set.

A valid partition is a family of blocks, each of size at least two, such
that every unordered vertex pair lies in exactly one block (a linear space,
i.e. a pairwise balanced design with index 1). Validation is always
exhaustive over all C(n,2) pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from . import smallness
from .graphs import Graph, _check_count, _int_lines


class PartitionError(ValueError):
    """Malformed partition input or invalid block structure."""


def _canon_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(set(b))) for b in blocks))


@dataclass(frozen=True)
class PartitionValidationReport:
    valid: bool
    undersized_blocks: tuple
    uncovered_pairs: tuple
    multiply_covered_pairs: tuple

    def summary(self) -> str:
        if self.valid:
            return "valid"
        parts = []
        if self.undersized_blocks:
            parts.append(f"{len(self.undersized_blocks)} undersized block(s)")
        if self.uncovered_pairs:
            parts.append(f"{len(self.uncovered_pairs)} uncovered pair(s)")
        if self.multiply_covered_pairs:
            parts.append(f"{len(self.multiply_covered_pairs)} multiply covered pair(s)")
        return "; ".join(parts)


def validate(n: int, blocks: Iterable[Iterable[int]]) -> PartitionValidationReport:
    """Exhaustive audit of the block-size and pair-coverage conditions."""
    _check_count(n, PartitionError)
    blocks = _canon_blocks(blocks)
    for block in blocks:
        for v in block:
            if not 0 <= v < n:
                raise PartitionError(f"block member {v} out of range [0,{n})")
    undersized = tuple(b for b in blocks if len(b) < 2)
    coverage = {}
    for block in blocks:
        for pair in itertools.combinations(block, 2):
            coverage[pair] = coverage.get(pair, 0) + 1
    uncovered = tuple(
        pair
        for pair in itertools.combinations(range(n), 2)
        if pair not in coverage
    )
    multiple = tuple(pair for pair, k in sorted(coverage.items()) if k > 1)
    ok = not undersized and not uncovered and not multiple
    return PartitionValidationReport(ok, undersized, uncovered, multiple)


@dataclass(frozen=True)
class PairPartition:
    """Validated 2-partition; blocks are canonically sorted."""

    n: int
    blocks: tuple

    @staticmethod
    def checked(n: int, blocks: Iterable[Iterable[int]]) -> "PairPartition":
        canon = _canon_blocks(blocks)
        report = validate(n, canon)
        if not report.valid:
            raise PartitionError(f"invalid partition: {report.summary()}")
        return PairPartition(n, canon)

    @cached_property
    def replication(self) -> tuple[int, ...]:
        """r_v = number of blocks containing vertex v."""
        r = [0] * self.n
        for block in self.blocks:
            for v in block:
                r[v] += 1
        return tuple(r)


# ---------------------------------------------------------------------------
# Structural checks against a graph


def _check_order(graph: Graph, partition: PairPartition) -> None:
    if graph.n != partition.n:
        raise PartitionError(f"size mismatch: graph has {graph.n} vertices, "
                             f"partition {partition.n}")


def replication_degree_check(graph: Graph, partition: PairPartition) -> tuple[int, ...]:
    """Vertices whose replication r_v exceeds their degree d_v.

    r_v <= d_v everywhere is the unstated hypothesis the cut-bound proof
    leans on; it is reported, never enforced.
    """
    _check_order(graph, partition)
    return tuple(
        v for v, (r, d) in enumerate(zip(partition.replication, graph.degrees)) if r > d
    )


class PartitionCertificate(NamedTuple):
    """Smallest uniform c making every induced block subgraph c-small: the
    exact (k-1)/k, k the largest part count over the blocks. With c None,
    offending_block is the first block that no c makes small."""

    c: Fraction | None
    offending_block: int | None = None

    @property
    def small(self) -> bool:
        return self.c is not None


def partition_certificate(graph: Graph, partition: PairPartition) -> PartitionCertificate:
    _check_order(graph, partition)
    c = Fraction(0)
    for i, block in enumerate(partition.blocks):
        cert = smallness.minimal_c(graph.induced_subgraph(block))
        if not cert.small:
            return PartitionCertificate(None, i)
        c = max(c, cert.c_min)
    return PartitionCertificate(c)


# ---------------------------------------------------------------------------
# Generators


def trivial_partition(n: int) -> PairPartition:
    if n < 2:
        raise PartitionError(f"trivial partition needs n >= 2, got {n}")
    return PairPartition.checked(n, [range(n)])


def all_pairs_partition(n: int) -> PairPartition:
    if n < 2:
        raise PartitionError(f"all-pairs partition needs n >= 2, got {n}")
    return PairPartition.checked(n, itertools.combinations(range(n), 2))


def near_pencil(n: int) -> PairPartition:
    """One long block 0..n-2 plus the two-point blocks through vertex n-1."""
    if n < 3:
        raise PartitionError(f"near-pencil needs n >= 3, got {n}")
    blocks = [tuple(range(n - 1))] + [(i, n - 1) for i in range(n - 1)]
    return PairPartition.checked(n, blocks)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % d for d in range(2, int(q**0.5) + 1))


def affine_plane(q: int) -> PairPartition:
    """The q^2 + q lines of the affine plane over the integers mod q.

    Points are (x, y) encoded as x*q + y; q must be prime (and <= 13 to
    stay at desk scale).
    """
    if q > 13 or not _is_prime(q):
        raise PartitionError(f"affine plane needs a prime q <= 13, got {q}")
    blocks = []
    for slope in range(q):
        for intercept in range(q):
            blocks.append(tuple(x * q + (slope * x + intercept) % q for x in range(q)))
    for x in range(q):
        blocks.append(tuple(x * q + y for y in range(q)))
    return PairPartition.checked(q * q, blocks)


# ---------------------------------------------------------------------------
# Blocks file format: one block per line, whitespace-separated vertex ids;
# '#' begins a comment. Ground-set size comes from the caller.


def parse_block_lines(text: str) -> list[tuple[int, ...]]:
    """Parse block lines without validating the partition conditions."""
    return [tuple(block) for _, block in _int_lines(text, PartitionError)]


def parse_blocks(text: str, n: int) -> PairPartition:
    return PairPartition.checked(n, parse_block_lines(text))


def load_blocks(file, n: int) -> PairPartition:
    with open(file) as fh:
        return parse_blocks(fh.read(), n)
