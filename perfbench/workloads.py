"""Seeded inputs and expected answers for the three benchmark workloads.

Each workload is a fixed list of CLI calls. The seed picks a vertex
relabelling of every graph (and of its blocks file) and the random edges;
it never changes a size, so the work done and the expected answers do not
depend on it. Expected answers come from closed forms and from the exact
oracle, never from stored output bytes.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Complete multipartite part sizes for `certify`; the minimal c is
# (k-1)/k for k parts, 1/2 for stars and other complete bipartite graphs.
MULTIPARTITE_SIZES = (
    (1, 6), (1, 9), (1, 12), (1, 15), (2, 7), (3, 8), (5, 5), (6, 7),
    (1, 1, 1), (2, 3, 4), (3, 3, 3), (4, 4, 4), (2, 5, 6), (1, 4, 6),
    (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (1, 2, 3, 4), (1, 2, 3, 5),
    (1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (1, 2, 2, 3, 3), (3, 3, 2, 2, 1),
    (1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (1, 1, 2, 2, 3, 3),
    (1,) * 7, (1, 1, 1, 1, 2, 2, 2), (1, 1, 1, 2, 2, 2, 2),
    (1,) * 8, (1, 1, 1, 1, 1, 2, 2, 2), (1,) * 9, (1,) * 10, (2, 2, 1, 1, 1, 1, 1, 1, 1),
    (1,) * 11, (1,) * 12, (1,) * 13, (4, 5), (7, 7), (2, 2, 6),
)
GNP_ORDERS = tuple(range(10, 30))
GNP_DENSITY = 0.5
PATTERNS = ("complete", "complete-bipartite-halves", "star-at-first", "empty")
IDENTITY_TOL = 1e-9


@dataclass
class Call:
    """One CLI invocation and how to judge its result."""

    argv: list
    check: Callable  # (exit code, stdout text) -> problem string or None
    cuts: int = 0  # cuts the call examines or enumerates
    blocks: int = 0  # block certificates a verify call computes
    identity_cuts: int = 0  # cuts `report --mode identities` audits
    command: str = ""


class _Writer:
    def __init__(self, workdir: Path, rng: random.Random):
        self.dir = workdir
        self.rng = rng
        self.count = 0

    def _path(self, stem):
        self.count += 1
        return str(self.dir / f"{self.count:03d}-{stem}.txt")

    def relabel(self, n, edges, blocks=()):
        perm = list(range(n))
        self.rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        blocks = [sorted(perm[v] for v in b) for b in blocks]
        return oracle.SimpleGraph(n, edges), blocks

    def graph(self, g: oracle.SimpleGraph, stem="graph"):
        path = self._path(stem)
        lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
        Path(path).write_text("\n".join(lines) + "\n")
        return path

    def blocks(self, blocks, stem="blocks"):
        path = self._path(stem)
        Path(path).write_text("".join(" ".join(map(str, b)) + "\n" for b in blocks))
        return path

    def random_edges(self, n, density):
        """G(n, m) with m fixed at density * C(n, 2), so the size never varies."""
        pairs = list(itertools.combinations(range(n), 2))
        return self.rng.sample(pairs, round(density * len(pairs)))


# ---------------------------------------------------------------------------
# Graph families (before relabelling)


def complete_edges(n):
    return list(itertools.combinations(range(n), 2))


def multipartite_edges(sizes):
    starts = list(itertools.accumulate(sizes, initial=0))
    parts = [range(starts[i], starts[i + 1]) for i in range(len(sizes))]
    return [(u, v) for a, b in itertools.combinations(parts, 2) for u in a for v in b]


def triangle_chain_edges(t):
    """t triangles joined in a row by single bridges (n = 3t, m = 4t - 1)."""
    edges = []
    for i in range(t):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        if i:
            edges.append((a - 1, a))
    return edges


def near_pencil_blocks(n):
    return [list(range(n - 1))] + [[i, n - 1] for i in range(n - 1)]


def affine_lines(q):
    lines = [[x * q + (s * x + b) % q for x in range(q)] for s in range(q) for b in range(q)]
    return lines + [[x * q + y for y in range(q)] for x in range(q)]


def pattern_edges(block, pattern):
    b = sorted(block)
    if pattern == "complete":
        return list(itertools.combinations(b, 2))
    if pattern == "complete-bipartite-halves":
        h = len(b) // 2
        return [(u, v) for u in b[:h] for v in b[h:]]
    if pattern == "star-at-first":
        return [(b[0], v) for v in b[1:]]
    return []


def all_pairs_blocks(n):
    return [list(p) for p in itertools.combinations(range(n), 2)]


# ---------------------------------------------------------------------------
# Checks. Each returns None when the output is right, else what is wrong.


def _json(text):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"unparsable JSON output: {exc}"


def _close(a, b, tol):
    return a is not None and abs(a - b) <= tol


def check_certify(g: oracle.SimpleGraph, k_expected):
    """k_expected is the closed-form part count, or None when not small."""

    def check(code, text):
        payload, err = _json(text)
        if err:
            return err
        if k_expected is not None:
            if code != 0 or payload.get("verdict") != "small":
                return f"expected small (exit 0), got exit {code}"
            if not _close(payload.get("c_min"), oracle.c_of_parts(k_expected), 1e-6):
                return f"c_min {payload.get('c_min')} != {oracle.c_of_parts(k_expected)}"
            return None
        if code != 3 or payload.get("verdict") != "not-small-for-any-c":
            return f"expected not small (exit 3), got exit {code}"
        w = np.asarray(payload.get("witness"), dtype=float)
        if w.shape != (g.n,):
            return f"witness has shape {w.shape}, graph has {g.n} vertices"
        if abs(w.sum()) > 1e-8 * max(1.0, np.abs(w).sum()):
            return f"witness sum {w.sum()} is not 0"
        if not float(w @ g.matrix() @ w) > 1e-12 * float(w @ w):
            return "witness has w^t M w <= 0"
        return None

    return check


def _verify_context(g, blocks, kind):
    k = oracle.partition_parts(g, blocks)
    if k is None or k < 1 or (kind == "refined" and k < 2):
        raise ValueError("benchmark inputs must keep the bound applicable")
    return k


def check_verify_json(g, blocks, kind, variant, expected_cuts, sampled_k_n=False):
    """Exhaustive: violations and worst ratio match the exact oracle.

    Sampled on K_n: every cut with the same side size agrees, so when no
    side size violates, no sampled cut may be reported.
    """
    def check(code, text):
        payload, err = _json(text)
        if err:
            return err
        k = _verify_context(g, blocks, kind)
        if payload.get("applicable") is not True:
            return "bound reported inapplicable"
        if not _close(payload.get("c"), oracle.c_of_parts(k), 1e-6):
            return f"c {payload.get('c')} != {oracle.c_of_parts(k)}"
        if payload.get("cuts_examined") != expected_cuts:
            return f"cuts_examined {payload.get('cuts_examined')} != {expected_cuts}"
        if payload.get("degree_dominance_ok") is not oracle.degree_dominance_ok(g, blocks):
            return "degree_dominance_ok disagrees with r_v <= d_v"
        reported = payload.get("violations") or []
        masks = np.array([v["bitmask"] for v in reported], dtype=np.int64)
        if len(masks):
            e_in, e_out, crossing = oracle.cut_stats(g, masks)
            for v, a, b, c in zip(reported, e_in, e_out, crossing):
                if (v["e_in"], v["e_out"], v["crossing"]) != (a, b, c):
                    return f"wrong statistics for violation {v['bitmask']}"
            if not oracle.violated(k, kind, variant, g.n, np.minimum(e_in, e_out), crossing).all():
                return "a reported violation holds exactly"
        if sampled_k_n:
            if oracle.complete_graph_violating_sizes(g.n, k, kind, variant):
                raise ValueError("sampled K_n input must have no violating cut size")
            if reported:
                return f"{len(reported)} violations reported, none exist"
        else:
            bad, worst = oracle.exhaustive_summary(g, k, kind, variant)
            if sorted(masks.tolist()) != bad:
                return f"{len(reported)} violations reported, oracle has {len(bad)}"
            if not _close(payload.get("worst_ratio"), worst, 1e-5 * max(1.0, worst)):
                return f"worst_ratio {payload.get('worst_ratio')} != {worst}"
        if code != (3 if reported else 0):
            return f"exit {code} with {len(reported)} violations"
        return None

    return check


def check_verify_csv(g, blocks, kind, variant, expected_cuts, exhaustive):
    """Every row: canonical mask, exact statistics, bound value and verdict."""
    def check(code, text):
        k = _verify_context(g, blocks, kind)
        lines = text.splitlines()
        if not lines or lines[0] != "cut_bitmask,e_in,e_out,crossing,bound,pass":
            return "missing CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if any(len(r) != 6 for r in rows):
            return "CSV row without six fields"
        if len(rows) != expected_cuts:
            return f"{len(rows)} rows, expected {expected_cuts}"
        try:
            cols = list(zip(*rows))
            masks = np.array(cols[0], dtype=np.int64)
            stats = np.array(cols[1:4], dtype=np.int64)
            bound = np.array(cols[4], dtype=float)
        except ValueError as exc:
            return f"malformed CSV row: {exc}"
        passes = np.array([p == "pass" for p in cols[5]])
        full = (1 << g.n) - 1
        if exhaustive:
            want = np.concatenate(list(oracle.all_masks(g.n)))
            if not np.array_equal(np.sort(masks), want):
                return "rows are not every canonical cut once"
        elif not (((masks & 1) == 1) & (masks < full)).all():
            return "non-canonical sampled cut"
        e_in, e_out, crossing = oracle.cut_stats(g, masks)
        if not (np.array_equal(stats[0], e_in) and np.array_equal(stats[1], e_out)
                and np.array_equal(stats[2], crossing)):
            return "wrong cut statistics"
        e_min = np.minimum(e_in, e_out)
        if not np.allclose(bound, oracle.bound_value(k, kind, variant, g.n, e_min),
                           rtol=1e-5, atol=1e-4):
            return "bound values differ from the closed form"
        bad = oracle.violated(k, kind, variant, g.n, e_min, crossing)
        if not np.array_equal(passes, ~bad):
            return f"{int((passes == bad).sum())} pass/fail verdicts differ from exact arithmetic"
        if code != (3 if bad.any() else 0):
            return f"exit {code} with {int(bad.sum())} failing rows"
        return None

    return check


def check_identities(expected_cuts):
    def check(code, text):
        payload, err = _json(text)
        if err:
            return err
        if code != 0:
            return f"exit {code}"
        if payload.get("cuts_examined") != expected_cuts:
            return f"cuts_examined {payload.get('cuts_examined')} != {expected_cuts}"
        residuals = payload.get("max_residuals") or {}
        if not residuals:
            return "no identity residuals"
        worst = max(residuals.values())
        if not worst <= IDENTITY_TOL:
            return f"identity residual {worst} > {IDENTITY_TOL}"
        return None

    return check


def check_sparsity(g):
    def check(code, text):
        payload, err = _json(text)
        if err:
            return err
        if code != 0:
            return f"exit {code}"
        crossing, e_min = oracle.sparsity_minimum(g)
        if not _close(payload.get("min_ratio"), crossing / e_min, 1e-12):
            return f"min_ratio {payload.get('min_ratio')} != {crossing}/{e_min}"
        mask = payload.get("argmin_bitmask")
        if not isinstance(mask, int):
            return "argmin_bitmask missing"
        a_in, a_out, a_cross = (int(x[0]) for x in oracle.cut_stats(g, np.array([mask])))
        if a_cross * e_min != crossing * min(a_in, a_out):
            return f"argmin cut {mask} does not attain the minimum"
        return None

    return check


# ---------------------------------------------------------------------------
# Call builders


def _cuts(n):
    return 2 ** (n - 1) - 1


def _verify(w, g, blocks, *, blocks_file=None, partition=None, kind="base",
            variant="as-stated", fmt="json", trials=None, seed=0, sampled_k_n=False):
    argv = ["verify", "--graph", w.graph(g), "--partition",
            partition or w.blocks(blocks, blocks_file or "blocks"), "--format", fmt]
    if kind != "base":
        argv += ["--bound", kind]
    if variant != "as-stated":
        argv += ["--variant", variant]
    cuts = _cuts(g.n)
    if trials is not None:
        argv += ["--mode", "sample", "--trials", str(trials), "--seed", str(seed)]
        cuts = trials
    if fmt == "csv":
        check = check_verify_csv(g, blocks, kind, variant, cuts, trials is None)
    else:
        check = check_verify_json(g, blocks, kind, variant, cuts, sampled_k_n)
    return Call(argv, check, cuts=cuts, blocks=len(blocks), command="verify")


def _identities(w, g):
    cuts = _cuts(g.n)
    argv = ["report", "--graph", w.graph(g, "identities"), "--mode", "identities",
            "--format", "json"]
    return Call(argv, check_identities(cuts), cuts=cuts, identity_cuts=cuts, command="report")


def _sparsity(w, g):
    argv = ["report", "--graph", w.graph(g, "sparsity"), "--mode", "sparsity",
            "--format", "json"]
    return Call(argv, check_sparsity(g), cuts=_cuts(g.n), command="report")


def _certify(w, g, k):
    argv = ["certify", "--graph", w.graph(g, "certify"), "--format", "json"]
    return Call(argv, check_certify(g, k), command="certify")


def _spot_audit(w):
    """A few hundred per-cut audits, so every layer's time is measured on
    every workload; under 1% of the bulk-verify and certify-blocks passes."""
    g, _ = w.relabel(8, w.random_edges(8, 0.5))
    h, _ = w.relabel(10, w.random_edges(10, 0.4))
    return [_identities(w, g), _sparsity(w, h)]


def bulk_verify(w: _Writer, seed: int):
    """Exhaustive and sampled `verify`, where the cut-statistics kernel
    dominates; edge counts run from 27 to 300."""
    n = 20
    kn, np_blocks = w.relabel(n, complete_edges(n), near_pencil_blocks(n))
    chain, _ = w.relabel(21, triangle_chain_edges(7))
    lines = affine_lines(5)
    design, design_blocks = w.relabel(25, complete_edges(25), lines)
    return [
        _verify(w, kn, np_blocks, blocks_file="near-pencil"),
        _verify(w, kn, [list(range(n))], partition="trivial", kind="refined"),
        _verify(w, chain, all_pairs_blocks(21), partition="all-pairs"),
        _verify(w, design, design_blocks, blocks_file="affine5", trials=200_000,
                seed=seed, sampled_k_n=True),
    ] + _spot_audit(w)


def certify_blocks(w: _Writer, seed: int):
    """Block certificates: bisection over the Jacobi eigensolver dominates;
    the cut kernel sees only 2000 sampled cuts."""
    calls = []
    for sizes in MULTIPARTITE_SIZES:
        g, _ = w.relabel(sum(sizes), multipartite_edges(sizes))
        calls.append(_certify(w, g, len(sizes)))
    for n in GNP_ORDERS:
        g, _ = w.relabel(n, w.random_edges(n, GNP_DENSITY))
        calls.append(_certify(w, g, oracle.part_count(g)))
    for q in (5, 7):
        lines = affine_lines(q)
        edges = [e for i, b in enumerate(lines) for e in pattern_edges(b, PATTERNS[i % 4])]
        g, blocks = w.relabel(q * q, edges, lines)
        calls.append(_verify(w, g, blocks, blocks_file=f"affine{q}", fmt="csv",
                             trials=1000, seed=seed))
    return calls + _spot_audit(w)


def per_cut_audit(w: _Writer, seed: int):
    """Per-cut work: the frozenset cut generator, the identity suite, and
    multi-megabyte CSV output, rather than the vectorized aggregate."""
    g15, _ = w.relabel(15, w.random_edges(15, 0.5))
    k17, np_blocks = w.relabel(17, complete_edges(17), near_pencil_blocks(17))
    chain, _ = w.relabel(18, triangle_chain_edges(6))
    g18, _ = w.relabel(18, w.random_edges(18, 0.4))
    return [
        _identities(w, g15),
        _verify(w, k17, np_blocks, blocks_file="near-pencil", fmt="csv"),
        _verify(w, chain, all_pairs_blocks(18), partition="all-pairs", kind="refined",
                fmt="csv"),
        _sparsity(w, g18),
    ]


WORKLOADS = {
    "bulk-verify": bulk_verify,
    "certify-blocks": certify_blocks,
    "per-cut-audit": per_cut_audit,
}


def build(name: str, seed: int, workdir: Path) -> list:
    """Write the workload's input files under workdir and return its calls."""
    w = _Writer(workdir, random.Random(f"{name}:{seed}"))
    return WORKLOADS[name](w, seed)


def total_cuts(calls) -> int:
    return sum(c.cuts for c in calls)
