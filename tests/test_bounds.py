import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from cutcert import bounds, cuts, graphs, partitions
from cutcert.bounds import (
    AS_STATED,
    ENDPOINTS,
    FLAT,
    INTERIOR,
    TIGHT,
    BoundDomainError,
    case_threshold,
    f_minimizer_location,
    identity_suite,
    intermediate_bound,
    lambda_value,
    refined_bound,
)
from cutcert.graphs import GraphInputError


class TestLambdaValue:
    def test_half(self):
        assert lambda_value(0.5) == pytest.approx(2 / 3)

    def test_zero(self):
        assert lambda_value(0.0) == 2.0

    def test_three_quarters(self):
        assert lambda_value(0.75) == pytest.approx(2 / 7)

    def test_exact_at_part_counts(self):
        # c = (k-1)/k gives lambda = 2/(2k-1) exactly
        for k in range(1, 12):
            assert lambda_value(Fraction(k - 1, k)) == Fraction(2, 2 * k - 1)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 0.99, 100)
        values = [lambda_value(c) for c in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        for c in (-0.1, 1.0, 1.5):
            with pytest.raises(BoundDomainError):
                lambda_value(c)


class TestIntermediateBound:
    def test_balanced_example(self):
        assert intermediate_bound(0.5, 3, 6, 0.5) == pytest.approx(3.0)

    def test_balanced_simplification(self):
        # at p = 1/2 the bound collapses to [2(1-c)e + cn/2] / (1+c)
        for c in (0.2, 0.5, 0.8):
            for e, n in ((0, 4), (3, 10), (7, 12)):
                expected = (2 * (1 - c) * e + c * n / 2) / (1 + c)
                assert intermediate_bound(c, e, n, 0.5) == pytest.approx(expected)

    def test_quarter_example(self):
        assert intermediate_bound(0.5, 0, 4, 0.25) == pytest.approx(0.375 / 0.6875)

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            intermediate_bound(0.5, 1, 4, 0.0)
        with pytest.raises(BoundDomainError):
            intermediate_bound(1.0, 1, 4, 0.5)

    @pytest.mark.parametrize("c", [0.0, 1 - 2**-53])
    @pytest.mark.parametrize("p", [5e-324, 1 - 2**-53])
    def test_extreme_floats_keep_the_denominator_positive(self, c, p):
        # fl(p * p) < p for every double p in (0, 1); at c = 0 and the least
        # subnormal p the bound is inf, its p -> 0 limit
        for e, n in ((0, 4), (3, 10)):
            assert intermediate_bound(c, e, n, p) >= 0


class TestCaseThreshold:
    def test_examples(self):
        assert case_threshold(0.5, 12) == pytest.approx(1.5)
        assert case_threshold(0.5, 0) == 0.0
        assert case_threshold(2 / 3, 9) == pytest.approx(3.0)
        assert case_threshold(Fraction(2, 3), 9) == 3

    def test_domain(self):
        for c in (0.0, 1.0):
            with pytest.raises(BoundDomainError):
                case_threshold(c, 5)


class TestRefinedBound:
    def test_above_threshold_as_stated(self):
        assert refined_bound(0.5, 3, 12, AS_STATED) == pytest.approx(3.5)

    def test_below_threshold_both_variants(self):
        assert refined_bound(0.5, 1, 12, AS_STATED) == pytest.approx(2.0)
        assert refined_bound(0.5, 1, 12, TIGHT) == pytest.approx(2.0)

    def test_exact_threshold_tie_takes_low_branch(self):
        # e = 3 sits exactly on the threshold (2/3)^2 * 9 / (4/3) = 3
        assert refined_bound(Fraction(2, 3), 3, 9) == 3
        assert refined_bound(Fraction(2, 3), 3, 9, TIGHT) == 3

    def test_above_threshold_tight(self):
        assert refined_bound(0.5, 3, 12, TIGHT) == pytest.approx(4.0)

    def test_tight_dominates_as_stated(self):
        for c in np.linspace(0.05, 0.95, 19):
            for e in range(0, 12):
                for n in (1, 5, 12, 30):
                    assert (
                        refined_bound(c, e, n, TIGHT)
                        >= refined_bound(c, e, n, AS_STATED) - 1e-12
                    )

    def test_lower_bounds_intermediate_at_every_p(self):
        # the distilled piecewise value never exceeds the p-dependent bound
        for c in np.linspace(0.05, 0.95, 10):
            for e in (0, 1, 3, 8):
                for n in (4, 10, 25):
                    floor_as = refined_bound(c, e, n, AS_STATED)
                    floor_tight = refined_bound(c, e, n, TIGHT)
                    for k in range(1, n):
                        f = intermediate_bound(c, e, n, k / n)
                        assert floor_tight <= f + 1e-9
                        assert floor_as <= f + 1e-9

    def test_tight_nondecreasing_in_e(self):
        for c in (0.3, 0.5, 0.8):
            for n in (6, 12, 20):
                values = [refined_bound(c, e / 4, n, TIGHT) for e in range(0, 60)]
                assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_as_stated_nondecreasing_within_each_branch(self):
        for c in (0.3, 0.5, 0.8):
            for n in (6, 12, 20):
                t = case_threshold(c, n)
                below = [refined_bound(c, e, n) for e in np.linspace(0, t, 20)]
                above = [refined_bound(c, e, n) for e in np.linspace(t * 1.01 + 0.01, t + 20, 20)]
                assert all(b >= a - 1e-12 for a, b in zip(below, below[1:]))
                assert all(b >= a - 1e-12 for a, b in zip(above, above[1:]))

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            refined_bound(0.0, 1, 4)
        with pytest.raises(BoundDomainError):
            refined_bound(0.5, -1, 4)
        with pytest.raises(BoundDomainError):
            refined_bound(0.5, 1, 4, "loose")


class TestMinimizerLocation:
    def test_interior(self):
        # 4(1-c)e - c^2 n = 6 - 3 = 3 > 0
        assert f_minimizer_location(0.5, 3, 12) == INTERIOR

    def test_endpoints_zero_edges(self):
        assert f_minimizer_location(0.5, 0, 12) == ENDPOINTS

    def test_endpoints_large_n(self):
        assert f_minimizer_location(0.8, 1, 100) == ENDPOINTS

    def test_flat_tie(self):
        # 4(1-c)e = c^2 n exactly at c = 0.5, e = 1, n = 8
        assert f_minimizer_location(0.5, 1, 8) == FLAT
        # 4(1-c)e = c^2 n = 4 at c = 2/3, e = 3, n = 9
        assert f_minimizer_location(Fraction(2, 3), 3, 9) == FLAT

    @pytest.mark.parametrize("c", [0, 1, -0.5, 1.5, Fraction(1)])
    def test_domain(self, c):
        with pytest.raises(BoundDomainError, match="0 < c < 1"):
            f_minimizer_location(c, 1, 8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        p_grid = np.arange(1, 1000) / 1000.0
        for _ in range(200):
            c = rng.uniform(0.05, 0.95)
            e = int(rng.integers(0, 15))
            n = int(rng.integers(2, 40))
            f = np.array([intermediate_bound(c, e, n, p) for p in p_grid])
            where = f_minimizer_location(c, e, n)
            if where == INTERIOR:
                assert f.min() == pytest.approx(
                    intermediate_bound(c, e, n, 0.5), abs=1e-9
                )
            elif where == ENDPOINTS:
                assert f.min() == pytest.approx(min(f[0], f[-1]), abs=1e-9)
            else:
                assert f.max() - f.min() <= 1e-9


class TestIdentitySuite:
    def test_path_single_vertex_cut(self):
        residuals = identity_suite(graphs.path(4), {0})
        assert max(residuals.values()) == 0
        # spot value behind the pair-products identity
        x = np.array([0.75, -0.25, -0.25, -0.25])
        pair_sum = sum(
            x[i] * x[j] for i in range(4) for j in range(i + 1, 4)
        )
        assert pair_sum == pytest.approx(-0.375)
        assert pair_sum == pytest.approx(-0.5 * 0.25 * 0.75 * 4)

    def test_k4_crossing_matches_laplacian_form(self):
        g = graphs.complete(4)
        x = np.array([0.5, 0.5, -0.5, -0.5])
        assert float(x @ g.laplacian_matrix() @ x) == pytest.approx(4.0)
        assert identity_suite(g, {0, 1})[bounds.ID_CROSSING_LAPLACIAN] == 0

    @pytest.mark.parametrize(
        "g, members",
        [(graphs.complete(2), {0}), (graphs.complete(4), {0}), (graphs.path(4), {3})]
        + [(graphs.random_gnp(7, 0.5, 1), set(range(k))) for k in range(1, 7)],
        ids=["K2-half", "K4-single", "P4-single"] + [f"G7-prefix{k}" for k in range(1, 7)])
    def test_residuals_exactly_zero_on_listed_cuts(self, g, members):
        assert set(identity_suite(g, members).values()) == {0}

    def test_trivial_cuts_rejected(self):
        g = graphs.complete(3)
        with pytest.raises(BoundDomainError):
            identity_suite(g, set())
        with pytest.raises(BoundDomainError):
            identity_suite(g, {0, 1, 2})

    @pytest.mark.parametrize("members", [{0, 7}, {0, -1}])
    def test_vertex_out_of_range_rejected(self, members):
        with pytest.raises(GraphInputError, match="out of range"):
            identity_suite(graphs.path(4), members)

    def test_exhaustive_residuals_small_corpus(self):
        from cutcert.cuts import enumerate_cuts

        for seed in range(6):
            g = graphs.random_gnp(7, 0.5, seed=seed)
            for S in enumerate_cuts(g):
                assert max(identity_suite(g, S).values()) == 0

    @pytest.mark.parametrize("g", [graphs.complete(26), graphs.random_gnp(24, 0.5, 7)],
                             ids=["K26", "G(24,1/2)"])
    def test_residuals_exactly_zero_on_random_cuts(self, g):
        # evaluated in floats on x, these residuals reached about 1e-13
        rng = random.Random(2024)
        for _ in range(2000):
            S = rng.sample(range(g.n), rng.randrange(1, g.n))
            assert set(identity_suite(g, S).values()) == {0}, S

    def test_keys_follow_identity_names(self):
        # the CLI folds the residuals by position and names them from IDENTITY_NAMES
        residuals = identity_suite(graphs.random_gnp(10, 0.5, 3), {0, 2, 5})
        assert tuple(residuals) == bounds.IDENTITY_NAMES

    def test_checks_are_independent_of_the_edge_counts(self, monkeypatch):
        def off_by_one(graph, members):
            stats = graphs.cut_stats(graph, members)
            return graphs.CutStats(stats.e_in, stats.e_out, stats.crossing + 1)

        monkeypatch.setattr(bounds, "cut_stats", off_by_one)
        residuals = identity_suite(graphs.random_gnp(10, 0.5, 3), {0, 2, 5})
        assert residuals[bounds.ID_CROSSING_LAPLACIAN] == 1.0
        assert residuals[bounds.ID_HANDSHAKE_S] != 0
        assert residuals[bounds.ID_HANDSHAKE_SC] != 0
        assert residuals[bounds.ID_DEGREE_WEIGHTED] != 0
        # the two identities that never read the edge counts still hold
        assert residuals[bounds.ID_LAPLACIAN_SPLIT] == 0
        assert residuals[bounds.ID_PAIR_PRODUCTS] == 0


def _slack_budget(graph, partition, c):
    """One row per canonical cut, in integers on X = n*x (t on S, -s off S):
    (mask, s, e_in, e_out, crossing, A, C), with the block-sum identity
    Sigma_B (Sigma_B X)^2 = Sigma r_v X_v^2 - s(n - s)n checked on the way.

    A = c Sigma_B (Sigma_B X)^2 - X^T Adj X (a Fraction, as c is one) and
    C = Sigma (d_v - r_v) X_v^2. The edge counts come from the edges'
    own endpoints, independently of the cut kernels.
    """
    n = graph.n
    masks = np.arange(1, (1 << n) - 1, 2, dtype=np.int64)
    inside = (masks[:, None] >> np.arange(n)) & 1
    s = inside.sum(axis=1)
    X = np.where(inside == 1, n - s[:, None], -s[:, None])
    u, v = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2).T
    e_in = (inside[:, u] & inside[:, v]).sum(axis=1)
    crossing = (inside[:, u] ^ inside[:, v]).sum(axis=1)
    e_out = graph.m - e_in - crossing
    xax = 2 * (X[:, u] * X[:, v]).sum(axis=1)
    incidence = np.zeros((n, len(partition.blocks)), dtype=np.int64)
    for j, block in enumerate(partition.blocks):
        incidence[list(block), j] = 1
    r = np.array(partition.replication)
    block_squares = ((X @ incidence) ** 2).sum(axis=1)
    assert (block_squares == (X * X * r).sum(axis=1) - s * (n - s) * n).all()
    C = (X * X * (np.array(graph.degrees) - r)).sum(axis=1)
    A = [c * squares - quad for squares, quad in zip(block_squares.tolist(), xax.tolist())]
    return list(zip(masks.tolist(), s.tolist(), e_in.tolist(), e_out.tolist(),
                    crossing.tolist(), A, C.tolist()))


def _audit_budget(g, part, c):
    """Check the slack budget on every cut of one c-small instance, under the
    base bound and, when c > 0, both refined variants; verify_bound must fail
    exactly the cuts with crossing < bound. Returns (runs, pairs, violations)
    counted over (cut, bound) pairs, and the smallest crossing / e_min over
    the cuts with e_min > 0 (None if there are none).
    """
    n = g.n
    runs = [("base", AS_STATED)]
    if c > 0:
        runs += [("refined", AS_STATED), ("refined", TIGHT)]
    # everything but the bound depends on the cut alone
    rows = []
    sparsest = None
    for mask, size, e_in, e_out, crossing, A, C in _slack_budget(g, part, c):
        e_min = min(e_in, e_out)
        if e_min > 0 and (sparsest is None or crossing < sparsest * e_min):
            sparsest = Fraction(crossing, e_min)
        p = Fraction(size, n)
        q = 1 - p
        D = q * q * e_in + p * p * e_out - (1 - 2 * p * q) * e_min
        assert A >= 0 and D >= 0, (g.edges, part.blocks, mask)
        rest = (2 * (1 - c) * D + (c * C + A) / (n * n)) / (c + 2 * (1 - c) * p * q)
        rows.append((mask, crossing, e_min, intermediate_bound(c, e_min, n, p), rest, C))
    violations = 0
    for kind, variant in runs:
        failing = set()
        for mask, crossing, e_min, intermediate, rest, C in rows:
            where = (g.edges, part.blocks, kind, variant, mask)
            bound = (lambda_value(c) * e_min if kind == "base"
                     else refined_bound(c, e_min, n, variant))
            E = intermediate - bound
            assert E >= 0, where
            assert crossing - bound == E + rest, where
            if crossing < bound:
                assert C < 0, where
                failing.add(mask)
        # the same cuts fail in verify_bound's kernel
        report = cuts.verify_bound(g, part, kind, variant)
        assert set(report.failing[0].tolist()) == failing
        violations += len(failing)
    return len(runs), len(runs) * len(rows), violations, sparsest


def _graphs_up_to_isomorphism(n):
    """One labelled graph per isomorphism class on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, found = set(), []
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            canon = min(tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
                        for perm in perms)
            if canon not in seen:
                seen.add(canon)
                found.append(graphs.from_edge_list(n, edges))
    return found


def _linear_spaces(n):
    """Every labelled linear space on range(n), as lists of blocks: the block
    through the first uncovered pair takes any further points whose pairs
    with the block are all still uncovered."""
    def extend(covered, blocks):
        open_pairs = [pair for pair in itertools.combinations(range(n), 2)
                      if pair not in covered]
        if not open_pairs:
            yield blocks
            return
        a, b = open_pairs[0]
        others = [v for v in range(n) if v not in (a, b)]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                block = tuple(sorted((a, b) + extra))
                new = set(itertools.combinations(block, 2))
                if not new & covered:
                    yield from extend(covered | new, blocks + [block])

    return list(extend(frozenset(), []))


class TestSlackBudget:
    """crossing - bound = E + [2(1-c)D + (cC + A)/n^2] / (c + 2(1-c)pq), exactly,
    with p = s/n and q = 1 - p, D = q^2 e_in + p^2 e_out - (1 - 2pq)e_min and
    E = intermediate_bound(c, e_min, n, p) - bound: the proof of the cut bound,
    cut by cut. A, D and E are never negative, so only C < 0 (a vertex whose
    replication outweighs its degree, as weighted by this cut) can fail it.
    """

    def test_budget_on_seeded_graphs(self):
        # 60 seeded G(n, p) on each partition that certifies small
        pairs = violations = 0
        for n, prob, seed in itertools.product(range(4, 9), (0.3, 0.5, 0.8), range(4)):
            g = graphs.random_gnp(n, prob, seed)
            for part in (partitions.trivial_partition(n), partitions.all_pairs_partition(n),
                         partitions.near_pencil(n)):
                cert = partitions.partition_certificate(g, part)
                if cert.small:
                    _, cut_pairs, failed, _ = _audit_budget(g, part, cert.c)
                    pairs += cut_pairs
                    violations += failed
        assert (pairs, violations) == (10209, 170)

    def test_sweep_every_graph_and_linear_space_to_five_vertices(self):
        # every (graph, linear space) pair on 2..5 vertices up to relabelling:
        # each graph class once, against every labelled space on its vertices
        classes = {n: _graphs_up_to_isomorphism(n) for n in range(2, 6)}
        spaces = {n: [partitions.PairPartition.checked(n, blocks) for blocks in _linear_spaces(n)]
                  for n in range(2, 6)}
        assert [len(classes[n]) for n in range(2, 6)] == [2, 4, 11, 34]
        assert [len(spaces[n]) for n in range(2, 6)] == [1, 2, 6, 32]
        # weaker hypotheses than r_v <= d_v: on each, the instances where it
        # holds and those where it holds and some bound fails
        candidates = {
            "r_v <= d_v": lambda r, d: all(x <= y for x, y in zip(r, d)),
            "sum (d_v - r_v) >= 0": lambda r, d: sum(d) >= sum(r),
            "r_v <= d_v where d_v > 0": lambda r, d: all(x <= y for x, y in zip(r, d) if y),
            "r_v <= d_v + 1": lambda r, d: all(x <= y + 1 for x, y in zip(r, d)),
        }
        holds = {name: [0, 0] for name in candidates}
        # per part count k, the smallest crossing / (lambda(c) e_min) under r_v <= d_v
        loosest = {}
        runs = pairs = violations = 0
        for n in range(2, 6):
            for g, part in itertools.product(classes[n], spaces[n]):
                cert = partitions.partition_certificate(g, part)
                if not cert.small:
                    continue
                bound_runs, cut_pairs, failed, sparsest = _audit_budget(g, part, cert.c)
                for name, hypothesis in candidates.items():
                    if hypothesis(part.replication, g.degrees):
                        holds[name][0] += 1
                        holds[name][1] += failed > 0
                if not partitions.replication_degree_check(g, part):
                    # r_v <= d_v everywhere makes C >= 0 on every cut
                    assert failed == 0, (g.edges, part.blocks)
                    if sparsest is not None:
                        k = cert.c.denominator
                        ratio = sparsest / lambda_value(cert.c)
                        loosest[k] = min(loosest.get(k, ratio), ratio)
                runs += bound_runs
                pairs += cut_pairs
                violations += failed
        assert (runs, pairs, violations) == (1787, 25537, 191)
        assert holds == {"r_v <= d_v": [95, 0], "sum (d_v - r_v) >= 0": [182, 0],
                         "r_v <= d_v where d_v > 0": [140, 0], "r_v <= d_v + 1": [232, 0]}
        assert loosest == {2: 3, 3: Fraction(15, 2), 4: 14, 5: 27}

    def test_six_cycle_refutes_replication_at_most_degree_plus_one(self):
        # the 6-cycle 0-4-2-3-1-5-0 under a 7-block linear space: r_v = d_v + 1
        # at every vertex, and the refined bounds fail while the base one holds
        g = graphs.from_edge_list(6, [(0, 4), (4, 2), (2, 3), (3, 1), (1, 5), (5, 0)])
        part = partitions.PairPartition.checked(
            6, [(0, 1, 2), (0, 3), (0, 4, 5), (1, 3, 5), (1, 4), (2, 3, 4), (2, 5)])
        assert part.replication == (3,) * 6 and g.degrees == (2,) * 6
        assert partitions.replication_degree_check(g, part) == (0, 1, 2, 3, 4, 5)
        assert partitions.partition_certificate(g, part).c == Fraction(1, 2)
        base = cuts.verify_bound(g, part)
        assert (base.cuts_examined, base.violations, base.worst_ratio) == (31, (), 1.5)
        for variant in (AS_STATED, TIGHT):
            refined = cuts.verify_bound(g, part, kind=cuts.KIND_REFINED, variant=variant)
            # cuts {0,2,4}, {0,1,5} and {0,4,5}
            assert [(v.bitmask, v.e_in, v.e_out, v.crossing) for v in refined.violations] == [
                (21, 2, 2, 2), (35, 2, 2, 2), (49, 2, 2, 2)]
        assert refined_bound(Fraction(1, 2), 2, 6, AS_STATED) == Fraction(25, 12)
        assert refined_bound(Fraction(1, 2), 2, 6, TIGHT) == Fraction(7, 3)
