import itertools
import random
import sys

import numpy as np
import pytest

from cutcert import graphs
from cutcert.graphs import (
    GraphInputError,
    cut_stats,
    design_graph,
    from_edge_list,
    parse_edge_list,
)


def test_path_construction():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.degrees == (1, 2, 1)


def test_empty_graph():
    g = from_edge_list(2, [])
    assert g.m == 0
    assert g.degrees == (0, 0)


def test_duplicate_edges_merged():
    g = from_edge_list(4, [(0, 1), (0, 1), (2, 3)])
    assert g.m == 2


def test_reversed_duplicate_merged():
    g = from_edge_list(3, [(0, 1), (1, 0)])
    assert g.m == 1


def test_self_loop_rejected():
    with pytest.raises(GraphInputError, match=r"\(2,2\)"):
        from_edge_list(3, [(2, 2)])


def test_endpoint_out_of_range():
    # Graph reports the edge in its canonical form, whichever order it came in
    for pair in ((0, 3), (3, 0)):
        with pytest.raises(GraphInputError, match=r"^edge \(0,3\) has endpoint out of range"):
            from_edge_list(3, [pair])


def test_direct_construction_rejects_noncanonical_duplicate():
    # (1, 0) is the edge (0, 1) again; counted twice it would make m = 2
    with pytest.raises(GraphInputError, match=r"\(1, 0\)"):
        graphs.Graph(3, frozenset({(0, 1), (1, 0)}))


def test_direct_construction_rejects_endpoint_out_of_range():
    with pytest.raises(GraphInputError, match=r"\(0,3\) has endpoint out of range"):
        graphs.Graph(3, frozenset({(0, 1), (0, 3)}))


def test_direct_construction_rejects_self_loop():
    with pytest.raises(GraphInputError, match=r"^self-loop \(1,1\) not allowed$"):
        graphs.Graph(3, frozenset({(1, 1)}))


def test_adjacency_masks():
    g = from_edge_list(4, [(0, 1), (0, 2), (2, 3)])
    assert g.adjacency_masks == (0b0110, 0b0001, 0b1001, 0b0100)
    assert graphs.empty(3).adjacency_masks == (0, 0, 0)


def test_degree_sum_is_twice_edge_count():
    g = graphs.random_gnp(9, 0.4, seed=3)
    assert sum(g.degrees) == 2 * g.m


class TestCutStats:
    def test_k4_split(self):
        stats = cut_stats(graphs.complete(4), {0, 1})
        assert (stats.e_in, stats.e_out, stats.crossing) == (1, 1, 4)

    def test_bipartite_side(self):
        stats = cut_stats(graphs.complete_bipartite(2, 2), {0, 1})
        assert (stats.e_in, stats.e_out, stats.crossing) == (0, 0, 4)

    def test_empty_side(self):
        g = graphs.random_gnp(6, 0.5, seed=0)
        stats = cut_stats(g, set())
        assert (stats.e_in, stats.e_out, stats.crossing) == (0, g.m, 0)

    def test_counts_partition_edges_exhaustively(self):
        # every cut of every small graph splits the edge set into the
        # three disjoint classes
        for seed in range(5):
            g = graphs.random_gnp(7, 0.5, seed=seed)
            for k in range(g.n + 1):
                for S in itertools.combinations(range(g.n), k):
                    stats = cut_stats(g, S)
                    assert stats.e_in + stats.e_out + stats.crossing == g.m

    def test_handshake(self):
        for seed in range(10):
            g = graphs.random_gnp(8, 0.6, seed=seed)
            rng = np.random.default_rng(seed)
            S = {v for v in range(8) if rng.random() < 0.5}
            stats = cut_stats(g, S)
            assert sum(g.degrees[v] for v in S) == 2 * stats.e_in + stats.crossing

    @pytest.mark.parametrize("members", [{0, 7}, {0, -1}])
    def test_vertex_out_of_range_rejected(self, members):
        with pytest.raises(GraphInputError, match="out of range"):
            cut_stats(graphs.path(4), members)

    @pytest.mark.parametrize("g", [graphs.complete(26), graphs.random_gnp(30, 0.5, 11)],
                             ids=["K26", "G(30,1/2)"])
    def test_matches_edge_loop_past_64_edges(self, g):
        assert g.m > 64  # edge-index bitsets wider than one machine word
        rng = random.Random(7)
        for _ in range(300):
            S = rng.sample(range(g.n), rng.randrange(g.n + 1))
            counts = [0, 0, 0]  # edges with 0, 1 or 2 endpoints in S
            for u, v in g.edges:
                counts[(u in S) + (v in S)] += 1
            for members in (S, (v for v in S), S + S[: len(S) // 2]):
                stats = cut_stats(g, members)
                assert [stats.e_out, stats.crossing, stats.e_in] == counts, S


class TestMatrices:
    def test_laplacian_row_sums(self):
        L = graphs.path(3).laplacian_matrix()
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.allclose(L, L.T)

    def test_laplacian_is_degree_minus_adjacency(self):
        for g in (graphs.random_gnp(6, 0.5, seed=1), graphs.star(4), graphs.empty(0)):
            D = np.diag(g.degrees)
            assert np.array_equal(g.laplacian_matrix(), D - g.adjacency_matrix())

    def test_matrices_built_once_and_read_only(self):
        g = graphs.random_gnp(6, 0.5, seed=1)
        assert g.adjacency_matrix() is g.adjacency_matrix()
        assert g.laplacian_matrix() is g.laplacian_matrix()
        for M in (g.adjacency_matrix(), g.laplacian_matrix()):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 1] = 5.0

    def test_matrices_are_views_of_the_float64_stack(self):
        for g in (graphs.random_gnp(6, 0.5, seed=1), graphs.star(4), graphs.empty(0)):
            n, stack = g.n, g.form_stack
            assert stack.dtype == np.float64 and stack.shape == (5 * n, n)
            A, D = np.zeros((n, n)), np.diag(g.degrees)
            for u, v in g.edges:
                A[u, v] = A[v, u] = 1
            blocks = (D - A, A, D, np.ones((n, n)), np.eye(n))
            for i, block in enumerate(blocks):
                assert np.array_equal(stack[i * n:(i + 1) * n], block), (g, i)
            if n:  # a zero-size array shares no memory
                assert np.shares_memory(g.adjacency_matrix(), stack)
                assert np.shares_memory(g.laplacian_matrix(), stack)

    def test_empty_laplacian(self):
        assert np.array_equal(graphs.empty(3).laplacian_matrix(), np.zeros((3, 3)))

    @pytest.mark.parametrize("perm", [[0, 0, 1], [1, 2], [0, 1, 2, 3], [1, 2, 3]])
    def test_relabel_needs_a_permutation(self, perm):
        with pytest.raises(GraphInputError, match="permutation"):
            graphs.path(3).relabel(perm)

    def test_induced_k4_minus_vertex(self):
        sub = graphs.complete(4).induced_subgraph({0, 1, 2})
        assert sub.n == 3 and sub.m == 3

    def test_induced_preserves_adjacency(self):
        g = graphs.random_gnp(8, 0.5, seed=2)
        keep = [1, 3, 4, 6]
        sub = g.induced_subgraph(keep)
        for i, u in enumerate(keep):
            for j, v in enumerate(keep):
                if i < j:
                    assert ((i, j) in sub.edges) == ((u, v) in g.edges)

    def test_induced_matches_edge_scan(self):
        # the definition: keep the edges with both ends kept, reindexed
        rng = np.random.default_rng(11)
        for n, prob, seed in [(1, 0.5, 0), (7, 0.3, 1), (12, 0.5, 2), (20, 0.9, 3),
                              (33, 0.2, 4), (62, 0.5, 5)]:
            g = graphs.random_gnp(n, prob, seed)
            for size in (0, 1, n // 2, n, 2 * n):
                vertices = rng.integers(0, n, size=size).tolist()
                index = {v: i for i, v in enumerate(sorted(set(vertices)))}
                want = frozenset((index[u], index[v]) for u, v in g.edges
                                 if u in index and v in index)
                sub = g.induced_subgraph(vertices)
                assert sub == graphs.Graph(len(index), want), (n, vertices)

    def test_induced_out_of_range(self):
        g = graphs.complete(5)
        for bad in ([0, 5], [-1, 2], [7]):
            with pytest.raises(GraphInputError, match="out of range"):
                g.induced_subgraph(bad)


class TestGenerators:
    def test_star(self):
        g = graphs.star(3)
        assert g.n == 4 and g.m == 3
        assert g.degrees == (3, 1, 1, 1)

    def test_multipartite_all_singletons_is_complete(self):
        g = graphs.complete_multipartite([1, 1, 1])
        assert g.edges == graphs.complete(3).edges

    def test_multipartite_two_parts_matches_bipartite(self):
        assert (
            graphs.complete_multipartite([2, 3]).edges
            == graphs.complete_bipartite(2, 3).edges
        )

    def test_gnp_deterministic(self):
        assert graphs.random_gnp(10, 0.5, 42).edges == graphs.random_gnp(10, 0.5, 42).edges

    def test_bad_sizes(self):
        with pytest.raises(GraphInputError):
            graphs.complete_multipartite([2, 0])
        with pytest.raises(GraphInputError):
            graphs.star(0)

    @pytest.mark.parametrize("n", [-1, sys.maxsize + 1, 10**23])
    def test_vertex_count_checked_before_any_pair(self, n):
        def pairs():
            raise AssertionError("a pair was read")
            yield

        with pytest.raises(GraphInputError, match=r"vertex count must be in \[0, "):
            from_edge_list(n, pairs())

    @pytest.mark.parametrize("build", [
        graphs.empty, graphs.complete, graphs.path, lambda n: graphs.star(n - 1),
        lambda n: graphs.complete_bipartite(1, n - 1),
        lambda n: graphs.complete_multipartite([2, n - 3, 1]),
        lambda n: graphs.random_gnp(n, 0.5, 1)])
    def test_every_family_meets_the_one_check(self, build):
        n = sys.maxsize + 1
        with pytest.raises(GraphInputError) as exc:
            build(n)
        assert str(exc.value) == f"vertex count must be in [0, {sys.maxsize}], got {n}"

    @pytest.mark.parametrize("sizes", [[1], [3], [1, 4], [2, 3], [3, 1, 2], [1, 1, 1, 1]])
    def test_multipartite_edges_join_different_parts(self, sizes):
        part = [i for i, size in enumerate(sizes) for _ in range(size)]
        expected = {(u, v) for u, v in itertools.combinations(range(len(part)), 2)
                    if part[u] != part[v]}
        assert graphs.complete_multipartite(sizes).edges == expected


class TestDesignGraph:
    def test_near_pencil_complete_blocks_build_k5(self):
        from cutcert.partitions import near_pencil

        blocks = near_pencil(5).blocks
        g = design_graph(5, blocks, "complete")
        assert g.edges == graphs.complete(5).edges

    def test_all_pairs_complete_equals_complete(self):
        blocks = list(itertools.combinations(range(6), 2))
        g = design_graph(6, blocks, "complete")
        assert g.edges == graphs.complete(6).edges

    def test_trivial_block_patterns(self):
        block = [tuple(range(5))]
        assert design_graph(5, block, "star-at-first").edges == graphs.star(4).edges
        halves = design_graph(6, [tuple(range(6))], "complete-bipartite-halves")
        assert halves.edges == graphs.complete_bipartite(3, 3).edges
        assert design_graph(5, block, "empty").m == 0

    def test_invalid_blocks_rejected(self):
        with pytest.raises(GraphInputError, match="invalid block design"):
            design_graph(4, [(0, 1), (2, 3)], "complete")

    @pytest.mark.parametrize("patterns", [[], ["complete"] * 2, ["complete"] * 4])
    def test_one_pattern_per_block(self, patterns):
        # near_pencil(3) has three blocks
        from cutcert.partitions import near_pencil

        with pytest.raises(GraphInputError, match=f"got {len(patterns)} patterns for 3 blocks"):
            design_graph(3, near_pencil(3).blocks, patterns)

    def test_unknown_pattern(self):
        with pytest.raises(GraphInputError, match="pattern"):
            design_graph(3, [(0, 1, 2)], "ladder")


class TestEdgeListFormat:
    def test_comments_and_blanks(self):
        text = "# a path\n3 2\n\n0 1  # first\n1 2\n"
        assert parse_edge_list(text).degrees == (1, 2, 1)

    def test_bad_token_reports_line(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphInputError, match="promises 2"):
            parse_edge_list("3 2\n0 1\n")

    def test_missing_header(self):
        with pytest.raises(GraphInputError, match="header"):
            parse_edge_list("# nothing\n")

    def test_header_takes_two_fields(self):
        with pytest.raises(GraphInputError, match="line 1: header must be 'n m'"):
            parse_edge_list("3 1 7\n0 1\n")

    def test_bad_token_text_matches_blocks_format(self):
        from cutcert.partitions import PartitionError, parse_block_lines

        text = "3 1\n0 x  # bad\n"
        with pytest.raises(GraphInputError) as as_graph:
            parse_edge_list(text)
        with pytest.raises(PartitionError) as as_blocks:
            parse_block_lines(text)
        assert str(as_graph.value) == str(as_blocks.value) == (
            "line 2: expected integers, got '0 x  # bad'")

    def test_edge_line_takes_two_fields(self):
        with pytest.raises(GraphInputError, match="line 2: edge line must be 'u v'"):
            parse_edge_list("3 1\n0 1 2\n")
