import itertools
import math
import sys

import pytest

from cutcert import graphs, partitions
from cutcert.partitions import (
    PairPartition,
    PartitionError,
    affine_plane,
    all_pairs_partition,
    near_pencil,
    parse_blocks,
    partition_certificate,
    replication_degree_check,
    trivial_partition,
    validate,
)


class TestValidate:
    def test_single_full_block(self):
        report = validate(3, [(0, 1, 2)])
        assert report.valid and report.summary() == "valid"

    def test_uncovered_pairs_listed(self):
        report = validate(4, [(0, 1), (2, 3)])
        assert not report.valid
        assert set(report.uncovered_pairs) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_multiply_covered_pair(self):
        report = validate(4, [(0, 1, 2), (0, 1, 3)])
        assert not report.valid
        assert report.multiply_covered_pairs == ((0, 1),)
        assert report.summary() == "1 uncovered pair(s); 1 multiply covered pair(s)"

    def test_undersized_block(self):
        report = validate(3, [(0,), (0, 1, 2)])
        assert not report.valid
        assert report.undersized_blocks == ((0,),)

    def test_out_of_range_member(self):
        with pytest.raises(PartitionError, match="out of range"):
            validate(3, [(0, 1, 5)])

    @pytest.mark.parametrize("n", [-1, 10**23])
    def test_ground_set_meets_the_vertex_count_rule(self, n):
        with pytest.raises(PartitionError) as exc:
            validate(n, [(0, 1)])
        assert str(exc.value) == f"vertex count must be in [0, {sys.maxsize}], got {n}"


class TestGenerators:
    def test_trivial(self):
        p = trivial_partition(4)
        assert p.blocks == ((0, 1, 2, 3),)

    def test_near_pencil_five(self):
        p = near_pencil(5)
        assert set(p.blocks) == {(0, 1, 2, 3), (0, 4), (1, 4), (2, 4), (3, 4)}

    def test_affine_plane_three(self):
        p = affine_plane(3)
        assert p.n == 9
        assert len(p.blocks) == 12
        assert all(len(b) == 3 for b in p.blocks)
        assert p.replication == (4,) * 9

    def test_all_generators_validate(self):
        cases = [trivial_partition(n) for n in range(2, 10)]
        cases += [all_pairs_partition(n) for n in range(2, 10)]
        cases += [near_pencil(n) for n in range(3, 10)]
        cases += [affine_plane(q) for q in (2, 3, 5)]
        for p in cases:
            assert validate(p.n, p.blocks).valid

    def test_affine_requires_prime(self):
        # 2^127 - 1 is prime: its trial division would not end, so the
        # order cap must come first
        for q in (0, 1, 4, 6, 17, 2**127 - 1):
            with pytest.raises(PartitionError):
                affine_plane(q)

    def test_near_pencil_needs_three(self):
        with pytest.raises(PartitionError):
            near_pencil(2)

    @pytest.mark.parametrize("build", [trivial_partition, all_pairs_partition])
    @pytest.mark.parametrize("n", [0, 1])
    def test_pair_generators_need_two(self, build, n):
        with pytest.raises(PartitionError, match="needs n >= 2"):
            build(n)


class TestPartitionInvariants:
    @pytest.mark.parametrize(
        "p",
        [trivial_partition(6), all_pairs_partition(6), near_pencil(7), affine_plane(3)],
        ids=["trivial", "all-pairs", "near-pencil", "affine-3"],
    )
    def test_pair_count_identity(self, p):
        assert sum(math.comb(len(b), 2) for b in p.blocks) == math.comb(p.n, 2)

    @pytest.mark.parametrize(
        "p",
        [trivial_partition(5), all_pairs_partition(5), near_pencil(6), affine_plane(2)],
        ids=["trivial", "all-pairs", "near-pencil", "affine-2"],
    )
    def test_replication_sums_to_block_sizes(self, p):
        assert sum(p.replication) == sum(len(b) for b in p.blocks)

    def test_design_complete_blocks_dominate_degrees(self):
        for p in (near_pencil(7), affine_plane(3), all_pairs_partition(6)):
            g = graphs.design_graph(p.n, p.blocks, "complete")
            assert replication_degree_check(g, p) == ()


class TestReplicationDegreeCheck:
    def test_k5_near_pencil(self):
        p = near_pencil(5)
        assert p.replication == (2, 2, 2, 2, 4)
        assert replication_degree_check(graphs.complete(5), p) == ()

    def test_isolated_vertex_always_fails(self):
        g = graphs.from_edge_list(4, [(0, 1), (0, 2), (1, 2)])  # vertex 3 isolated
        failing = replication_degree_check(g, all_pairs_partition(4))
        assert failing
        assert 3 in failing

    def test_bowtie_all_pairs_fails(self):
        g = graphs.from_edge_list(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        )
        assert replication_degree_check(g, all_pairs_partition(6)) == (0, 1, 2, 3, 4, 5)

    def test_size_mismatch(self):
        with pytest.raises(PartitionError, match="mismatch"):
            replication_degree_check(graphs.complete(4), trivial_partition(5))


class TestPartitionCertificate:
    def test_k5_near_pencil(self):
        cert = partition_certificate(graphs.complete(5), near_pencil(5))
        assert cert.small and cert.c == pytest.approx(0.75, abs=1e-6)

    def test_all_pairs_on_any_graph_with_edges(self):
        g = graphs.random_gnp(6, 0.5, seed=4)
        assert g.m > 0
        cert = partition_certificate(g, all_pairs_partition(6))
        assert cert.c == pytest.approx(0.5, abs=1e-6)

    def test_all_pairs_on_empty_graph(self):
        cert = partition_certificate(graphs.empty(5), all_pairs_partition(5))
        assert cert.c == 0.0

    def test_affine_triangle_blocks(self):
        p = affine_plane(3)
        g = graphs.design_graph(9, p.blocks, "complete")
        cert = partition_certificate(g, p)
        assert cert.c == pytest.approx(2 / 3, abs=1e-6)

    def test_not_small_block_propagates(self):
        g = graphs.from_edge_list(4, [(0, 1), (2, 3)])
        cert = partition_certificate(g, trivial_partition(4))
        assert not cert.small
        assert cert.offending_block == 0

    def test_names_first_not_small_block_past_block_0(self):
        # blocks 3 = (0, 5, 7) and 10 = (3, 4, 5) each induce an edge beside
        # an isolated vertex; blocks 0-2 are edgeless
        p = affine_plane(3)
        assert p.blocks[3] == (0, 5, 7) and p.blocks[10] == (3, 4, 5)
        g = graphs.from_edge_list(9, [(0, 5), (3, 4)])
        assert partition_certificate(g, p) == (None, 3)


class TestBlocksFormat:
    def test_parse_with_comments(self):
        text = "# near-pencil on 5 points\n0 1 2 3\n0 4\n1 4\n2 4\n3 4\n"
        p = parse_blocks(text, 5)
        assert p.blocks == near_pencil(5).blocks

    def test_malformed_line(self):
        with pytest.raises(PartitionError, match="line 2"):
            parse_blocks("0 1 2\nnope\n", 3)

    def test_invalid_partition_rejected(self):
        with pytest.raises(PartitionError, match="uncovered"):
            parse_blocks("0 1\n2 3\n", 4)

    def test_checked_canonicalizes(self):
        p = PairPartition.checked(3, [[2, 1, 0]])
        assert p.blocks == ((0, 1, 2),)

    def test_checked_accepts_generator_input(self):
        p = PairPartition.checked(5, itertools.combinations(range(5), 2))
        assert len(p.blocks) == 10
