import itertools
from fractions import Fraction

import numpy as np
import pytest

from cutcert import graphs, linalg
from cutcert.smallness import (
    SmallnessCertificate,
    is_c_small,
    minimal_c,
    random_vector_probe,
)
from test_linalg import spectrum_psd

TWO_EDGES = graphs.from_edge_list(4, [(0, 1), (2, 3)])
MULTIPARTITE_SIZES = [
    (2, 2), (1, 3), (3, 4), (6, 6), (2, 10),
    (1, 1, 1), (2, 2, 2), (4, 4, 4), (2, 3, 4), (1, 2, 9),
    (1, 1, 1, 1), (3, 3, 3, 3), (1, 2, 3, 4), (2, 2, 4, 4),
    (1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (1, 1, 2, 3, 5), (2, 2, 2, 3, 3),
]


class TestIsCSmall:
    def test_k2_half(self):
        ok, _ = is_c_small(graphs.complete(2), 0.5)
        assert ok

    def test_k2_below_half_with_witness(self):
        ok, witness = is_c_small(graphs.complete(2), 0.4)
        assert not ok
        M = graphs.complete(2).adjacency_matrix()
        assert linalg.quadratic_form(M, witness) > 0.4 * witness.sum() ** 2
        # near the symmetric direction (1,1)
        assert abs(witness[0] - witness[1]) < 1e-6

    def test_empty_at_zero(self):
        ok, _ = is_c_small(graphs.empty(3), 0.0)
        assert ok

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            is_c_small(graphs.complete(2), -0.1)

    @pytest.mark.parametrize("g", [graphs.complete(3), graphs.empty(3), TWO_EDGES],
                             ids=["K3", "empty", "not-small"])
    def test_nan_c_rejected(self, g):
        # NaN fails every comparison, so a NaN c would otherwise get a verdict
        with pytest.raises(ValueError, match="nonnegative"):
            is_c_small(g, float("nan"))

    def test_monotone_in_c(self):
        for seed in range(8):
            g = graphs.random_gnp(6, 0.5, seed=seed)
            verdicts = [is_c_small(g, c)[0] for c in np.linspace(0.0, 2.0, 21)]
            # once feasible, stays feasible
            assert verdicts == sorted(verdicts)


class TestMinimalC:
    def test_star_half(self):
        cert = minimal_c(graphs.star(4))
        assert cert.small and cert.c_min == pytest.approx(0.5, abs=1e-6)

    def test_triangle_two_thirds(self):
        cert = minimal_c(graphs.complete(3))
        assert cert.c_min == pytest.approx(2 / 3, abs=1e-6)

    def test_two_disjoint_edges_not_small(self):
        cert = minimal_c(TWO_EDGES)
        assert not cert.small
        w = cert.witness
        assert abs(w.sum()) < 1e-9
        assert linalg.quadratic_form(TWO_EDGES.adjacency_matrix(), w) > 0

    def test_two_sided_certificate(self):
        # the LAPACK spectrum checks the structural verdict independently, on
        # every labelled graph with 1..5 vertices and the criterion-1 families
        corpus = [
            graphs.from_edge_list(n, edges)
            for n in range(1, 6)
            for r in range(n * (n - 1) // 2 + 1)
            for edges in itertools.combinations(itertools.combinations(range(n), 2), r)
        ]
        corpus += [graphs.star(k) for k in range(1, 9)]
        corpus += [graphs.complete_bipartite(a, b) for a in range(1, 5) for b in range(1, 5)]
        corpus += [graphs.complete_multipartite(sizes) for sizes in MULTIPARTITE_SIZES]
        for g in corpus:
            cert = minimal_c(g)
            M = g.adjacency_matrix()
            J = np.ones((g.n, g.n))
            if cert.small:
                assert spectrum_psd(cert.c_min * J - M), sorted(g.edges)
                below = cert.c_min - 2e-7
                assert not spectrum_psd(below * J - M), sorted(g.edges)
            else:
                w = cert.witness
                assert abs(w.sum()) < 1e-9, sorted(g.edges)
                assert linalg.quadratic_form(M, w) > 0, sorted(g.edges)

    def test_empty_graph_is_zero_small(self):
        cert = minimal_c(graphs.empty(4))
        assert cert.small and cert.c_min == 0.0

    def test_single_vertex(self):
        cert = minimal_c(graphs.empty(1))
        assert cert.small and cert.c_min == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = graphs.random_gnp(7, 0.5, seed=seed)
            c1 = minimal_c(g)
            perm = list(rng.permutation(7))
            h = g.relabel(perm)
            assert all(type(u) is int for edge in h.edges for u in edge)
            c2 = minimal_c(h)
            if c1.small:
                assert c2.small and c2.c_min == pytest.approx(c1.c_min, abs=1e-6)
            else:
                assert not c2.small

    def test_isolated_vertex_does_not_increase(self):
        for seed in range(5):
            g = graphs.random_gnp(6, 0.6, seed=seed)
            cert = minimal_c(g)
            padded = graphs.from_edge_list(7, list(g.edges))
            cert_padded = minimal_c(padded)
            if not cert.small:
                assert not cert_padded.small
            else:
                assert cert_padded.small
                assert cert_padded.c_min <= cert.c_min + 1e-6


class TestRandomVectorProbe:
    def test_k2_at_half_clean(self):
        assert random_vector_probe(graphs.complete(2), 0.5, 10_000, seed=0) is None

    def test_k3_at_half_violated(self):
        x = random_vector_probe(graphs.complete(3), 0.5, 10_000, seed=0)
        assert x is not None
        M = graphs.complete(3).adjacency_matrix()
        assert linalg.quadratic_form(M, x) > 0.5 * x.sum() ** 2

    def test_empty_graph_never_violates(self):
        assert random_vector_probe(graphs.empty(3), 0.0, 100, seed=0) is None

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            random_vector_probe(graphs.complete(2), 0.5, 0)

    def test_agrees_with_eigen_verdict(self):
        for seed in range(12):
            g = graphs.random_gnp(6, 0.5, seed=seed)
            for c in (0.3, 0.6, 0.9, 1.2):
                ok, witness = is_c_small(g, c)
                found = random_vector_probe(g, c, 10_000, seed=seed)
                if ok:
                    assert found is None
                else:
                    assert found is not None
                    M = g.adjacency_matrix()
                    assert linalg.quadratic_form(M, witness) > c * witness.sum() ** 2


def test_certificate_constructors():
    small = SmallnessCertificate((0b011, 0b100))
    assert small.small and small.witness is None and small.c_min == 0.5
    not_small = SmallnessCertificate(None, np.array([1.0, 1.0, -2.0]))
    assert not not_small.small and not_small.c_min is None


def test_c_min_is_exact_and_compared_exactly():
    for k in range(1, 9):
        assert minimal_c(graphs.complete(k)).c_min == Fraction(k - 1, k)
    assert SmallnessCertificate(()).c_min == 0
    # the float 2/3 lies an ulp below the rational 2/3, which K_3 needs
    assert is_c_small(graphs.complete(3), Fraction(2, 3))[0]
    assert not is_c_small(graphs.complete(3), 2 / 3)[0]
    assert is_c_small(graphs.complete(5), 0.8)[0]  # the float 0.8 exceeds 4/5


def test_part_witness_holds_in_exact_arithmetic():
    # where the float (k-1)/k lies below the rational, x_v = 1/(k |part(v)|)
    # ties with c (sum x)^2 in floats (K_3); its exact values must not
    checked = 0
    for k in range(2, 9):
        c = float(Fraction(k - 1, k))
        if Fraction(c) >= Fraction(k - 1, k):
            continue
        sizes = itertools.combinations_with_replacement(range(1, 8), k) if k <= 6 else [(1,) * k]
        for parts in sizes:
            g = graphs.complete_multipartite(list(parts))
            small, x = is_c_small(g, c)
            assert not small
            x = [Fraction(v) for v in x.tolist()]
            form = 2 * sum(x[u] * x[v] for u, v in g.edges)
            assert form > Fraction(c) * sum(x) ** 2, parts
            checked += 1
    assert checked == 85  # the 84 three-part graphs with K_3 among them, and K_7


def _assert_parts_are_the_partition(g, parts, k):
    """parts are k nonempty disjoint vertex sets covering the graph, with
    uv an edge exactly when u and v lie in different parts."""
    members = [[v for v in range(g.n) if part >> v & 1] for part in parts]
    assert all(members) and len(parts) == k, parts
    assert sorted(v for part in members for v in part) == list(range(g.n)), parts
    side = {v: i for i, part in enumerate(members) for v in part}
    for u, v in itertools.combinations(range(g.n), 2):
        assert ((u, v) in g.edges) == (side[u] != side[v]), (parts, u, v)


def test_parts_are_the_vertex_partition():
    for sizes in MULTIPARTITE_SIZES:
        g = graphs.complete_multipartite(sizes)
        _assert_parts_are_the_partition(g, minimal_c(g).parts, len(sizes))
    for n in (0, 1, 4):
        _assert_parts_are_the_partition(graphs.empty(n), minimal_c(graphs.empty(n)).parts,
                                        min(n, 1))
    # a complete multipartite graph has clique number k, found here by brute force
    small = 0
    for seed in range(200):
        g = graphs.random_gnp(6, 0.8, seed)
        cert = minimal_c(g)
        if cert.small:
            k = max(r for r in range(g.n + 1) for clique in itertools.combinations(range(g.n), r)
                    if all(pair in g.edges for pair in itertools.combinations(clique, 2)))
            _assert_parts_are_the_partition(g, cert.parts, k)
            small += 1
    assert small == 43
