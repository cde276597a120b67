import inspect
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import _random_design_instance
from test_cli import TRIANGLE_CHAIN, all_masks, kernel_stats

from cutcert import bounds, cuts, graphs, partitions
from cutcert.cuts import (
    _CHUNK,
    _LOW_BITS,
    CutCapError,
    _decode,
    _exhaustive_keys,
    _low_keys,
    _mask_keys,
    _mask_members,
    _sampled_keys,
    _sampled_masks,
    enumerate_cuts,
    fiedler_value,
    sparsity_profile,
    verify_bound,
)

BOWTIE_BRIDGE = graphs.from_edge_list(
    6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
)


def _verify_csv(g, p, **kwargs):
    """verify_bound with a CSV sink: the report and the parsed rows."""
    sink = io.StringIO()
    report = verify_bound(g, p, csv=sink, **kwargs)
    header, *lines = sink.getvalue().splitlines()
    assert header == "cut_bitmask,e_in,e_out,crossing,bound,pass"
    rows = []
    for line in lines:
        mask, e_in, e_out, crossing, bound, verdict = line.split(",")
        assert verdict in ("pass", "fail")
        rows.append((int(mask), int(e_in), int(e_out), int(crossing), float(bound),
                     verdict == "pass"))
    return report, rows


class TestEnumerateCuts:
    def test_three_vertices(self):
        cuts = set(enumerate_cuts(graphs.complete(3)))
        assert cuts == {frozenset({0}), frozenset({0, 1}), frozenset({0, 2})}

    def test_counts(self):
        assert sum(1 for _ in enumerate_cuts(graphs.complete(4))) == 7
        assert sum(1 for _ in enumerate_cuts(graphs.empty(1))) == 0
        for n in range(2, 9):
            assert sum(1 for _ in enumerate_cuts(graphs.empty(n))) == 2 ** (n - 1) - 1

    def test_every_cut_contains_zero_and_is_proper(self):
        for S in enumerate_cuts(graphs.empty(6)):
            assert 0 in S and len(S) < 6

    def test_cap(self):
        with pytest.raises(CutCapError, match="sampling"):
            list(enumerate_cuts(graphs.empty(27)))

    @pytest.mark.parametrize("width", [1, 4, _LOW_BITS])
    def test_every_odd_mask_in_ascending_order(self, monkeypatch, width):
        # a narrow low half puts n = 1..12 on both sides of its width, so
        # the cuts come from one chunk or from many
        monkeypatch.setattr(cuts, "_LOW_BITS", width)
        for n in range(1, 13):
            want = [frozenset(v for v in range(n) if m >> v & 1)
                    for m in range(1, (1 << n) - 1, 2)]
            assert list(enumerate_cuts(graphs.empty(n))) == want, n

    def test_stays_a_generator_function(self):
        # the benchmark's tracer counts yields only of generator functions
        assert inspect.isgeneratorfunction(cuts.enumerate_cuts)


class TestMaskMembers:
    def test_matches_a_bit_loop(self):
        # sampled cuts on n = 62 reach bit 61 of an int64 mask
        top = 1 << 61
        rng = np.random.default_rng(11)
        masks = [0, 1, top, top | 1, (1 << 62) - 1, (1 << 62) - 1 - top]
        masks += rng.integers(0, 1 << 62, size=500, dtype=np.int64).tolist()
        for mask in masks:
            assert _mask_members(mask) == tuple(v for v in range(62) if mask >> v & 1), mask


def _assert_kernel_matches_cut_stats(g, masks):
    e_in, e_out, crossing = kernel_stats(g, masks)
    assert e_in.shape == e_out.shape == crossing.shape == masks.shape
    for i, mask in enumerate(masks.tolist()):
        stats = graphs.cut_stats(g, (v for v in range(g.n) if mask >> v & 1))
        got = (int(e_in[i]), int(e_out[i]), int(crossing[i]))
        assert got == (stats.e_in, stats.e_out, stats.crossing), f"mask {mask:#x}"


class TestMaskKeys:
    def test_every_cut_of_every_small_graph(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            masks = np.arange(1 << n, dtype=np.int64)
            for bits in range(1 << len(pairs)):
                g = graphs.from_edge_list(n, (e for i, e in enumerate(pairs) if bits >> i & 1))
                _assert_kernel_matches_cut_stats(g, masks)

    def test_random_graphs(self):
        rng = np.random.default_rng(7)
        for n, prob, seed in [(6, 0.5, 0), (9, 0.3, 1), (12, 0.5, 2), (12, 0.9, 3),
                              (10, 0.0, 4)]:
            g = graphs.random_gnp(n, prob, seed)
            masks = rng.integers(0, 1 << n, size=300, dtype=np.int64)
            _assert_kernel_matches_cut_stats(g, masks)

    def test_order_one_and_no_masks(self):
        _assert_kernel_matches_cut_stats(graphs.empty(1), np.array([1], dtype=np.int64))
        _assert_kernel_matches_cut_stats(graphs.empty(1), np.array([], dtype=np.int64))
        _assert_kernel_matches_cut_stats(graphs.complete(4), np.array([], dtype=np.int64))

    def test_top_bit_at_62_vertices(self):
        # sampling allows n = 62, so masks use bit 61 of an int64
        top = 1 << 61
        extremes = np.array([1 | top, (1 << 62) - 1 - top, (1 << 62) - 1], dtype=np.int64)
        masks = np.concatenate([extremes, *_sampled_masks(62, 200, seed=5)])
        for g in [graphs.complete(62), graphs.from_edge_list(62, [(0, 61), (60, 61)])]:
            _assert_kernel_matches_cut_stats(g, masks)

    @pytest.mark.parametrize("n, dtype", [(31, np.int32), (32, np.int64)])
    def test_top_bit_either_side_of_the_int32_kernel(self, n, dtype):
        # below 32 vertices the kernel runs in int32, whose top usable bit is 30
        top = 1 << (n - 1)
        extremes = np.array([1 | top, (1 << n) - 1 - top, (1 << n) - 1], dtype=np.int64)
        masks = np.concatenate([extremes, *_sampled_masks(n, 200, seed=5)])
        assert (masks[3:] & top).any()
        sparse = graphs.from_edge_list(n, [(0, n - 1), (n - 2, n - 1), (3, 17)])
        for g in [graphs.complete(n), sparse]:
            assert _mask_keys(g, masks, _low_keys(g, _LOW_BITS)).dtype == dtype
            _assert_kernel_matches_cut_stats(g, masks)

    @pytest.mark.parametrize("n", [15, 16, 17, 25])
    def test_either_side_of_the_table_split(self, n):
        # n = 16 is the low-half table alone, 17 adds one high vertex, 25 nine
        b = min(n, _LOW_BITS)
        rng = np.random.default_rng(n)
        masks = rng.integers(0, 1 << n, size=400, dtype=np.int64)
        for bit in {b - 1, b} - {n}:
            masks[:100] |= 1 << bit
            masks[100:200] &= ~(1 << bit)
            masks[200:300] ^= 1 << bit
        assert (masks & 1).any() and (~masks & 1).any()
        pairs = [(0, n - 1), (b - 1, n - 1), (b - 1, b), (3, b - 1), (1, 2)]
        sparse = graphs.from_edge_list(n, [(u, v) for u, v in pairs if u != v < n])
        for g in [graphs.complete(n), graphs.random_gnp(n, 0.4, n), sparse]:
            _assert_kernel_matches_cut_stats(g, masks)


_LOW_TABLE_GRAPHS = {
    "gnp12": graphs.random_gnp(12, 0.5, 12),
    "edgeless16": graphs.empty(16),
    # every low vertex has neighbours in 32..39, above an int32's bits
    "high40": graphs.from_edge_list(
        40, [(v, 32 + v % 8) for v in range(16)] + [(v, 39 - v) for v in range(16)]
        + sorted(graphs.random_gnp(16, 0.3, 40).edges)),
}


@pytest.mark.parametrize("name", sorted(_LOW_TABLE_GRAPHS))
def test_low_keys_entry_is_its_own_subset(name):
    g = _LOW_TABLE_GRAPHS[name]
    for b in sorted({b for b in (1, 2, min(g.n, _LOW_BITS), _LOW_BITS) if b <= g.n}):
        table = _low_keys(g, b)
        assert table.dtype == np.int32 and table.shape == (1 << b,)
        for low in range(1 << b):
            members = [v for v in range(b) if low >> v & 1]
            want = (g.m - 1) * graphs.cut_stats(g, members).e_in
            want += sum(g.degrees[v] for v in members)
            assert table[low] == want, f"b={b} L={low:#x}"


def _assert_chunks_match_mask_keys(g):
    chunks = list(_exhaustive_keys(g))
    masks = np.concatenate([chunk[0] for chunk in chunks])
    assert np.array_equal(masks, all_masks(g.n))
    for masks, keys in chunks:
        for got, want in zip(_decode(g, keys), kernel_stats(g, masks)):
            assert np.array_equal(got, want)


class TestExhaustiveStats:
    def test_masks_ascend_over_every_canonical_cut(self):
        for n in range(2, _LOW_BITS + 4):
            masks = np.concatenate([chunk[0] for chunk in _exhaustive_keys(graphs.empty(n))])
            assert len(masks) == 2 ** (n - 1) - 1
            assert np.all(np.diff(masks) > 0) and np.all(masks & 1)
            assert masks[-1] < (1 << n) - 1
            assert np.array_equal(masks, all_masks(n))

    def test_every_small_graph_matches_mask_keys(self):
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = graphs.from_edge_list(n, (e for i, e in enumerate(pairs) if bits >> i & 1))
                _assert_chunks_match_mask_keys(g)

    def test_orders_around_the_split(self):
        for n in range(_LOW_BITS - 1, _LOW_BITS + 3):
            _assert_chunks_match_mask_keys(graphs.random_gnp(n, 0.5, n))
            _assert_chunks_match_mask_keys(graphs.empty(n))

    def test_first_middle_and_last_chunk_at_the_cap(self):
        n = 26
        sparse = graphs.from_edge_list(n, [(0, 25), (3, 17), (15, 16), (20, 24), (7, 8)])
        last, half = (1 << (n - _LOW_BITS)) - 1, 1 << (_LOW_BITS - 1)
        for g in (graphs.complete(n), sparse):
            for h, (masks, keys) in enumerate(_exhaustive_keys(g)):
                if h in (0, last // 2, last):
                    t = np.arange(h * half, (h + 1) * half - (h == last), dtype=np.int64)
                    assert np.array_equal(masks, 1 | t << 1)
                    for got, want in zip(_decode(g, keys), kernel_stats(g, masks)):
                        assert np.array_equal(got, want)
            assert h == last

    @pytest.mark.parametrize("n", [17, 18])
    def test_keys_match_endpoint_counts(self, n):
        # checked against counts from each edge's two ends, not either kernel
        sparse = graphs.from_edge_list(n, [(0, n - 1), (15, 16), (2, 16), (5, 9)])
        for g in [graphs.random_gnp(n, 0.5, n), sparse]:
            for masks, keys in _exhaustive_keys(g):
                for got, want in zip(_decode(g, keys), _endpoint_stats(g, masks)):
                    assert np.array_equal(got, want)

    def test_orders_zero_and_one_yield_nothing(self):
        assert list(_exhaustive_keys(graphs.empty(0))) == []
        assert list(_exhaustive_keys(graphs.empty(1))) == []

    def test_cap(self):
        with pytest.raises(CutCapError, match="sampling"):
            next(_exhaustive_keys(graphs.empty(27)))


class TestVerifyBound:
    def test_k5_near_pencil(self):
        report = verify_bound(graphs.complete(5), partitions.near_pencil(5))
        assert report.applicable
        assert report.c == pytest.approx(0.75, abs=1e-6)
        assert report.cuts_examined == 15
        assert report.violations == ()
        assert report.worst_ratio >= 1.0
        assert report.degree_dominance_ok

    def test_k9_affine_plane(self):
        p = partitions.affine_plane(3)
        g = graphs.design_graph(9, p.blocks, "complete")
        report = verify_bound(g, p)
        assert report.c == pytest.approx(2 / 3, abs=1e-6)
        assert report.cuts_examined == 255
        assert report.violations == ()

    def test_bowtie_bridge_violation(self):
        report = verify_bound(BOWTIE_BRIDGE, partitions.all_pairs_partition(6))
        assert report.applicable
        assert report.c == pytest.approx(0.5, abs=1e-6)
        assert not report.degree_dominance_ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert set(v.members) == {0, 1, 2}
        assert v.crossing == 1
        assert v.bound == pytest.approx(2.0, abs=1e-6)
        assert report.worst_ratio < 1.0 - 1e-9

    def test_refined_k5_trivial(self):
        report = verify_bound(
            graphs.complete(5), partitions.trivial_partition(5), kind="refined"
        )
        assert report.applicable
        assert report.c == pytest.approx(0.8, abs=1e-6)
        assert report.violations == ()

    def test_refined_threshold_tie_takes_low_branch(self):
        # K_9 on the affine plane of order 3: c = 2/3 puts the case threshold
        # at exactly 3 edges, so e_min = 3 uses the bound 2(1-c)/c * 3 = 3
        p = partitions.affine_plane(3)
        g = graphs.design_graph(9, p.blocks, "complete")
        _, rows = _verify_csv(g, p, kind="refined")
        tied = [bound for _, e_in, e_out, _, bound, _ in rows if min(e_in, e_out) == 3]
        assert tied and all(bound == 3.0 for bound in tied)

    def test_not_small_block_inapplicable(self):
        g = graphs.from_edge_list(4, [(0, 1), (2, 3)])
        report = verify_bound(g, partitions.trivial_partition(4))
        assert not report.applicable
        assert "not c-small" in report.reason
        assert report.c is None

    def test_reason_names_first_not_small_block(self):
        # affine:3 blocks 0-2 are edgeless; blocks 3 and 10 are not small
        g = graphs.from_edge_list(9, [(0, 5), (3, 4)])
        report = verify_bound(g, partitions.affine_plane(3))
        assert report.reason == "block 3 is not c-small for any c"
        assert report.cuts_examined == 0

    def test_refined_needs_edges(self):
        report = verify_bound(
            graphs.empty(4), partitions.trivial_partition(4), kind="refined"
        )
        assert not report.applicable
        assert "c > 0" in report.reason

    @pytest.mark.parametrize("trials", [None, 50])
    def test_unknown_kind_rejected(self, trials):
        with pytest.raises(ValueError, match="unknown bound kind 'x'"):
            verify_bound(graphs.complete(5), partitions.trivial_partition(5), kind="x",
                         trials=trials)

    # two disjoint edges are not c-small and the edgeless graph has c = 0, so
    # every bound but K_4's is inapplicable; the names are checked before that
    # is known
    @pytest.mark.parametrize("graph, kind, variant, message", [
        (graphs.from_edge_list(4, [(0, 1), (2, 3)]), "x", bounds.AS_STATED,
         "unknown bound kind 'x'"),
        (graphs.from_edge_list(4, [(0, 1), (2, 3)]), "base", "loose",
         "unknown variant 'loose'"),
        (graphs.from_edge_list(4, [(0, 1), (2, 3)]), "refined", "loose",
         "unknown variant 'loose'"),
        (graphs.empty(4), "refined", "loose", "unknown variant 'loose'"),
        (graphs.complete(4), "base", "loose", "unknown variant 'loose'"),
    ], ids=["kind-not-small", "base-variant-not-small", "refined-variant-not-small",
            "refined-variant-edgeless", "base-variant-applicable"])
    @pytest.mark.parametrize("trials", [None, 50])
    def test_unknown_names_rejected_whatever_the_certificate(self, graph, kind, variant,
                                                             message, trials):
        with pytest.raises(ValueError, match=message):
            verify_bound(graph, partitions.trivial_partition(4), kind=kind, variant=variant,
                         trials=trials)

    def test_empty_graph_base_bound_trivially_holds(self):
        report = verify_bound(graphs.empty(4), partitions.trivial_partition(4))
        assert report.applicable and report.violations == ()

    def test_violations_iff_worst_ratio_below_one(self):
        for g, p in [
            (graphs.complete(6), partitions.all_pairs_partition(6)),
            (BOWTIE_BRIDGE, partitions.all_pairs_partition(6)),
            (graphs.complete(5), partitions.near_pencil(5)),
        ]:
            report = verify_bound(g, p)
            assert bool(report.violations) == (report.worst_ratio < 1.0 - 1e-9)

    def test_rows_collected_on_request(self):
        report, rows = _verify_csv(graphs.complete(4), partitions.trivial_partition(4))
        assert len(rows) == report.cuts_examined == 7
        for mask, e_in, e_out, crossing, bound, ok in rows:
            assert mask % 2 == 1
            assert e_in + e_out + crossing == 6

    def test_consistency_with_sparsity_profile(self):
        g = graphs.complete(6)
        p = partitions.all_pairs_partition(6)
        report = verify_bound(g, p)
        assert report.violations == ()
        profile = sparsity_profile(g)
        assert profile.ratio >= bounds.lambda_value(report.c) - 1e-9


def _integer_verdicts(kind, variant, k, n, e_min, crossing):
    """Pass flags from the bound's integer forms at c = (k-1)/k."""
    if kind == "base":
        return (2 * k - 1) * crossing >= 2 * e_min
    above = 4 * k * e_min > (k - 1) ** 2 * n
    if variant == bounds.TIGHT:
        high = 2 * (2 * k - 1) * crossing >= 4 * e_min + (k - 1) * n
    else:
        high = 4 * k * (2 * k - 1) * crossing >= 8 * k * e_min + (k - 1) * (2 * k - 1) * n
    return np.where(above, high, (k - 1) * crossing >= 2 * e_min)


def test_verdicts_match_integer_forms():
    # the criterion-2/3 corpora, plus G(10, 1/2) on all pairs, whose many
    # cuts with crossing just under a fractional bound tell ceil from floor
    p9 = partitions.affine_plane(3)
    corpora = [
        (graphs.complete(5), partitions.near_pencil(5)),
        (graphs.design_graph(9, p9.blocks, "complete"), p9),
        (BOWTIE_BRIDGE, partitions.all_pairs_partition(6)),
    ]
    corpora += [(graphs.complete(n), partitions.trivial_partition(n)) for n in range(3, 13)]
    rng = np.random.default_rng(2024)
    corpora += [_random_design_instance(rng) for _ in range(50)]
    corpora += [(graphs.random_gnp(10, 0.5, seed), partitions.all_pairs_partition(10))
                for seed in range(5)]
    runs = [("base", bounds.AS_STATED), ("refined", bounds.AS_STATED),
            ("refined", bounds.TIGHT)]
    checked = 0
    for i, (g, p) in enumerate(corpora):
        for kind, variant in runs:
            report, rows = _verify_csv(g, p, kind=kind, variant=variant)
            k = round(1 / (1 - report.c))
            assert report.c == (k - 1) / k, f"corpus {i}"
            rows = np.array(rows, dtype=object)
            mask, e_in, e_out, crossing = (rows[:, j].astype(np.int64) for j in range(4))
            bound, passes = rows[:, 4].astype(float), rows[:, 5].astype(bool)
            e_min = np.minimum(e_in, e_out)
            expected = _integer_verdicts(kind, variant, k, g.n, e_min, crossing)
            assert (passes == expected).all(), f"corpus {i}, {kind} {variant}"
            assert sorted(v.bitmask for v in report.violations) == sorted(mask[~expected])
            positive = bound > 0
            worst = (crossing[positive] / bound[positive]).min() if positive.any() else math.inf
            assert report.worst_ratio == worst, f"corpus {i}, {kind} {variant}"
            checked += len(rows)
    assert checked > 100_000


CHAIN = graphs.from_edge_list(18, TRIANGLE_CHAIN)


@pytest.mark.parametrize("kind, variant", [(bounds.KIND_BASE, bounds.AS_STATED),
                                           (bounds.KIND_REFINED, bounds.AS_STATED),
                                           (bounds.KIND_REFINED, bounds.TIGHT)])
@pytest.mark.parametrize("n, k", [(62, 62), (25, 5), (18, 2), (9, 3)])
def test_bound_table_matches_per_e_fraction_oracle(n, k, kind, variant):
    # k equal parts give c = (k - 1)/k; at (9, 3) the case threshold is e = 3
    # exactly, and the tie takes the low branch
    g = graphs.complete_multipartite([n // k] * k)
    c = Fraction(k - 1, k)
    need, value = bounds.bound_table(kind, variant, c, g)
    es = range(g.m // 2 + 1)
    exact = ([bounds.lambda_value(c) * e for e in es] if kind == bounds.KIND_BASE
             else [bounds.refined_bound(c, e, n, variant) for e in es])
    assert need.tolist() == [math.ceil(b) for b in exact]
    assert value.tolist() == [float(b) for b in exact]
    if n == 9 and kind == bounds.KIND_REFINED:
        assert bounds.case_threshold(c, n) == exact[3] == 3
    if kind == bounds.KIND_BASE and n in (18, 9):  # ceilings of integer bounds
        assert exact[3 if n == 18 else 5] == 2


def _endpoint_stats(g, masks):
    """(e_in, e_out, crossing) of each cut, counted from the edge endpoints."""
    bits = ((masks[:, None] >> np.arange(g.n)) & 1).astype(np.int8)
    u, v = np.array(sorted(g.edges)).T
    ends = bits[:, u] + bits[:, v]
    return (ends == 2).sum(axis=1), (ends == 0).sum(axis=1), (ends == 1).sum(axis=1)


@pytest.mark.parametrize("kind, sample", [("base", None), ("refined", None),
                                          ("base", (70_000, 4))])
def test_verdicts_memoised_across_chunks(kind, sample):
    # a verdict is stored per key in the chunk that first sees it; the chain
    # spans four exhaustive chunks, or two of 70,000 samples
    p = partitions.all_pairs_partition(CHAIN.n)
    c = partitions.partition_certificate(CHAIN, p).c
    k = c.denominator
    if sample is None:
        masks = all_masks(CHAIN.n)
        chunk = masks >> _LOW_BITS
        report = verify_bound(CHAIN, p, kind=kind)
    else:
        masks = np.concatenate(list(_sampled_masks(CHAIN.n, *sample)))
        chunk = np.arange(len(masks)) // _CHUNK
        report = verify_bound(CHAIN, p, kind=kind, trials=sample[0], seed=sample[1])
    assert chunk[-1] >= 1
    e_in, e_out, crossing = _endpoint_stats(CHAIN, masks)
    e_min = np.minimum(e_in, e_out)
    passes = _integer_verdicts(kind, bounds.AS_STATED, k, CHAIN.n, e_min, crossing)
    distinct, which = np.unique(e_min, return_inverse=True)
    bound = np.array([float(bounds.lambda_value(c) * e if kind == "base"
                            else bounds.refined_bound(c, e, CHAIN.n, bounds.AS_STATED))
                      for e in distinct.tolist()])[which]
    fail = ~passes
    expected = list(zip(masks[fail].tolist(), e_in[fail].tolist(), e_out[fail].tolist(),
                        crossing[fail].tolist(), bound[fail].tolist()))
    got = [(v.bitmask, v.e_in, v.e_out, v.crossing, v.bound) for v in report.violations]
    assert got == expected
    positive = bound > 0
    assert report.worst_ratio == (crossing[positive] / bound[positive]).min()
    assert report.cuts_examined == len(masks)
    if kind == "base":
        # some failing (e_in, crossing) is met again in a later chunk
        pairs = {}
        for pair, h in zip(zip(e_in[fail].tolist(), crossing[fail].tolist()), chunk[fail]):
            pairs.setdefault(pair, set()).add(int(h))
        assert any(len(hs) > 1 for hs in pairs.values())


@pytest.mark.parametrize("n, part, trials, with_csv", [
    (17, partitions.near_pencil(17), None, False),  # two kernel chunks
    (17, partitions.near_pencil(17), None, True),
    (25, partitions.affine_plane(5), 200_000, False),  # four sampling chunks
], ids=["K17", "K17-csv", "affine5-sampled"])
def test_each_distinct_key_decoded_once(monkeypatch, n, part, trials, with_csv):
    # the verdicts, ratios and CSV text read one decode of each distinct key;
    # the last decode is the failing cuts'
    g = graphs.complete(n)
    decoded = []

    def record(graph, keys):
        decoded.append(np.array(keys))
        return _decode(graph, keys)

    monkeypatch.setattr(cuts, "_decode", record)
    sink = io.StringIO() if with_csv else None
    report = verify_bound(g, part, trials=trials, seed=3, csv=sink)
    *judged, final = decoded
    chunks = list(_exhaustive_keys(g) if trials is None else _sampled_keys(g, trials, 3))
    assert len(chunks) == (2 if trials is None else 4)
    judged = np.sort(np.concatenate(judged))
    assert np.array_equal(judged, np.unique(np.concatenate([k for _, k in chunks])))
    assert len(judged) < 2_500 and report.cuts_examined == sum(len(k) for _, k in chunks)
    assert len(final) == len(report.failing[0])
    if with_csv:
        assert sink.getvalue().count("\n") == report.cuts_examined + 1


def test_sparsity_argmin_matches_endpoint_counts():
    masks = all_masks(CHAIN.n)
    e_in, e_out, crossing = _endpoint_stats(CHAIN, masks)
    e_min = np.minimum(e_in, e_out)
    ratios = np.where(e_min > 0, crossing / np.maximum(e_min, 1), np.inf)
    first = int(np.argmin(ratios))
    profile = sparsity_profile(CHAIN)
    assert (profile.ratio, profile.bitmask) == (ratios[first], masks[first])


_MASK64 = (1 << 64) - 1


def _splitmix64(seed, i):
    """Output i (from 1) of SplitMix64 seeded with seed, in Python ints."""
    z = (seed + i * 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def test_splitmix64_reference_matches_published_outputs():
    # the first outputs of the reference splitmix64.c for seeds 0 and 1234567
    assert [_splitmix64(0, i) for i in (1, 2, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert _splitmix64(1234567, 1) == 6457827717110365317


@pytest.mark.parametrize("n", [2, 25, 62])
@pytest.mark.parametrize("seed", [0, 5])
def test_sample_stream_is_pinned(n, seed):
    # 70,000 samples: each chunk takes the next min(_CHUNK, still needed)
    # draws and keeps the masks 2r + 1 of those whose top n - 1 bits r are
    # not all ones, so past n = 2 the stream spans exactly two chunks
    want, drawn, done = [], 0, 0
    while done < 70_000:
        k = min(_CHUNK, 70_000 - done)
        tops = [_splitmix64(seed, i) >> 65 - n for i in range(drawn + 1, drawn + k + 1)]
        drawn += k
        chunk = [2 * r + 1 for r in tops if r != (1 << n - 1) - 1]
        if chunk:
            want.append(chunk)
            done += len(chunk)
    got = list(_sampled_masks(n, 70_000, seed))
    assert [len(m) for m in got] == [len(m) for m in want]
    assert all(m.dtype == np.int64 and m.tolist() == w for m, w in zip(got, want))
    assert n == 2 or len(got) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, _MASK64])
class TestSmallSampler:
    # the largest seed wraps seed + i·γ past 2^64: uint64 arrays wrap in
    # silence, where a numpy scalar would warn

    @pytest.mark.parametrize("trials", [1, 7, 70_000])
    def test_two_vertices_give_only_mask_one(self, seed, trials):
        # half the draws have r = 1, the all-ones mask 3, and are dropped
        chunks = list(_sampled_masks(2, trials, seed))
        assert all(m.dtype == np.int64 and 0 < len(m) <= _CHUNK for m in chunks)
        assert np.array_equal(np.concatenate(chunks), np.ones(trials, np.int64))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_canonical_cut_uniformly(self, seed, n):
        trials = 1 << 16
        masks = np.concatenate(list(_sampled_masks(n, trials, seed)))
        assert len(masks) == trials and masks.dtype == np.int64
        seen, counts = np.unique(masks, return_counts=True)
        # every odd mask but the all-ones one: never even, never all of V
        assert seen.tolist() == list(range(1, (1 << n) - 1, 2))
        p = 1 / ((1 << n - 1) - 1)
        assert np.all(np.abs(counts - trials * p) <= 6 * math.sqrt(trials * p * (1 - p)))


class TestSampledVerify:
    def test_subset_of_exhaustive(self):
        report = verify_bound(
            graphs.complete(5), partitions.near_pencil(5), trials=100, seed=1
        )
        assert report.mode == "sampled"
        assert report.cuts_examined == 100
        assert report.violations == ()

    def test_deterministic(self):
        a = verify_bound(BOWTIE_BRIDGE, partitions.all_pairs_partition(6),
                         trials=500, seed=9)
        b = verify_bound(BOWTIE_BRIDGE, partitions.all_pairs_partition(6),
                         trials=500, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_seed_range_is_one_64_bit_word(self):
        g, p = graphs.complete(5), partitions.trivial_partition(5)
        assert verify_bound(g, p, trials=5, seed=_MASK64).cuts_examined == 5
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, {_MASK64}\], got {1 << 64}$"):
            verify_bound(g, p, trials=5, seed=1 << 64)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_bound(graphs.complete(4), partitions.trivial_partition(4),
                         trials=0)

    def test_finds_known_violation_with_enough_trials(self):
        report = verify_bound(
            BOWTIE_BRIDGE, partitions.all_pairs_partition(6), trials=2000, seed=0
        )
        assert any(set(v.members) == {0, 1, 2} for v in report.violations)


class TestSparsityProfile:
    def test_k4(self):
        profile = sparsity_profile(graphs.complete(4))
        assert profile.ratio == pytest.approx(4.0)
        assert len(profile.members) == 2
        assert profile.bitmask == sum(1 << v for v in profile.members)

    def test_bowtie_bridge(self):
        profile = sparsity_profile(BOWTIE_BRIDGE)
        assert profile.ratio == pytest.approx(1 / 3)
        assert profile.members == (0, 1, 2)
        assert profile.bitmask == 0b000111

    def test_members_sorted_and_match_bitmask(self):
        for seed in range(6):
            g = graphs.random_gnp(9, 0.5, seed=seed)
            profile = sparsity_profile(g)
            assert profile.members == tuple(sorted(profile.members))
            assert profile.bitmask == sum(1 << v for v in profile.members)
            stats = graphs.cut_stats(g, profile.members)
            assert profile.ratio == stats.crossing / min(stats.e_in, stats.e_out)

    def test_star_unbounded(self):
        profile = sparsity_profile(graphs.star(5))
        assert profile.ratio is None
        assert profile.members is None and profile.bitmask is None


class TestFiedlerValue:
    def test_complete(self):
        assert fiedler_value(graphs.complete(4)) == pytest.approx(4.0, abs=1e-8)

    def test_disconnected_is_zero(self):
        g = graphs.from_edge_list(4, [(0, 1), (2, 3)])
        assert fiedler_value(g) == pytest.approx(0.0, abs=1e-8)

    def test_path_three(self):
        assert fiedler_value(graphs.path(3)) == pytest.approx(1.0, abs=1e-8)

    def test_connected_iff_positive(self):
        for seed in range(10):
            g = graphs.random_gnp(7, 0.35, seed=seed)
            components = _component_count(g)
            if components == 1:
                assert fiedler_value(g) > 1e-8
            else:
                assert fiedler_value(g) == pytest.approx(0.0, abs=1e-8)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            fiedler_value(graphs.empty(1))

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_numpy_spectrum(self, n):
        g = graphs.random_gnp(n, 0.3, seed=n)
        expected = np.linalg.eigvalsh(g.laplacian_matrix())[1]
        assert fiedler_value(g) == pytest.approx(expected, abs=1e-9)


def _component_count(g):
    seen = set()
    count = 0
    adjacency = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adjacency[v] - seen)
    return count


def test_report_serialization_round_trips():
    import json

    report = verify_bound(BOWTIE_BRIDGE, partitions.all_pairs_partition(6))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["violations"][0]["crossing"] == 1
    assert payload["cuts_examined"] == 31
    assert math.isfinite(payload["worst_ratio"])
