import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcert import bounds, cli, cuts, graphs, partitions
from cutcert.cli import main
from cutcert.cuts import (
    _CHUNK,
    _LOW_BITS,
    _decode,
    _exhaustive_keys,
    _low_keys,
    _mask_keys,
    _sampled_masks,
)

BOWTIE_EDGES = "6 7\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n"
# six triangles 3i, 3i+1, 3i+2 in a chain, bridged by the edges (3i+2, 3i+3)
TRIANGLE_CHAIN = [e for i in range(6) for e in
                  ((3 * i, 3 * i + 1), (3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 2))]
TRIANGLE_CHAIN += [(3 * i + 2, 3 * i + 3) for i in range(5)]
NEAR_PENCIL_BLOCKS = "0 1 2 3\n0 4\n1 4\n2 4\n3 4\n"


def all_masks(n):
    """Every canonical cut's bitmask in ascending order: the odd masks below 2^n - 1."""
    return 1 | np.arange(max((1 << n) // 2 - 1, 0), dtype=np.int64) << 1


def endpoint_stats(g, masks):
    """(e_in, e_out, crossing) of each bitmask cut, counted from the edge endpoints."""
    bits = ((masks[:, None] >> np.arange(g.n)) & 1).astype(np.int8)
    u, v = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2).T
    ends = bits[:, u] + bits[:, v]
    return (ends == 2).sum(axis=1), (ends == 0).sum(axis=1), (ends == 1).sum(axis=1)


def kernel_stats(g, masks):
    """(e_in, e_out, crossing) of each bitmask cut, from the sampled-cut kernel."""
    return _decode(g, _mask_keys(g, masks, _low_keys(g, min(g.n, _LOW_BITS))))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "certify", "--gen", "star:5")
        assert code == 0
        assert "c_min = 0.500000" in out

    def test_triangle(self, capsys):
        code, out, _ = run(capsys, "certify", "--gen", "complete:3")
        assert code == 0
        assert "c_min = 0.666667" in out

    def test_not_small_graph_file(self, capsys, tmp_path):
        f = tmp_path / "two_edges.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, out, _ = run(capsys, "certify", "--graph", str(f))
        assert code == 3
        assert "not-small-for-any-c" in out
        assert "witness" in out

    def test_parse_error_reports_line(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 1\nx y\n")
        code, _, err = run(capsys, "certify", "--graph", str(f))
        assert code == 2
        assert "line 2" in err

    def test_bad_generator_spec(self, capsys):
        code, _, err = run(capsys, "certify", "--gen", "moebius:5")
        assert code == 2
        assert "moebius" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "certify", "--gen", "multipartite:3,3,3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "small"
        assert abs(payload["c_min"] - 2 / 3) < 1e-6

    def test_order_zero_graph_is_zero_small(self, capsys):
        code, out, err = run(capsys, "certify", "--gen", "empty:0", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out) == {"verdict": "small", "c_min": 0.0}


class TestValidate:
    def test_near_pencil_blocks(self, capsys, tmp_path):
        f = tmp_path / "blocks.txt"
        f.write_text(NEAR_PENCIL_BLOCKS)
        code, out, _ = run(capsys, "validate", "--partition", str(f), "--n", "5")
        assert code == 0
        assert "valid = True" in out

    def test_uncovered_pairs(self, capsys, tmp_path):
        f = tmp_path / "blocks.txt"
        f.write_text("0 1\n2 3\n")
        code, out, _ = run(capsys, "validate", "--partition", str(f), "--n", "4",
                           "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert len(payload["uncovered_pairs"]) == 4

    def test_undersized_block(self, capsys, tmp_path):
        f = tmp_path / "blocks.txt"
        f.write_text("0 1 2\n3\n0 3\n1 3\n2 3\n")
        code, out, _ = run(capsys, "validate", "--partition", str(f), "--n", "4",
                           "--format", "json")
        assert code == 3
        assert json.loads(out)["undersized_blocks"] == [[3]]

    def test_negative_ground_set_rejected(self, capsys, tmp_path):
        f = tmp_path / "blocks.txt"
        f.write_text("")
        code, out, err = run(capsys, "validate", "--partition", str(f), "--n", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        code, out, _ = run(capsys, "validate", "--partition", str(f), "--n", "0")
        assert code == 0
        assert "valid = True" in out

    def test_malformed_line(self, capsys, tmp_path):
        f = tmp_path / "blocks.txt"
        f.write_text("0 1 2\noops\n")
        code, _, err = run(capsys, "validate", "--partition", str(f), "--n", "3")
        assert code == 2
        assert "line 2" in err


class TestVerify:
    def test_k5_near_pencil(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "complete:5",
                           "--partition", "near-pencil", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_ratio"] >= 1.0
        assert payload["violations"] == []

    def test_bowtie_violation(self, capsys, tmp_path):
        f = tmp_path / "bowtie_bridge.txt"
        f.write_text(BOWTIE_EDGES)
        code, out, _ = run(capsys, "verify", "--graph", str(f),
                           "--partition", "all-pairs", "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["degree_dominance_ok"] is False
        assert any(v["cut"] == [0, 1, 2] for v in payload["violations"])

    def test_report_serialization_round_trips(self, capsys, tmp_path):
        f = tmp_path / "bowtie_bridge.txt"
        f.write_text(BOWTIE_EDGES)
        _, out, _ = run(capsys, "verify", "--graph", str(f),
                        "--partition", "all-pairs", "--format", "json")
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, allow_nan=False) + "\n" == out
        assert payload["violations"][0]["crossing"] == 1
        assert payload["cuts_examined"] == 31
        assert math.isfinite(payload["worst_ratio"])

    def test_refined_trivial(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "complete:5",
                           "--partition", "trivial", "--bound", "refined",
                           "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["c"] - 0.8) < 1e-6

    def test_inapplicable(self, capsys, tmp_path):
        f = tmp_path / "two_edges.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, out, _ = run(capsys, "verify", "--graph", str(f),
                           "--partition", "trivial", "--format", "json")
        assert code == 4
        assert json.loads(out)["applicable"] is False

    def test_affine_partition_size_mismatch(self, capsys):
        code, _, err = run(capsys, "verify", "--gen", "complete:5",
                           "--partition", "affine:3")
        assert code == 2
        assert err == "error: size mismatch: graph has 5 vertices, partition 9\n"

    def test_affine_partition(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "complete:9",
                           "--partition", "affine:3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"]["blocks"] == 12
        assert abs(payload["c"] - 2 / 3) < 1e-12
        assert payload["cuts_examined"] == 255
        assert payload["violations"] == []

    def test_blocks_file_partition(self, capsys, tmp_path):
        f = tmp_path / "blocks.txt"
        f.write_text(NEAR_PENCIL_BLOCKS)
        code, out, _ = run(capsys, "verify", "--gen", "complete:5",
                           "--partition", str(f), "--format", "json")
        assert code == 0
        assert json.loads(out)["partition"]["blocks"] == 5

    def test_sampled_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "complete:5",
                           "--partition", "near-pencil", "--mode", "sample",
                           "--trials", "50", "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "sampled"
        assert payload["cuts_examined"] == 50

    @pytest.mark.parametrize("flags, err", [
        (["--trials", "7"], "--trials and --seed need --mode sample"),
        (["--seed", "3"], "--trials and --seed need --mode sample"),
        (["--trials", "7", "--seed", "3"], "--trials and --seed need --mode sample"),
        (["--mode", "exhaustive", "--trials", "1000"], "--trials and --seed need --mode sample"),
        (["--mode", "sample", "--trials", "0"], "trials must be >= 1, got 0"),
        # rejected before the CSV header, not by the sampler once output began
        (["--mode", "sample", "--trials", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
        # --variant shapes only the refined bound
        (["--variant", "tight"], "--variant needs --bound refined"),
        (["--bound", "base", "--variant", "as-stated"], "--variant needs --bound refined"),
        # a SplitMix64 seed is one 64-bit word: 2^64 would alias 0
        (["--mode", "sample", "--seed", str(1 << 64)],
         f"seed must be in [0, {(1 << 64) - 1}], got {1 << 64}"),
    ])
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_rejected_sampling_flags(self, capsys, flags, err, fmt):
        code, out, got = run(capsys, "verify", "--gen", "complete:5",
                             "--partition", "trivial", *flags, "--format", fmt)
        assert code == 2 and out == ""
        assert got == f"error: {err}\n"

    @pytest.mark.parametrize("flags, examined, seed", [
        ([], 1000, 0), (["--trials", "7"], 7, 0), (["--seed", "3"], 1000, 3),
        (["--seed", str((1 << 64) - 1)], 1000, (1 << 64) - 1)])
    def test_sample_mode_defaults(self, capsys, flags, examined, seed):
        code, out, _ = run(capsys, "verify", "--gen", "complete:5", "--partition", "trivial",
                           "--mode", "sample", *flags, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["cuts_examined"], payload["trials"], payload["seed"]) == (
            examined, examined, seed)

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "complete:4",
                           "--partition", "trivial", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cut_bitmask,e_in,e_out,crossing,bound,pass"
        assert len(lines) == 8
        assert all(line.endswith(",pass") for line in lines[1:])

    @pytest.mark.parametrize("seed", [1, 4, 7])
    def test_csv_rows_match_independent_cut_stats(self, capsys, seed):
        # all-pairs blocks are single edges or non-edges: c = 1/2 when the
        # graph has an edge, and the base bound is 2(1-c)/(1+c) * e_min
        n = 8
        g = graphs.random_gnp(n, 0.5, seed)
        c = Fraction(1, 2) if g.m else Fraction(0)
        lam = 2 * (1 - c) / (1 + c)
        expected = ["cut_bitmask,e_in,e_out,crossing,bound,pass"]
        rest = range(1, n)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(rest, r) for r in range(n - 1))
        for mask, members in sorted((1 + sum(1 << v for v in sub), (0, *sub))
                                    for sub in subsets):
            stats = graphs.cut_stats(g, members)
            bound = lam * min(stats.e_in, stats.e_out)
            verdict = "pass" if stats.crossing >= bound else "fail"
            expected.append(f"{mask},{stats.e_in},{stats.e_out},{stats.crossing},"
                            f"{float(bound)!r},{verdict}")
        code, out, _ = run(capsys, "verify", "--gen", f"gnp:{n},0.5,{seed}",
                           "--partition", "all-pairs", "--format", "csv")
        assert out == "\n".join(expected) + "\n"
        assert code == (3 if "fail" in out else 0)

    def test_csv_inapplicable_prints_only_header(self, capsys, tmp_path):
        f = tmp_path / "two_edges.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, out, _ = run(capsys, "verify", "--graph", str(f),
                           "--partition", "trivial", "--format", "csv")
        assert code == 4
        assert out == "cut_bitmask,e_in,e_out,crossing,bound,pass\n"

    @pytest.mark.parametrize("gen", ["complete:27", "gnp:27,0.5,1"])
    def test_cap_holds_whatever_the_certificate(self, capsys, gen):
        # G(27, 1/2) is not small, so its bound is inapplicable; the cap
        # still comes first
        code, out, err = run(capsys, "verify", "--gen", gen, "--partition", "trivial")
        assert code == 2
        assert out == "" and "capped at n=26" in err

    @pytest.mark.parametrize("gen, flags, err", [
        ("empty:2000", [], "exhaustive enumeration capped at n=26"),
        ("empty:5000000", [], "exhaustive enumeration capped at n=26"),
        ("empty:63", ["--mode", "sample"], "sampled bitmask cuts support n <= 62"),
        ("empty:1", ["--mode", "sample"], "sampling needs n >= 2"),
        ("complete:5", ["--mode", "sample", "--trials", "0"], "trials must be >= 1"),
        ("complete:5", ["--mode", "sample", "--seed", "-1"], "seed must be >= 0"),
        # each family's order, known before any edge is built
        ("complete:2000", ["--mode", "sample"], "sampled bitmask cuts support n <= 62"),
        ("star:62", ["--mode", "sample"], "sampled bitmask cuts support n <= 62"),
        ("bipartite:30,33", ["--mode", "sample"], "sampled bitmask cuts support n <= 62"),
        ("gnp:63,0.5,1", ["--mode", "sample"], "sampled bitmask cuts support n <= 62"),
        ("star:26", [], "exhaustive enumeration capped at n=26; got n=27,"),
        ("complete-bipartite:13,14", [], "exhaustive enumeration capped at n=26; got n=27,"),
        ("multipartite:9,9,9", [], "exhaustive enumeration capped at n=26; got n=27,"),
        ("path:27", [], "exhaustive enumeration capped at n=26; got n=27,"),
        # an edge-list header in place of a spec: the file is read, then refused
        ("27 0", [], "exhaustive enumeration capped at n=26; got n=27,"),
        ("63 0", ["--mode", "sample"], "sampled bitmask cuts support n <= 62"),
    ])
    @pytest.mark.parametrize("partition", ["trivial", "all-pairs", "near-pencil", "affine:3",
                                           "blocks.txt"])
    def test_cut_request_refused_before_the_partition(self, capsys, monkeypatch, tmp_path, gen,
                                                      flags, err, partition):
        def unbuildable(*args):
            raise AssertionError("the graph or the partition was built")

        if ":" in gen:
            monkeypatch.setattr(graphs, "from_edge_list", unbuildable)
            source = ["--gen", gen]
        else:
            f = tmp_path / "g.txt"
            f.write_text(gen + "\n")
            source = ["--graph", str(f)]
        for name in ("trivial_partition", "all_pairs_partition", "near_pencil",
                     "affine_plane", "load_blocks"):
            monkeypatch.setattr(partitions, name, unbuildable)
        code, out, got = run(capsys, "verify", *source, "--partition", partition,
                             *flags, "--format", "csv")
        assert code == 2 and out == ""
        assert got.startswith(f"error: {err}") and got.count("\n") == 1, got

    def test_csv_rows_span_several_chunks(self, capsys):
        g = graphs.random_gnp(18, 0.5, 3)
        code, out, _ = run(capsys, "verify", "--gen", "gnp:18,0.5,3",
                           "--partition", "all-pairs", "--format", "csv")
        assert code in (0, 3)
        rows = np.array([line.split(",")[:4] for line in out.splitlines()[1:]], dtype=np.int64)
        masks = all_masks(18)
        expected = np.column_stack([masks, *endpoint_stats(g, masks)])
        assert np.array_equal(rows, expected)

    def test_sampled_csv_rows_span_several_chunks(self, capsys):
        trials, seed = 70_000, 5
        assert trials > _CHUNK
        g = graphs.random_gnp(20, 0.5, 3)
        code, out, _ = run(capsys, "verify", "--gen", "gnp:20,0.5,3",
                           "--partition", "all-pairs", "--mode", "sample",
                           "--trials", str(trials), "--seed", str(seed), "--format", "csv")
        assert code in (0, 3)
        rows = np.array([line.split(",")[:4] for line in out.splitlines()[1:]], dtype=np.int64)
        masks = np.concatenate(list(_sampled_masks(20, trials, seed)))
        expected = np.column_stack([masks, *endpoint_stats(g, masks)])
        assert len(rows) == trials
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("mode", [["--mode", "exhaustive"],
                                      ["--mode", "sample", "--trials", "70000", "--seed", "2"]])
    def test_csv_fail_rows_match_json_violations(self, capsys, tmp_path, mode):
        f = tmp_path / "chain.txt"
        f.write_text(f"18 {len(TRIANGLE_CHAIN)}\n"
                     + "".join(f"{u} {v}\n" for u, v in TRIANGLE_CHAIN))
        argv = ["verify", "--graph", str(f), "--partition", "all-pairs", *mode]
        csv_code, out, _ = run(capsys, *argv, "--format", "csv")
        json_code, payload, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(payload)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        failed = [int(row[0]) for row in rows if row[5] == "fail"]
        assert failed and csv_code == json_code == 3
        assert failed == [v["bitmask"] for v in payload["violations"]]
        assert len(rows) == payload["cuts_examined"]

    @pytest.mark.parametrize("graph, partition, kind, sample", [
        (graphs.from_edge_list(18, TRIANGLE_CHAIN), "all-pairs", "refined", None),
        (graphs.complete(17), "near-pencil", "base", None),
        (graphs.from_edge_list(18, TRIANGLE_CHAIN), "all-pairs", "base", (70_000, 4)),
    ], ids=["chain-refined", "K17-near-pencil", "chain-sampled"])
    def test_csv_bytes_match_row_oracle(self, capsys, tmp_path, graph, partition, kind, sample):
        f = tmp_path / "graph.txt"
        f.write_text(f"{graph.n} {graph.m}\n"
                     + "".join(f"{u} {v}\n" for u, v in sorted(graph.edges)))
        part = (partitions.all_pairs_partition(graph.n) if partition == "all-pairs"
                else partitions.near_pencil(graph.n))
        # the exact bound of each e as a Fraction, independently of the
        # verifier's table: its ceiling gives the verdict, its float the text
        c = partitions.partition_certificate(graph, part).c
        exact = [bounds.lambda_value(c) * e if kind == "base"
                 else bounds.refined_bound(c, e, graph.n) for e in range(graph.m // 2 + 1)]
        if sample:
            chunks = list(_sampled_masks(graph.n, *sample))
            mode = ["--mode", "sample", "--trials", str(sample[0]), "--seed", str(sample[1])]
        else:  # the verify path chunks an exhaustive run by its high bits
            assert len(list(_exhaustive_keys(graph))) > 1
            chunks = [all_masks(graph.n)]
            mode = []
        masks = np.concatenate(chunks)
        lines = ["cut_bitmask,e_in,e_out,crossing,bound,pass"]
        stats = endpoint_stats(graph, masks)
        for mask, e_in, e_out, crossing in zip(masks.tolist(), *(a.tolist() for a in stats)):
            e = min(e_in, e_out)
            bound = float(exact[e])
            verdict = "pass" if crossing >= math.ceil(exact[e]) else "fail"
            lines.append(f"{mask},{e_in},{e_out},{crossing},{bound!r},{verdict}")
        code, out, _ = run(capsys, "verify", "--graph", str(f), "--partition", partition,
                           "--bound", kind, *mode, "--format", "csv")
        # a line-wise comparison keeps a failure report short on megabytes of rows
        got, want = out.split("\n"), [*lines, ""]
        wrong = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert len(got) == len(want) and not wrong, wrong[:3]
        assert code == (3 if ",fail\n" in out else 0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_builds_no_violation(self, capsys, monkeypatch, fmt):
        class Unbuildable:
            def __init__(self, *fields):
                raise AssertionError("a Violation was built")

        monkeypatch.setattr(cuts, "Violation", Unbuildable)
        code, out, _ = run(capsys, "verify", "--gen", "path:8", "--partition", "all-pairs",
                           "--format", fmt)
        assert code == 3
        monkeypatch.undo()
        rows = io.StringIO()
        report = cuts.verify_bound(graphs.path(8), partitions.all_pairs_partition(8), csv=rows)
        failed = [line.split(",") for line in rows.getvalue().splitlines() if line.endswith(",fail")]
        assert len(failed) == 3
        assert report.violations == tuple(
            cuts.Violation(int(mask), int(e_in), int(e_out), int(crossing), float(bound))
            for mask, e_in, e_out, crossing, bound, _ in failed)

    def test_json_byte_identical(self, capsys):
        argv = ["verify", "--gen", "gnp:8,0.5,42", "--partition", "all-pairs",
                "--mode", "sample", "--trials", "200", "--seed", "11",
                "--format", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("shared_stderr", [True, False], ids=["shared", "separate"])
    def test_closed_output_pipe_exits_2(self, shared_stderr):
        # the reader takes the header and leaves, as `| head -1` does; with
        # stderr on the same pipe the error line meets the closed pipe too
        proc = subprocess.Popen(
            [sys.executable, "-m", "cutcert.cli", "verify", "--gen", "complete:20",
             "--partition", "near-pencil", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT if shared_stderr else subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        assert proc.stdout.readline() == b"cut_bitmask,e_in,e_out,crossing,bound,pass\n"
        proc.stdout.close()
        err = b"" if shared_stderr else proc.stderr.read()
        assert proc.wait(timeout=60) == 2
        if not shared_stderr:
            proc.stderr.close()
            assert err.startswith(b"error: ")
            assert b"Traceback" not in err and b"Exception ignored" not in err

    def test_sampled_verify_loads_no_numpy_random(self):
        # whether a bare `import numpy` loads numpy.random depends on the numpy
        # version; a sampled verify must not add it
        script = "\n".join([
            "import contextlib, io, sys",
            "import numpy",
            "bare = 'numpy.random' in sys.modules",
            "from cutcert import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = cli.main(['verify', '--gen', 'complete:25', '--partition', 'affine:5',",
            "                     '--mode', 'sample', '--format', 'json'])",
            "print(code, bare, 'numpy.random' in sys.modules)"])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        code, bare, after = proc.stdout.split()
        assert (code, after) == ("0", bare), proc.stderr


class TestReport:
    def test_fiedler(self, capsys):
        code, out, _ = run(capsys, "report", "--gen", "complete:4",
                           "--mode", "fiedler")
        assert code == 0
        assert "fiedler_value = 4.000000" in out

    def test_identities(self, capsys):
        code, out, _ = run(capsys, "report", "--gen", "path:3",
                           "--mode", "identities", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cuts_examined"] == 3
        assert max(payload["max_residuals"].values()) == 0

    def test_sparsity(self, capsys):
        code, out, _ = run(capsys, "report", "--gen", "complete:4",
                           "--mode", "sparsity", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_ratio"] == 4.0
        assert payload["argmin_bitmask"] % 2 == 1

    @pytest.mark.parametrize("g", [
        graphs.complete(18),
        # two K_9 joined by the edge (0, 8): the sparsest cut holds vertex 17
        graphs.from_edge_list(18, [
            *itertools.combinations([0, 1, 2, 3, 4, 5, 6, 7, 17], 2),
            *itertools.combinations(range(8, 17), 2), (0, 8)]),
    ])
    def test_sparsity_first_minimum_across_chunks(self, capsys, tmp_path, g):
        f = tmp_path / "graph.txt"
        f.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
        code, out, _ = run(capsys, "report", "--graph", str(f),
                           "--mode", "sparsity", "--format", "json")
        assert code == 0
        masks = all_masks(g.n)
        e_in, e_out, crossing = endpoint_stats(g, masks)
        e_min = np.minimum(e_in, e_out)
        ok = e_min > 0
        ratios = crossing[ok] / e_min[ok]
        best = masks[ok][ratios == ratios.min()]
        payload = json.loads(out)
        assert payload["min_ratio"] == ratios.min()
        assert payload["argmin_bitmask"] == best[0]
        assert payload["argmin_cut"] == [v for v in range(g.n) if best[0] >> v & 1]
        assert best[-1] >> 16  # the minimum is attained past the first chunk

    def test_sparsity_unbounded(self, capsys):
        code, out, _ = run(capsys, "report", "--gen", "star:5",
                           "--mode", "sparsity", "--format", "json")
        assert code == 0
        assert json.loads(out)["min_ratio"] is None


def test_generator_specs_cover_families(capsys):
    for spec, n in [("star:3", 4), ("complete:6", 6), ("path:4", 4),
                    ("empty:3", 3), ("bipartite:2,3", 5), ("complete-bipartite:1,4", 5),
                    ("multipartite:2,2,2", 6), ("gnp:10,0.5,42", 10), ("empty:0", 0)]:
        assert cli._parse_gen(spec)[0] == n  # the order verify checks before building
        code, out, _ = run(capsys, "report", "--gen", spec, "--mode", "sparsity",
                           "--format", "json")
        assert code == 0
        if n == 0:
            assert json.loads(out)["min_ratio"] is None


@pytest.mark.parametrize("spec", [
    "star:", "star:3,1", "complete:", "complete:4,1", "path:", "path:4,1",
    "empty:", "empty:4,1", "bipartite:2", "bipartite:2,3,1",
    "complete-bipartite:2", "complete-bipartite:2,3,1", "multipartite:",
    "gnp:6,0.5", "gnp:6,0.5,1,9",
    # an empty field is an argument too, not one to skip
    "gnp:4,,0.5,1", "star:5,", "complete:,5",
    # and each field must parse as its type
    "gnp:x,0.5,1", "complete:1.5", "gnp:6,half,1",
])
def test_generator_spec_takes_exactly_its_arguments(capsys, spec):
    code, out, err = run(capsys, "certify", "--gen", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: bad generator spec"), err


@pytest.mark.parametrize("argv, key", [
    (["certify", "--gen", "path:4"], "witness"),
    (["report", "--gen", "path:4", "--mode", "sparsity"], "argmin_cut"),
    (["validate", "--partition", "BLOCKS", "--n", "4"], "uncovered_pairs"),
])
def test_key_value_csv_quotes_list_values(capsys, tmp_path, argv, key):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("0 1\n2 3\n")
    argv = [str(blocks) if a == "BLOCKS" else a for a in argv]
    _, out, _ = run(capsys, *argv, "--format", "csv")
    _, payload, _ = run(capsys, *argv, "--format", "json")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows), out
    value = json.loads(payload)[key]
    assert len(value) > 1 and json.loads(dict(rows)[key]) == value


@pytest.mark.parametrize("spec", [
    f"{name}:{size}" for size in ("99999999999999999999999", "9223372036854775808")
    for name in ("complete", "empty", "path", "star")] + [
    "bipartite:99999999999999999999999,1", "complete-bipartite:1,99999999999999999999999",
    "multipartite:99999999999999999999999,1", "multipartite:2,9223372036854775806",
    "gnp:99999999999999999999999,0.5,1"])
def test_oversized_generator_exits_2(capsys, spec):
    # every family fails at from_edge_list's one vertex-count check, before
    # any pair is built
    code, out, err = run(capsys, "certify", "--gen", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: vertex count must be in [0, 9223372036854775807], got ")
    assert err.count("\n") == 1, err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # MemoryError carries no text of its own
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(graphs, "from_edge_list", exhausted)
    code, out, err = run(capsys, "certify", "--gen", "empty:5")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_gnp_spec_matches_library(capsys):
    code, out, _ = run(capsys, "certify", "--gen", "gnp:10,0.5,42",
                       "--format", "json")
    lib = graphs.random_gnp(10, 0.5, 42)
    assert code in (0, 3)


# ---------------------------------------------------------------------------
# Robustness: every CLI input ends in a documented exit code


EXIT_CODES = {0, 2, 3, 4}
FORMATS = st.sampled_from(["human", "json", "csv"])
SIZES = st.integers(0, 8)
GEN_SPECS = st.one_of(
    st.sampled_from(["empty:0", "star:0", "gnp:5,2,1", "complete:", "moebius:3",
                     "bipartite:0,2", "multipartite:", "path:-1", "gnp:4,0.5",
                     "gnp:6,0.5,1,9", "gnp:4,,0.5,1", "star:5,", "complete:,5",
                     "star:99999999999999999999999", "multipartite:99999999999999999999999,1"]),
    st.builds("star:{}".format, st.integers(0, 7)),
    st.builds("complete:{}".format, SIZES),
    st.builds("path:{}".format, SIZES),
    st.builds("empty:{}".format, SIZES),
    st.builds("bipartite:{},{}".format, st.integers(1, 4), st.integers(1, 4)),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda sizes: "multipartite:" + ",".join(map(str, sizes))),
    st.builds("gnp:{},{},{}".format, SIZES, st.sampled_from([0, 0.3, 0.5, 1]),
              st.integers(0, 50)),
)
PARTITIONS = st.one_of(st.sampled_from(["trivial", "all-pairs", "near-pencil"]),
                       st.sampled_from(["affine:2", "affine:3", "affine:x", "affine:4"]))

GRAPH_FILES = {
    "bowtie": BOWTIE_EDGES,
    "two_edges": "4 2\n0 1\n2 3\n",
    "k5": "5 10\n" + "".join(f"{u} {v}\n" for u, v in itertools.combinations(range(5), 2)),
    "order_zero": "0 0\n",
    "no_header": "",
    "self_loop": "3 1\n1 1\n",
    "out_of_range": "2 1\n0 5\n",
    "short": "3 2\n0 1\n",
}
BLOCK_FILES = {
    "near_pencil": NEAR_PENCIL_BLOCKS,
    "empty": "",
    "malformed": "0 1\nx\n",
    "out_of_range": "0 9\n",
    "undersized": "0 1 2\n3\n",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("robustness")
    paths = {}
    for kind, table in (("graph", GRAPH_FILES), ("blocks", BLOCK_FILES)):
        for name, text in table.items():
            path = root / f"{kind}_{name}.txt"
            path.write_text(text)
            paths[kind, name] = str(path)
    return paths


@st.composite
def cli_calls(draw, paths):
    def source():
        if draw(st.integers(0, 3)):
            return ["--gen", draw(GEN_SPECS)]
        return ["--graph", paths["graph", draw(st.sampled_from(sorted(GRAPH_FILES)))]]

    def partition():
        if draw(st.integers(0, 3)):
            return draw(PARTITIONS)
        return paths["blocks", draw(st.sampled_from(sorted(BLOCK_FILES)))]

    command = draw(st.sampled_from(["certify", "validate", "verify", "report"]))
    fmt = ["--format", draw(FORMATS)]
    if command == "certify":
        return ["certify", *source(), *fmt]
    if command == "validate":
        blocks = paths["blocks", draw(st.sampled_from(sorted(BLOCK_FILES)))]
        return ["validate", "--partition", blocks, "--n", str(draw(st.integers(-1, 8))), *fmt]
    if command == "report":
        mode = draw(st.sampled_from(["identities", "sparsity", "fiedler"]))
        return ["report", *source(), "--mode", mode, *fmt]
    argv = ["verify", *source(), "--partition", partition(),
            "--bound", draw(st.sampled_from(["base", "refined"])),
            *draw(st.sampled_from([[], ["--variant", "as-stated"], ["--variant", "tight"]])),
            *fmt]
    if draw(st.booleans()):
        argv += ["--mode", "sample", "--trials", str(draw(st.integers(-1, 40))),
                 "--seed", str(draw(st.integers(0, 3)))]
    elif draw(st.booleans()):  # a sampling flag without --mode sample
        argv += [draw(st.sampled_from(["--trials", "--seed"])), str(draw(st.integers(-1, 40)))]
    return argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_input_ends_in_a_documented_exit_code(files, data):
    argv = data.draw(cli_calls(files))
    code, out, err = _call(argv)
    fmt = argv[argv.index("--format") + 1]
    assert code in EXIT_CODES, (argv, code, err)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, out, err)
    elif fmt == "json":
        json.loads(out)
    elif fmt == "csv" and argv[0] != "verify":
        assert all(len(row) == 2 for row in csv.reader(io.StringIO(out))), (argv, out)
    assert _call(argv) == (code, out, err), argv
