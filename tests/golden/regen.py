"""Regenerate the golden corpus of CLI calls, tests/golden/calls.jsonl.

    PYTHONPATH=src python tests/golden/regen.py

Each call runs in-process through `cutcert.cli.main`. The corpus keeps one
JSON object per line: the argv, the exit code, the first line of stderr,
and stdout verbatim up to STDOUT_LIMIT characters, or else its sha256 and
length. Input files are written to a temporary directory, which argv and
output name `{tmp}`. A change that means to alter CLI output reruns this
script, so that the change shows in the corpus's diff.

`report --mode fiedler` is kept in human format only, which rounds to six
digits. Its JSON prints every digit of an eigenvalue, and the last ones can
differ between numpy/OpenBLAS builds (CI runs numpy 2.0 and the latest).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("calls.jsonl")
STDOUT_LIMIT = 2048
TMP = "{tmp}"

# six triangles 3i, 3i+1, 3i+2 in a chain, bridged by the edges (3i+2, 3i+3)
_CHAIN = [e for i in range(6) for e in ((3 * i, 3 * i + 1), (3 * i, 3 * i + 2),
                                         (3 * i + 1, 3 * i + 2))]
_CHAIN += [(3 * i + 2, 3 * i + 3) for i in range(5)]

FILES = {
    "bowtie.txt": "6 7\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n",
    "chain.txt": f"18 {len(_CHAIN)}\n" + "".join(f"{u} {v}\n" for u, v in _CHAIN),
    "two_edges.txt": "4 2\n0 1\n2 3\n",
    # under affine:3, blocks 3 = (0, 5, 7) and 10 = (3, 4, 5) are not small
    "two_edges_of_9.txt": "9 2\n0 5\n3 4\n",
    "bad_line.txt": "3 1\nx y\n",
    "self_loop.txt": "3 1\n1 1\n",
    "out_of_range.txt": "2 1\n0 5\n",
    "reversed_out_of_range.txt": "2 1\n5 0\n",
    "short_header.txt": "3\n0 1\n",
    "long_edge.txt": "3 1\n0 1 2\n",
    "short.txt": "3 2\n0 1\n",
    "no_header.txt": "",
    "near_pencil.blocks": "0 1 2 3\n0 4\n1 4\n2 4\n3 4\n",
    "uncovered.blocks": "0 1\n2 3\n",
    "undersized.blocks": "0 1 2\n3\n",
    "malformed.blocks": "0 1\nx\n",
    "block_out_of_range.blocks": "0 9\n",
}


def _file(name: str) -> str:
    return f"{TMP}/{name}"


def calls() -> list[list[str]]:
    """Every argv in the corpus, in corpus order."""
    out = []
    formats = ("json", "csv", "human")
    # exhaustive verifies, n <= 18
    for gen, part, kind, fmt in itertools.product(
            ("complete:5", "path:8", "star:6", "bipartite:3,4", "multipartite:2,2,2",
             "gnp:10,0.5,1"),
            ("trivial", "all-pairs", "near-pencil"), ("base", "refined"), formats):
        out.append(["verify", "--gen", gen, "--partition", part, "--bound", kind,
                    "--format", fmt])
    for source, part in ((["--gen", "complete:9"], "affine:3"),
                         (["--graph", _file("bowtie.txt")], "all-pairs"),
                         (["--graph", _file("two_edges.txt")], "trivial"),
                         (["--gen", "complete:5"], _file("near_pencil.blocks")),
                         (["--gen", "gnp:12,0.5,3"], "all-pairs")):
        out.extend(["verify", *source, "--partition", part, "--format", fmt] for fmt in formats)
    for gen, part in (("complete:5", "trivial"), ("path:8", "all-pairs"),
                      ("gnp:10,0.5,1", "near-pencil")):
        out.extend(["verify", "--gen", gen, "--partition", part, "--bound", kind,
                    "--variant", "tight", "--format", "json"] for kind in ("base", "refined"))
    out.extend(["verify", "--graph", _file("chain.txt"), "--partition", "all-pairs",
                "--bound", kind, "--format", "csv"] for kind in ("base", "refined"))
    out += [["verify", "--gen", "complete:16", "--partition", "near-pencil", "--format", "csv"],
            ["verify", "--gen", "complete:17", "--partition", "near-pencil", "--format", "csv"],
            ["verify", "--gen", "gnp:18,0.5,3", "--partition", "all-pairs", "--format", "csv"]]
    # sampled verifies
    for n in (12, 17, 25, 31, 33, 62):
        sample = ["--mode", "sample", "--trials", "3000", "--seed", str(n % 4)]
        out += [["verify", "--gen", f"complete:{n}", "--partition", "trivial", *sample,
                 "--format", "json"],
                ["verify", "--gen", f"complete:{n}", "--partition", "near-pencil", *sample,
                 "--format", "csv"],
                ["verify", "--gen", f"gnp:{n},0.5,1", "--partition", "all-pairs",
                 "--bound", "refined", *sample, "--format", "json"]]
    out += [["verify", "--gen", "complete:25", "--partition", "affine:5", "--mode", "sample",
             "--trials", "70000", "--seed", "3", "--format", "json"],
            ["verify", "--graph", _file("chain.txt"), "--partition", "all-pairs", "--mode",
             "sample", "--trials", "5000", "--seed", "2", "--format", "csv"],
            ["verify", "--gen", "complete:5", "--partition", "trivial", "--mode", "sample",
             "--format", "human"]]
    # sampled sweep over n = 2..62: generator, partition, format and bound kind
    # turn with n, so that every pair of any two of them occurs
    for n in range(2, 63):
        gen = (f"complete:{n}", f"gnp:{n},0.3,{n}", f"path:{n}",
               f"bipartite:{n // 2},{n - n // 2}")[n % 4]
        part = ("trivial", "all-pairs", "near-pencil")[(n + 1) % 3]
        kind = ("base", "refined")[n // 4 % 2]
        out.append(["verify", "--gen", gen, "--partition", part, "--bound", kind, "--mode",
                    "sample", "--trials", "400", "--seed", str(n % 7), "--format",
                    formats[n // 3 % 3]])
    # reports
    for gen, mode in itertools.product(
            ("complete:4", "star:5", "path:6", "empty:3", "empty:1", "bipartite:3,4",
             "gnp:8,0.5,2", "gnp:12,0.5,7", "complete:12"), ("sparsity", "identities")):
        out += [["report", "--gen", gen, "--mode", mode, "--format", fmt]
                for fmt in ("json", "human")]
    out += [["report", "--gen", gen, "--mode", "fiedler"]
            for gen in ("complete:4", "path:2", "path:5", "star:5", "bipartite:3,4",
                        "multipartite:2,2,2", "gnp:10,0.5,1", "gnp:12,0.5,3", "empty:3",
                        "empty:1")]
    out += [["report", "--gen", "path:4", "--mode", "sparsity", "--format", "csv"],
            ["report", "--graph", _file("bowtie.txt"), "--mode", "identities", "--format", "csv"]]
    # certify and validate
    for source in (["--gen", "star:5"], ["--gen", "complete:3"], ["--gen", "path:4"],
                   ["--gen", "empty:0"], ["--gen", "multipartite:1,2,3"],
                   ["--graph", _file("two_edges.txt")]):
        out.extend(["certify", *source, "--format", fmt] for fmt in formats)
    for blocks, n in (("near_pencil.blocks", 5), ("uncovered.blocks", 4),
                      ("undersized.blocks", 4)):
        out.extend(["validate", "--partition", _file(blocks), "--n", str(n), "--format", fmt]
                   for fmt in ("json", "csv"))
    # input errors (exit 2)
    for spec in ("star:", "star:3,1", "complete:", "complete:4,1", "path:4,1", "empty:",
                 "bipartite:2", "complete-bipartite:2,3,1", "multipartite:", "gnp:6,0.5",
                 "gnp:6,0.5,1,9", "gnp:4,,0.5,1", "star:5,", "complete:,5", "gnp:x,0.5,1",
                 "complete:1.5", "gnp:6,half,1", "moebius:3", "path:-1", "star:0",
                 "bipartite:0,2", "multipartite:2,0", "gnp:5,2,1",
                 "complete:99999999999999999999999", "empty:99999999999999999999999",
                 "star:99999999999999999999999", "path:99999999999999999999999",
                 "bipartite:99999999999999999999999,1", "multipartite:99999999999999999999999,1",
                 "gnp:99999999999999999999999,0.5,1"):
        out.append(["certify", "--gen", spec])
    for name in ("bad_line.txt", "self_loop.txt", "out_of_range.txt",
                 "reversed_out_of_range.txt", "short_header.txt", "long_edge.txt", "short.txt",
                 "no_header.txt", "missing.txt"):
        out.append(["certify", "--graph", _file(name)])
    # 2^127 - 1 is prime: the order cap comes before the primality test
    for part in ("affine:3", "affine:x", "affine:4",
                 "affine:170141183460469231731687303715884105727", _file("malformed.blocks"),
                 _file("block_out_of_range.blocks"), _file("undersized.blocks"),
                 _file("missing.blocks")):
        out.append(["verify", "--gen", "complete:5", "--partition", part, "--format", "csv"])
    for flags in (["--trials", "7"], ["--seed", "3"], ["--mode", "exhaustive", "--trials", "9"],
                  ["--mode", "sample", "--trials", "0"],
                  ["--mode", "sample", "--trials", "3", "--seed", "-1"]):
        out.extend(["verify", "--gen", "complete:5", "--partition", "trivial", *flags,
                    "--format", fmt] for fmt in ("csv", "json"))
    # the refined bound is inapplicable (exit 4) on a graph with no edges
    out.extend(["verify", "--gen", "empty:4", "--partition", "trivial", "--bound", "refined",
                "--format", fmt] for fmt in formats)
    # the first block that no c makes small is block 3, not block 0 (exit 4)
    out.extend(["verify", "--graph", _file("two_edges_of_9.txt"), "--partition", "affine:3",
                "--format", fmt] for fmt in ("json", "human"))
    out += [["verify", "--gen", "complete:27", "--partition", "trivial"],
            ["verify", "--gen", "gnp:27,0.5,1", "--partition", "trivial", "--format", "csv"],
            ["verify", "--gen", "complete:63", "--partition", "trivial", "--mode", "sample"],
            ["verify", "--gen", "empty:0", "--partition", "trivial"],
            ["verify", "--gen", "empty:1", "--partition", "trivial", "--mode", "sample"],
            # a seed is one 64-bit word: 2^64 is refused, not aliased to 0
            ["verify", "--gen", "complete:5", "--partition", "trivial", "--mode", "sample",
             "--seed", "18446744073709551616"],
            # refused before the 1,999,000-pair trivial partition is built
            ["verify", "--gen", "empty:2000", "--partition", "trivial"],
            ["verify", "--gen", "complete:5", "--partition", "trivial", "--variant", "as-stated",
             "--format", "csv"],
            ["report", "--gen", "complete:27", "--mode", "sparsity"],
            ["validate", "--partition", _file("near_pencil.blocks"), "--n", "-1"],
            ["validate", "--partition", _file("near_pencil.blocks"), "--n",
             "99999999999999999999999"],
            ["validate", "--partition", _file("malformed.blocks"), "--n", "4"]]
    return out


def write_files(root: Path) -> None:
    for name, text in FILES.items():
        (root / name).write_text(text)


def run(argv: list[str], root: Path) -> dict:
    """One corpus entry: the call's exit code and what it wrote, with the
    input directory's path written as {tmp}."""
    from cutcert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace(TMP, str(root)) for a in argv])
    stdout = out.getvalue().replace(str(root), TMP)
    entry = {"argv": argv, "exit": code,
             "stderr": err.getvalue().replace(str(root), TMP).split("\n")[0]}
    if len(stdout) <= STDOUT_LIMIT:
        entry["stdout"] = stdout
    else:
        entry["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        entry["stdout_len"] = len(stdout)
    return entry


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_files(root)
        entries = [run(argv, root) for argv in calls()]
    CORPUS.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    print(f"wrote {len(entries)} calls to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
