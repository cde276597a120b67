"""Command-line front end.

Subcommands:
  certify   minimal smallness constant of a graph (or a no-finite-c witness)
  validate  audit a blocks file against the 2-partition conditions
  verify    check the cut lower bound over all (or sampled) cuts
  report    identity residuals, sparsity profile, or Fiedler value

Exit codes: 0 success / bound holds, 2 input error, 3 negative finding
(violation, invalid partition, not small), 4 bound inapplicable.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import bounds, cuts, graphs, partitions, smallness

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_INAPPLICABLE = 4


class CliInputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sources


# generator name: (builder, argument types, vertex count from the arguments);
# a trailing ... means one or more arguments of the type before it
_GENERATORS = {
    "star": (graphs.star, (int,), lambda k: k + 1),
    "complete": (graphs.complete, (int,), lambda n: n),
    "path": (graphs.path, (int,), lambda n: n),
    "empty": (graphs.empty, (int,), lambda n: n),
    "bipartite": (graphs.complete_bipartite, (int, int), lambda a, b: a + b),
    "complete-bipartite": (graphs.complete_bipartite, (int, int), lambda a, b: a + b),
    "multipartite": (lambda *sizes: graphs.complete_multipartite(sizes), (int, ...),
                     lambda *sizes: sum(sizes)),
    "gnp": (graphs.random_gnp, (int, float, int), lambda n, p, seed: n),
}


def _parse_gen(spec: str):
    """(order, build) of a generator spec: its vertex count, known before any
    edge is built, and a call that builds the graph."""
    name, _, argstr = spec.partition(":")
    if name not in _GENERATORS:
        raise CliInputError(f"unknown generator {name!r} in spec {spec!r}")
    builder, types, order = _GENERATORS[name]
    args = argstr.split(",") if argstr else []
    usage = ",".join("..." if t is ... else t.__name__ for t in types)
    if types[-1] is ...:
        types = types[:-1] * max(len(args), 1)
    if len(args) != len(types):
        raise CliInputError(f"bad generator spec {spec!r}: expected {name}:{usage}")
    try:
        values = [kind(a) for kind, a in zip(types, args)]
    except ValueError as exc:
        raise CliInputError(f"bad generator spec {spec!r}: {exc}")
    return order(*values), lambda: builder(*values)


def _graph_source(args):
    """(order, build) of either graph flag; a --graph file is read here."""
    if args.graph:
        graph = graphs.load_edge_list(args.graph)
        return graph.n, lambda: graph
    return _parse_gen(args.gen)


def _resolve_partition(spec: str, n: int) -> partitions.PairPartition:
    if spec == "trivial":
        return partitions.trivial_partition(n)
    if spec == "all-pairs":
        return partitions.all_pairs_partition(n)
    if spec == "near-pencil":
        return partitions.near_pencil(n)
    if spec.startswith("affine:"):
        return partitions.affine_plane(int(spec.split(":", 1)[1]))
    return partitions.load_blocks(spec, n)


# ---------------------------------------------------------------------------
# Output


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows((key, str(value)) for key, value in _flatten(payload))
        return
    for key, value in _flatten(payload):
        print(f"{key} = {_round6(value)}")


def _flatten(payload, prefix=""):
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        else:
            yield name, value


def _round6(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, list):
        return "[" + ", ".join(str(_round6(v)) for v in value) + "]"
    return value


# ---------------------------------------------------------------------------
# Subcommands


def cmd_certify(args) -> int:
    cert = smallness.minimal_c(_graph_source(args)[1]())
    if cert.small:
        payload = {"verdict": "small", "c_min": float(cert.c_min)}
    else:
        payload = {"verdict": "not-small-for-any-c",
                   "witness": [float(w) for w in cert.witness]}
    _emit(payload, args.format)
    return EXIT_OK if cert.small else EXIT_NEGATIVE


def cmd_validate(args) -> int:
    with open(args.partition) as fh:
        blocks = partitions.parse_block_lines(fh.read())
    report = partitions.validate(args.n, blocks)
    payload = {
        "valid": report.valid,
        "undersized_blocks": [list(b) for b in report.undersized_blocks],
        "uncovered_pairs": [list(p) for p in report.uncovered_pairs],
        "multiply_covered_pairs": [list(p) for p in report.multiply_covered_pairs],
    }
    _emit(payload, args.format)
    return EXIT_OK if report.valid else EXIT_NEGATIVE


def _resolve_sampling(args) -> tuple[int | None, int]:
    """verify_bound's trials and seed, which only --mode sample sets."""
    if args.mode == "sample":
        return (1000 if args.trials is None else args.trials,
                0 if args.seed is None else args.seed)
    if args.trials is not None or args.seed is not None:
        raise CliInputError("--trials and --seed need --mode sample")
    return None, 0


def cmd_verify(args) -> int:
    trials, seed = _resolve_sampling(args)
    if args.variant is not None and args.bound != cuts.KIND_REFINED:
        raise CliInputError("--variant needs --bound refined")
    order, build = _graph_source(args)
    cuts._check_cut_request(order, trials, seed)  # before any edge or block is built
    graph = build()
    partition = _resolve_partition(args.partition, graph.n)
    csv_out = sys.stdout if args.format == "csv" else None
    report = cuts.verify_bound(graph, partition, kind=args.bound,
                               variant=args.variant or bounds.AS_STATED,
                               trials=trials, seed=seed, csv=csv_out)
    if csv_out is None:
        _emit(report.to_dict(), args.format)
    if not report.applicable:
        return EXIT_INAPPLICABLE
    return EXIT_OK if not len(report.failing[0]) else EXIT_NEGATIVE


def cmd_report(args) -> int:
    graph = _graph_source(args)[1]()
    if args.mode == "fiedler":
        payload = {"fiedler_value": cuts.fiedler_value(graph)}
    elif args.mode == "sparsity":
        profile = cuts.sparsity_profile(graph)
        payload = {
            "min_ratio": profile.ratio,
            "argmin_cut": list(profile.members) if profile.members is not None else None,
            "argmin_bitmask": profile.bitmask,
        }
    else:
        # identities over all cuts, folded by position in IDENTITY_NAMES order
        worst = [0.0] * len(bounds.IDENTITY_NAMES)
        examined = 0
        for S in cuts.enumerate_cuts(graph):
            worst = list(map(max, worst, bounds.identity_suite(graph, S).values()))
            examined += 1
        payload = {"cuts_examined": examined,
                   "max_residuals": dict(zip(bounds.IDENTITY_NAMES, worst))}
    _emit(payload, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_graph_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="edge-list file ('n m' header, 'u v' lines)")
    group.add_argument("--gen", help="generator spec, e.g. star:5 or gnp:10,0.5,42")


def _add_common(parser):
    parser.add_argument("--format", choices=("human", "json", "csv"), default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="minimal smallness constant of a graph")
    _add_graph_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("validate", help="audit a blocks file")
    p.add_argument("--partition", required=True, help="blocks file")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="check the cut lower bound")
    _add_graph_source(p)
    p.add_argument("--partition", required=True,
                   help="blocks file or trivial|all-pairs|near-pencil|affine:q")
    p.add_argument("--bound", choices=(cuts.KIND_BASE, cuts.KIND_REFINED),
                   default=cuts.KIND_BASE)
    p.add_argument("--variant", choices=(bounds.AS_STATED, bounds.TIGHT),
                   help="refined bound variant (default as-stated); needs --bound refined")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--trials", type=int, help="sampled cuts (default 1000); needs --mode sample")
    p.add_argument("--seed", type=int, help="sampling seed (default 0); needs --mode sample")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="identity residuals / sparsity / Fiedler value")
    _add_graph_source(p)
    p.add_argument("--mode", choices=("identities", "sparsity", "fiedler"),
                   default="identities")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull so that the final
        # flush stays quiet, and tell stderr only if it still takes a line
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        return EXIT_INPUT
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
