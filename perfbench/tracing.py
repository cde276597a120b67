"""Spans around every public function of each cutcert module, from outside.

`Tracer.install` wraps each public function of the seven modules and
rebinds every module-level name that refers to it, so a call is traced
wherever the name is looked up (`cuts.partition_certificate` as well as
`partitions.partition_certificate`). Spans (name, start, end, parent) stay in
memory and are reduced to the per-layer metrics after each pass.
"""
from __future__ import annotations

import functools
import inspect
import time

import numpy as np

LAYERS = ("graphs", "linalg", "smallness", "partitions", "bounds", "cuts", "cli")
GRAPH_METHODS = ("adjacency_matrix", "laplacian_matrix", "induced_subgraph", "relabel")
VERIFY = ("cuts.verify_bound", "cuts.sample_cuts_verify")

# What a span keeps from its call besides the times.
NOTES = {
    "cuts.verify_bound": lambda args, result: (result.cuts_examined, len(result.violations)),
    "cuts.sample_cuts_verify": lambda args, result: (result.cuts_examined, len(result.violations)),
    "smallness.minimal_c": lambda args, result: bool(result.small),
    "linalg.eigen_all": lambda args, result: int(np.shape(args[0])[0]),
}

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """One span per resumption; the note marks resumptions that yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span[NOTE] = True
                yield item

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        graph_cls = self.package.graphs.Graph
        for attr in GRAPH_METHODS:
            self._set(graph_cls, attr, self._wrap(f"graphs.{attr}", vars(graph_cls)[attr]))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics


def _ancestor_named(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, stdout_bytes, nonzero_exits):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls, total, own = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[i]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def self_of(*names):
        return sum(own.get(x, 0.0) for x in names)

    verify_notes = [s[NOTE] for s in spans if s[NAME] in VERIFY]
    examined = sum(e for e, _ in verify_notes)
    verify_self = self_of(*VERIFY)
    minimal_c = [s[NOTE] for s in spans if s[NAME] == "smallness.minimal_c"]
    probes = sum(1 for i, s in enumerate(spans)
                 if s[NAME] == "linalg.is_psd"
                 and _ancestor_named(spans, i, "smallness.minimal_c_matrix"))
    orders = [s[NOTE] for s in spans if s[NAME] == "linalg.eigen_all"]
    certified = sum(1 for s in spans if s[NAME] == "smallness.minimal_c"
                    and s[PARENT] >= 0
                    and spans[s[PARENT]][NAME] == "partitions.partition_certificate")
    cli_self = sum(v for k, v in own.items() if k.startswith("cli."))
    return {
        "cuts.verify_self_s": verify_self,
        "cuts.cuts_examined": examined,
        "cuts.kernel_cuts_per_s": examined / verify_self if verify_self > 0 else 0.0,
        "cuts.violations": sum(v for _, v in verify_notes),
        "cuts.enumerate_yields": sum(1 for s in spans
                                     if s[NAME] == "cuts.enumerate_cuts" and s[NOTE]),
        "cuts.sparsity_s": t("cuts.sparsity_profile"),
        "smallness.minimal_c_calls": len(minimal_c),
        "smallness.minimal_c_self_s": self_of("smallness.minimal_c", "smallness.minimal_c_matrix"),
        "smallness.psd_probes": probes,
        "smallness.probes_per_call": probes / len(minimal_c) if minimal_c else 0.0,
        "smallness.not_small": sum(1 for small in minimal_c if not small),
        "linalg.eigen_calls": len(orders),
        "linalg.eigen_s": t("linalg.eigen_all"),
        "linalg.eigen_order_mean": float(np.mean(orders)) if orders else 0.0,
        "partitions.load_s": t("partitions.load_blocks"),
        "partitions.certificate_self_s": self_of("partitions.partition_certificate"),
        "partitions.blocks_certified": certified,
        "partitions.dominance_s": t("partitions.replication_degree_check"),
        "bounds.identity_calls": n("bounds.identity_suite"),
        "bounds.identity_self_s": self_of("bounds.identity_suite"),
        "graphs.cut_stats_calls": n("graphs.cut_stats"),
        "graphs.cut_stats_s": t("graphs.cut_stats"),
        "graphs.matrix_builds": n("graphs.adjacency_matrix") + n("graphs.laplacian_matrix"),
        "graphs.build_s": t("graphs.load_edge_list"),
        "cli.self_s": cli_self,
        "cli.stdout_bytes": stdout_bytes,
        "cli.exit_codes": nonzero_exits,
    }


def self_test(spans, metrics, calls):
    """Span counts that the workload's structure fixes; returns the mismatches."""
    want = {
        "cli.main spans": (sum(1 for s in spans if s[NAME] == "cli.main"), len(calls)),
        "verify spans": (sum(1 for s in spans if s[NAME] in VERIFY),
                         sum(1 for c in calls if c.command == "verify")),
        "blocks certified": (metrics["partitions.blocks_certified"], sum(c.blocks for c in calls)),
        "minimal_c calls": (metrics["smallness.minimal_c_calls"],
                            sum(c.blocks for c in calls)
                            + sum(1 for c in calls if c.command == "certify")),
        "cuts examined": (metrics["cuts.cuts_examined"],
                          sum(c.cuts for c in calls if c.command == "verify")),
        "identity_suite calls": (metrics["bounds.identity_calls"],
                                 sum(c.identity_cuts for c in calls)),
        "cut_stats calls": (metrics["graphs.cut_stats_calls"], sum(c.identity_cuts for c in calls)),
        "enumerate_cuts yields": (metrics["cuts.enumerate_yields"],
                                  sum(c.identity_cuts for c in calls)),
    }
    problems = [f"{what}: {got} != {exp}" for what, (got, exp) in want.items() if got != exp]
    for s in spans:
        if s[END] < s[START] or (s[PARENT] >= 0 and not (
                spans[s[PARENT]][START] <= s[START] and s[END] <= spans[s[PARENT]][END])):
            problems.append(f"span {s[NAME]} is not nested in its parent")
            break
    return problems
