"""cutcert benchmark: seeded CLI workloads, checked verdicts, timed and traced runs.

    python3 perfbench/run.py --workload bulk-verify --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seconds 42

Run from the repository root. One process calls `cutcert.cli.main(argv)`
in-process on input files it generates under perfbench/_work/ and removes
afterwards. `--trace 0` repeats untraced passes of the workload within
`--seconds` (at least one) and reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. The line
before it records the environment and every pass time. `--workload all`
runs every workload both ways, each in a fresh process, and prints a table.
"""
from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the run stays one busy process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 15
SINGLE_THREAD_NOTE = ("single-threaded run: no layer waits on another, "
                      "so no wait time is reported")


def set_up(name, seed, workdir):
    """Import cutcert afresh and write the inputs, SETUP_ROUNDS times.

    numpy is already loaded, so each round times cutcert's own import and
    the input generation; the median is setup_s.
    """
    times = []
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        for mod in [m for m in sys.modules if m == "cutcert" or m.startswith("cutcert.")]:
            del sys.modules[mod]
        start = time.perf_counter()
        cli = importlib.import_module("cutcert.cli")
        calls = workloads.build(name, seed, workdir)
        times.append(time.perf_counter() - start)
    package = sys.modules["cutcert"]
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise ImportError(f"cutcert loaded from {package.__file__}, not from {SRC}")
    return package, cli, calls, statistics.median(times)


def more_time(start, seconds, passes):
    """True while another pass of median length still ends within the window."""
    if not passes:
        return True
    return time.perf_counter() - start + statistics.median(passes) <= seconds


def run_pass(cli, calls):
    """Every call once; returns the wall time and (exit code, stdout, stderr).

    Each call starts from a collected heap, as a fresh CLI process would, so
    garbage left by the previous call is not collected on this call's time.
    The collection itself is not timed.
    """
    results = []
    wall = 0.0
    for call in calls:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(call.argv)
            except (Exception, SystemExit) as exc:  # a raising call counts as failed
                code = f"raised {type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        results.append((code, out.getvalue(), err.getvalue()))
    return wall, results


def digests(results):
    return [(code, hashlib.sha256(out.encode()).hexdigest()) for code, out, _ in results]


class Judge:
    """Counts attempts and failures.

    The first output of each distinct (exit code, stdout digest) per call is
    checked in full after timing ends; repeats share its verdict.
    """

    def __init__(self, calls):
        self.calls = calls
        self.seen = {}  # (call index, code, digest) -> [count, stdout, stderr]

    def record(self, results):
        for i, ((code, out, err), (_, digest)) in enumerate(zip(results, digests(results))):
            entry = self.seen.setdefault((i, code, digest), [0, out, err])
            entry[0] += 1

    def finish(self):
        attempted = failed = 0
        problems = []
        for (i, code, _), (count, out, err) in self.seen.items():
            attempted += count
            if isinstance(code, str):
                problem = code
            else:
                try:
                    problem = self.calls[i].check(code, out)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    problem = f"malformed output: {exc!r}"
            if problem:
                failed += count
                argv = " ".join(self.calls[i].argv)
                problems.append(f"{argv}: {problem} {err.strip()}".strip())
        return attempted, failed, problems


def timed_run(cli, calls, seconds):
    judge = Judge(calls)
    walls = []
    start = time.perf_counter()
    while more_time(start, seconds, walls):
        wall, results = run_pass(cli, calls)
        walls.append(wall)
        judge.record(results)
        del results  # not alive during the next pass, which peak RSS would count
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = judge.finish()
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "cuts_per_s": workloads.total_cuts(calls) / wall,
        "peak_rss_mb": peak_mb,
        "pass_ratio": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed, problems, {"walls": walls}


def traced_run(package, cli, calls, seconds):
    """Alternate untraced and traced passes; stdout must not change."""
    judge = Judge(calls)
    tracer = tracing.Tracer(package)
    plain, traced, per_pass, problems = [], [], [], []
    start = time.perf_counter()
    while more_time(start, seconds, [a + b for a, b in zip(plain, traced)]):
        wall, results = run_pass(cli, calls)
        plain.append(wall)
        judge.record(results)
        reference = digests(results)
        tracer.install()
        try:
            wall, results = run_pass(cli, calls)
        finally:
            tracer.uninstall()
        traced.append(wall)
        judge.record(results)
        if digests(results) != reference:
            problems.append("stdout differs between traced and untraced passes")
        spans = tracer.take()
        layer = tracing.layer_metrics(
            spans,
            sum(len(out.encode()) for _, out, _ in results),
            sum(1 for code, _, _ in results if code != 0),
        )
        problems += tracing.self_test(spans, layer, calls)
        per_pass.append(layer)
        del results, spans
    attempted, failed, check_problems = judge.finish()
    # counts repeat exactly; median_low keeps them integers
    metrics = {key: (statistics.median_low if isinstance(value, int) else statistics.median)(
        [p[key] for p in per_pass]) for key, value in per_pass[0].items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return (metrics, attempted, failed, check_problems + sorted(set(problems)),
            {"untraced_walls": plain, "traced_walls": traced, "note": SINGLE_THREAD_NOTE})


def commit():
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cutcert").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args):
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        package, cli, calls, setup_s = set_up(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, problems, detail = traced_run(
                package, cli, calls, args.seconds)
        else:
            metrics, attempted, failed, problems, detail = timed_run(cli, calls, args.seconds)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "calls": len(calls), "cuts_per_pass":
              workloads.total_cuts(calls), "failed_ratio": failed / attempted,
              "env": environment(), **detail}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics(args.trace)},
    }))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    correct = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            correct = correct and result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:32} {v['value']:>16.6g} {v['unit']}")
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cutcert" / "__init__.py").is_file():
        print(f"error: no cutcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
