"""Benchmark of the entdist library and CLI.

    python3 bench/run.py --workload {repro,array_sweep,point_queries} \\
        --seed N --seconds S --trace {0,1}

run from the root of a checkout (``src/entdist`` is imported from there,
never from an installed copy).  Workloads are described in
``workloads.py`` and ``bench/README.md``.

With ``--trace 0`` the run measures set-up in fresh interpreters, then
repeats timed passes for about ``--seconds`` and prints the end-to-end
metrics.  With ``--trace 1`` it runs the same passes untraced and traced
(see ``tracer.py``) and prints the per-layer metrics instead.  Either
way every output is checked (golden digests, exact references), and the
last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one line of run details: the machine, the sample counts,
``error_rate`` and the first failure messages.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

WORKLOADS = ("repro", "array_sweep", "point_queries")
SETUP_PROBES = 5
# Passes a full-size run makes even past --seconds, so that its median
# is a median: one repro suite alone takes longer than a typical budget.
MIN_PASSES = {"repro": 3, "array_sweep": 2, "point_queries": 2}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Environment overrides the CLI honours; a stray value would change the workload.
STRIPPED_VARS = ("ENTDIST_GRID_POINTS", "ENTDIST_OUTDIR")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_us_p50": "us",
    "query_us_p99": "us",
    "peak_rss_mb": "MB",
}

# Layers whose calls, points and self time are reported, by suffix.
LAYER_FIELDS = {
    "decoder.build_lookup_table": ("self_s",),
    "decoder.logical_fidelity_polynomial": ("self_s",),
    "decoder.code_distance": ("self_s",),
    "decoder.eval_qec_map": ("calls", "points", "self_s"),
    "werner.distillable_entanglement": ("calls", "points", "self_s"),
    "werner.swap_fidelity_uniform": ("calls", "self_s"),
    "chain.run_chain": ("calls", "points", "self_s"),
    "efficiency.protocol_curves": ("self_s",),
    "efficiency.switching_points": ("self_s",),
    "efficiency.optimal_envelope": ("self_s",),
    "efficiency.efficiency_value": ("calls", "self_s"),
    "purify.run_rounds": ("calls", "self_s"),
    "purify.purify_step": ("calls",),
    "purify.twirl": ("calls",),
    "hybrid.pseudo_threshold": ("self_s",),
    "hybrid.checkpoint_scan": ("points", "self_s"),
    "hybrid.refined_efficiency": ("calls",),
    "hybrid.baseline_distillable": ("calls",),
    "hybrid.hybrid_run": ("calls", "self_s"),
    "hybrid.min_rounds_to_fidelity": ("calls", "self_s"),
    "_output.write_table": ("calls", "self_s"),
    "_output.format_cell": ("calls",),
    "cli.main": ("calls", "self_s"),
    "codes.validate_code": ("self_s",),
    "convergence.iterate": ("self_s",),
    "convergence.check_identities": ("self_s",),
}


def metric_name(layer: str, field: str) -> str:
    """Metric names may not start with ``_``: ``_output.x`` reports as ``output.x``."""
    return f"{layer.lstrip('_')}.{field}"


PER_LAYER = {metric_name(layer, f): ("s" if f == "self_s" else "count") for layer, fs in LAYER_FIELDS.items() for f in fs}
PER_LAYER.update(
    {
        "hybrid.purify_steps_per_point": "steps/point",
        "output.rows": "count",
        "output.bytes": "count",
        "output.mb_per_s": "MB/s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.layers_self_s": "s",
        "trace.outside_s": "s",
    }
)


def clean_environment() -> dict:
    """Strip entdist's overrides, cap BLAS/OpenMP threads at nproc and
    point PYTHONPATH at this checkout; children inherit the result."""
    nproc = len(os.sched_getaffinity(0))
    for var in STRIPPED_VARS:
        os.environ.pop(var, None)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/entdist``: identifies the code where git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "entdist").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def keep_going(walls, started: float, seconds: float, min_passes: int) -> bool:
    """Start another pass while it should still end inside the budget."""
    if len(walls) < min_passes:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def peak_rss_mb(maxrss_kib: int) -> float:
    return maxrss_kib * 1024 / 1e6


def setup_seconds(workload: str, env: dict, probes: int) -> list[float]:
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Scorer:
    """Counts attempted and failed ops as passes arrive, keeping only the
    first pass.  An op fails on an exception, on an output that differs
    from the first pass, or when the exact reference rejects the first
    pass's output (then every later pass that repeated it fails too)."""

    def __init__(self):
        self.first = None
        self.repeats: list[int] = []
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def _fail(self, p: int, j: int, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(f"pass {p} op {j}: {reason}")

    def add(self, p: int, ops) -> None:
        self.attempted += len(ops)
        if self.first is None:
            self.first = ops
            self.repeats = [0] * len(ops)
            return
        for j, op in enumerate(ops):
            if op.error is not None:
                self._fail(p, j, op.error)
            elif op.fingerprint != self.first[j].fingerprint:
                self._fail(p, j, "output differs from the first pass")
            else:
                self.repeats[j] += 1

    def finish(self, exact) -> tuple[int, int, list[str]]:
        for j, op in enumerate(self.first):
            if op.error is not None:
                self._fail(0, j, op.error)
            elif not exact[j]:
                self._fail(0, j, "disagrees with the exact reference", 1 + self.repeats[j])
        return self.attempted, self.failed, self.messages


# ---------------------------------------------------------------------------
# timed runs (--trace 0)
# ---------------------------------------------------------------------------

def timed_in_process(name, seed, seconds, tiny, env):
    import workloads
    from setup_probe import SETUP

    setup = setup_seconds(name, env, 1 if tiny else SETUP_PROBES)
    w = {"array_sweep": workloads.ArraySweep, "point_queries": workloads.PointQueries}[name](seed, tiny)
    SETUP[name]()
    scorer, walls, calls = Scorer(), [], []
    started = time.perf_counter()
    while keep_going(walls, started, seconds, 1 if tiny else MIN_PASSES[name]):
        caller = workloads.Caller()
        scorer.add(len(walls), w.run_pass(caller))
        walls.append(sum(caller.latencies))
        calls.append(caller.latencies)
    rss = peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    attempted, failed, messages = scorer.finish(w.verify(scorer.first))
    if name == "point_queries":
        # A query is one scalar call.  The host's speed swings by up to 2x
        # for seconds at a time, so each call's latency is its fastest over
        # the run's 140-200 passes: a slow spell does not move it, a slower
        # program does.  wall_s and the percentiles are taken over those.
        quiet = [min(c) for c in zip(*calls)]
        wall = math.fsum(quiet)
        queries = len(quiet)
        p50 = percentile(quiet, 50)
        p99 = percentile(quiet, 99)
    else:
        # a batch caller waits for the whole sweep: one query per pass
        wall = statistics.median(walls)
        queries, p50, p99 = 1, wall, wall
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": w.points_per_pass / wall,
        "queries_per_s": queries / wall,
        "query_us_p50": p50 * 1e6,
        "query_us_p99": p99 * 1e6,
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "query_samples": queries * len(walls),
        "points_per_pass": w.points_per_pass,
    }
    if name == "array_sweep":
        detail["input_array_bytes"] = w.x.nbytes  # vs the L2/L3 sizes in "machine"
        detail["call_median_s"] = dict(zip(w.call_labels, (statistics.median(c) for c in zip(*calls))))
    return metrics, attempted, failed, messages, detail


def timed_repro(seconds, tiny, env):
    import golden
    import workloads

    setup = setup_seconds("repro", env, 1 if tiny else SETUP_PROBES)
    repro = workloads.Repro(ROOT, env, WORKDIR)
    walls, rss, rows, messages = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while keep_going(walls, started, seconds, 1 if tiny else MIN_PASSES["repro"]):
        outdir = repro.outdir()
        wall, code, maxrss, tail = repro.run_subprocess(outdir)
        problems = repro.check(outdir, code)
        rows.append(golden.count_rows(outdir, repro.digests))
        shutil.rmtree(outdir)
        walls.append(wall)
        rss.append(maxrss / 1e6)
        attempted += repro.ops_per_pass
        failed += len(problems)
        messages.extend(problems[: 10 - len(messages)])
        if code != 0 and len(messages) < 10:
            messages.append(tail)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": statistics.median(rows) / wall,
        "queries_per_s": 1.0 / wall,
        # one query per pass, so each pass's percentiles are its wall time
        "query_us_p50": wall * 1e6,
        "query_us_p99": wall * 1e6,
        "peak_rss_mb": max(rss),
    }
    detail = {"setup_samples_s": setup, "pass_walls_s": walls, "query_samples": len(walls), "rows_per_pass": rows}
    return metrics, attempted, failed, messages, detail


# ---------------------------------------------------------------------------
# traced runs (--trace 1)
# ---------------------------------------------------------------------------

def _counters(tracer) -> dict:
    counts = dict(tracer.tallies)
    for layer in tracer.hot:
        counts[(layer, "calls")] = tracer.hot_calls(layer)
    counts[("hybrid.checkpoint_scan", "purify_steps")] = tracer.hot_calls(
        "purify.purify_step", under="hybrid.checkpoint_scan"
    )
    return counts


def layer_metrics(tracer, setup_block, pass_blocks, setup_counters, traced_wall, untraced_wall):
    """Per-layer metrics for one traced pass plus the traced set-up
    (pass totals are averaged over the traced passes), and the calls,
    inclusive and self seconds of every traced layer."""
    n = len(pass_blocks)
    totals: dict[str, dict[str, float]] = {}

    def add(block, weight):
        for layer, t in tracer.layer_totals(*block).items():
            acc = totals.setdefault(layer, {"calls": 0.0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += t[key] * weight

    if setup_block is not None:
        add(setup_block, 1.0)
    layers_self = 0.0
    for block in pass_blocks:
        add(block, 1.0 / n)
        # the block's first span is the pass root; everything else is program time
        first, last = block
        layers_self += sum(
            t["self_s"] for t in tracer.layer_totals(first + 1, last).values()
        ) / n
    end_counters = _counters(tracer)
    counters = {
        key: setup_counters.get(key, 0) + (value - setup_counters.get(key, 0)) / n
        for key, value in end_counters.items()
    }
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        for f in fields:
            if f == "self_s" or (f == "calls" and layer in totals):
                value = totals.get(layer, {}).get(f, 0.0)
            else:
                value = counters.get((layer, f), 0)
            metrics[metric_name(layer, f)] = round(value) if f != "self_s" else value
    scan_points = counters.get(("hybrid.checkpoint_scan", "points"), 0)
    steps = counters.get(("hybrid.checkpoint_scan", "purify_steps"), 0)
    writes = totals.get("_output.write_table", {}).get("incl_s", 0.0)
    out_bytes = counters.get(("_output.write_table", "bytes"), 0)
    metrics.update(
        {
            "hybrid.purify_steps_per_point": steps / scan_points if scan_points else 0.0,
            "output.rows": round(counters.get(("_output.write_table", "rows"), 0)),
            "output.bytes": round(out_bytes),
            "output.mb_per_s": out_bytes / 1e6 / writes if writes else 0.0,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.layers_self_s": layers_self,
            "trace.outside_s": traced_wall - layers_self,
        }
    )
    return metrics, totals


def traced_in_process(name, seed, seconds, tiny, env):
    import entdist.cli  # noqa: F401  (loads every module, so all are wrapped)
    import workloads
    from setup_probe import SETUP
    from tracer import Tracer

    w = {"array_sweep": workloads.ArraySweep, "point_queries": workloads.PointQueries}[name](seed, tiny)
    tracer = Tracer()
    with tracer, tracer.root("setup") as root:
        SETUP[name]()
    setup_block = (root.index, root.end_index)
    setup_counters = _counters(tracer)

    scorer, untraced, traced, blocks = Scorer(), [], [], []
    started = time.perf_counter()
    while keep_going(untraced, started, seconds / 2, 1):
        caller = workloads.Caller()
        scorer.add(len(untraced), w.run_pass(caller))
        untraced.append(sum(caller.latencies))
    started = time.perf_counter()
    while keep_going(traced, started, seconds / 2, 1):
        caller = workloads.Caller()
        with tracer, tracer.root("pass") as root:
            ops = w.run_pass(caller)
        scorer.add(len(untraced) + len(traced), ops)
        traced.append(sum(caller.latencies))
        blocks.append((root.index, root.end_index))
    attempted, failed, messages = scorer.finish(w.verify(scorer.first))
    metrics, layers = layer_metrics(
        tracer, setup_block, blocks, setup_counters, statistics.fmean(traced), statistics.fmean(untraced)
    )
    detail = {
        "untraced_pass_walls_s": untraced,
        "traced_pass_walls_s": traced,
        "spans": tracer.span_count(),
        "layers": layers,
    }
    return metrics, attempted, failed, messages, detail


def traced_repro(seconds, tiny, env):
    import workloads
    from tracer import Tracer

    repro = workloads.Repro(ROOT, env, WORKDIR)
    outdir = repro.outdir()
    untraced_wall, code, _, _ = repro.run_subprocess(outdir)
    problems = repro.check(outdir, code)
    shutil.rmtree(outdir)

    # Same suite in this process (which has not touched entdist yet, so
    # every cache is cold), with spans nesting under each step.
    outdir = repro.outdir()
    t0 = time.perf_counter()
    import entdist.cli

    tracer = Tracer()
    with tracer, tracer.root("pass") as root:
        try:
            code = entdist.cli.main(["repro", "--outdir", str(outdir)])
        except SystemExit as exc:  # a failing step aborts the suite
            code = exc.code if isinstance(exc.code, int) else 1
    traced_wall = time.perf_counter() - t0
    problems += repro.check(outdir, code)
    shutil.rmtree(outdir)

    metrics, layers = layer_metrics(tracer, None, [(root.index, root.end_index)], {}, traced_wall, untraced_wall)
    detail = {"untraced_wall_s": untraced_wall, "spans": tracer.span_count(), "layers": layers}
    return metrics, 2 * repro.ops_per_pass, len(problems), problems[:10], detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs and one pass, for the smoke test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "entdist" / "__init__.py").is_file():
        sys.stderr.write(f"error: no entdist sources under {SRC}; run from a full checkout\n")
        return 2
    env = clean_environment()
    import entdist

    if Path(entdist.__file__).resolve().parent != (SRC / "entdist").resolve():
        sys.stderr.write(f"error: imported entdist from {entdist.__file__}, not {SRC}\n")
        return 2

    WORKDIR.mkdir(exist_ok=True)
    tiny = args.size == "tiny"
    try:
        if args.trace:
            run = traced_repro if args.workload == "repro" else traced_in_process
            units = PER_LAYER
        else:
            run = timed_repro if args.workload == "repro" else timed_in_process
            units = END_TO_END
        run_args = (args.seconds, tiny, env) if args.workload == "repro" else (args.workload, args.seed, args.seconds, tiny, env)
        metrics, attempted, failed, messages, detail = run(*run_args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine(),
        "error_rate": failed / attempted,
        "failures": messages,
        **detail,
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
