"""Benchmark for lexiconn: one workload per process, checked outputs, optional spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lex_query --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics with nothing patched:
ops_per_s, op_p50_ms, op_p99_ms, setup_s and peak_rss_mb, with fail_ratio
shown beside them. ``--trace 1`` runs one pass over the same inputs
untraced and one traced, reports per-layer calls and self time, and writes
the spans to .bench_out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The library is imported from src/ of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

SETUP_REPEATS = 11  # set-ups before the timed phase; the median is reported
MIN_PASSES = 3  # each operation is timed at least this often; its fastest time counts
EX_NO_SOURCES = 2

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import lexiconn anew, so module-level state (the harness memo) is empty."""
    for name in [n for n in sys.modules if n == "lexiconn" or n.startswith("lexiconn.")]:
        del sys.modules[name]
    lx = importlib.import_module("lexiconn")
    importlib.import_module("lexiconn.cli")
    return lx


def set_up(wl, seed: int, workdir: str, samples: list):
    """Import the library and build the inputs; appends the time taken."""
    gc.collect()
    start = time.perf_counter()
    lx = fresh_import()
    inputs = wl.setup(lx, seed, workdir)
    samples.append(time.perf_counter() - start)
    return lx, inputs


class Fastest:
    """Each operation's fastest latency over the passes so far, and the
    least time a pass spent outside its operations. As with timeit, slower
    repeats come from other processes on a shared machine, where a
    pure-Python loop swings by 10-25% over seconds, not from the program."""

    def __init__(self):
        self.per_op = None
        self.outside = float("inf")

    def add(self, run) -> None:
        lat = run.latencies
        self.per_op = list(lat) if self.per_op is None else list(map(min, self.per_op, lat))
        self.outside = min(self.outside, run.busy_s - sum(lat))
        run.latencies = None  # keeps memory flat however many passes run

    def pass_s(self) -> float:
        """One pass rebuilt from the fastest times."""
        return self.outside + sum(self.per_op)


def timed_phase(wl, lx, inputs, seed, workdir, seconds, setup_samples):
    """Whole passes until ``seconds`` have gone by, and at least MIN_PASSES."""
    passes = []
    fastest = Fastest()
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(lx, inputs))
        fastest.add(passes[-1])
        if len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            return lx, inputs, passes, fastest
        if wl.fresh_import_per_pass:
            # drop every hold on the previous import, memo and all, so it is freed
            passes[-1].live = lx = inputs = None
            lx, inputs = set_up(wl, seed, workdir, setup_samples)


def percentile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, golden=None) -> dict:
    """Run one workload and return its metrics, check results and notes."""
    wl = workloads.WORKLOADS[name](tiny)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    setup_samples: list = []
    try:
        for _ in range(SETUP_REPEATS):
            lx, inputs = set_up(wl, seed, workdir, setup_samples)
        if trace:
            return traced_run(wl, lx, inputs, seed, workdir)
        lx, inputs, passes, fastest = timed_phase(wl, lx, inputs, seed, workdir, seconds, setup_samples)
        checks = wl.check(lx, inputs, passes, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    per_op = fastest.per_op
    metrics = {
        "ops_per_s": len(per_op) / fastest.pass_s(),
        "op_p50_ms": percentile_ms(per_op, 50),
        "op_p99_ms": percentile_ms(per_op, 99),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "checks": checks,
        "extra": {"op_samples": len(per_op), "passes": len(passes), "setups": len(setup_samples)},
    }


def traced_run(wl, lx, inputs, seed, workdir) -> dict:
    """One untraced and then one traced pass over the same inputs."""
    start = time.perf_counter()
    wl.run_pass(lx, inputs)
    plain_s = time.perf_counter() - start
    if wl.fresh_import_per_pass:
        lx, inputs = set_up(wl, seed, workdir, [])
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    start = time.perf_counter()
    try:
        run = wl.run_pass(lx, inputs)
    finally:
        traced_s = time.perf_counter() - start
        uninstall()
    checks = wl.check(lx, inputs, [run], None)
    table = tracer.layer_table()
    metrics = {}
    for span, (calls, self_s) in table.items():
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")
    for span, key in (("lexprod.lex_k1_connectivity", "lexprod.fallback_ratio"),
                      ("lexprod.lex_super_connected", "lexprod.super_fallback_ratio")):
        calls = table[span][0]
        metrics[key] = (tracer.fallbacks[span] / calls if calls else 0.0, "ratio")
    pairs = wl.pairs_visited(inputs, run)
    metrics["harness.scans_per_pair"] = (table["cuts.scan_cuts"][0] / pairs if pairs else 0.0, "1/pair")
    shares = workloads.input_shares(wl.pairs(inputs))
    metrics["lexprod.edgeless_right_share"] = (shares["edgeless_right"], "ratio")
    metrics["harness.iso_repeat_share"] = (shares["iso_repeat"], "ratio")
    metrics["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
    extra = {"spans": len(tracer.start_ns), "plain_pass_s": plain_s, "traced_pass_s": traced_s, "tracer": tracer}
    return {"metrics": metrics, "checks": checks, "extra": extra}


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_golden(name: str):
    """Expected report digests for a workload, or None when it has none.
    verify_exhaustive has no seed, so its digests hold at every seed."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def run_one(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
    }
    golden = load_golden(args.workload) if not args.trace else None
    started = time.perf_counter()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden=golden)
    record["loadavg_end"] = os.getloadavg()
    record["wall_s"] = time.perf_counter() - started
    checks = result["checks"]
    extra = result["extra"]
    tracer = extra.pop("tracer", None)
    record.update(extra)
    record["golden_checked"] = golden is not None
    if tracer is not None:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.txt.gz")
        layers = {k: v[0] for k, v in result["metrics"].items()}
        tracer.write(path, {"run": record, "layers": layers})
        record["spans_file"] = os.path.relpath(path, ROOT)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    if "op_samples" in extra:
        print(f"  {'op_samples':<44} {extra['op_samples']:>14} operations, each the fastest of {extra['passes']} passes")
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} ratio ({checks.failed} of {checks.attempted} checks)")
    for note in checks.notes:
        print(f"  check failed: {note}")
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(result)))
    return 0


def result_line(result) -> dict:
    checks = result["checks"]
    return {
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lexiconn benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lexiconn", "__init__.py")):
        print(f"bench: no lexiconn sources under {SRC}", file=sys.stderr)
        return EX_NO_SOURCES
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
