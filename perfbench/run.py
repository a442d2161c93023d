"""Benchmark for tcm: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload project --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it are the run record.  README.md in this
directory describes the workloads and the metrics.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import numpy as np

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("project", "identities", "cli")

# Runs take at least this many passes, so that every run has enough ops for
# its tail percentile; a traced run takes twice as many (half untraced).
MIN_PASSES = {"project": 3, "identities": 3, "cli": 4}
# Set-up is measured in fresh processes, a few before each pass, so that the
# median spans the whole run rather than one moment of host load.
SETUP_SPAWNS = 10
SPAWNS_PER_PASS = 2
SENTINEL_REPS = 5


class SetupError(Exception):
    """The checkout cannot run the benchmark (no tcm sources, bad environment)."""


def load_tcm():
    """Import tcm from this checkout's ``src``, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "tcm", "__init__.py")):
        raise SetupError(f"no tcm package under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import tcm
    import tcm.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(tcm.__file__))) != SRC:
        raise SetupError(f"imported tcm from {tcm.__file__}, not from {SRC}")
    return tcm


# ---------------------------------------------------------------------------
# run record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    """BLAS name and version from numpy's build info, and its thread count."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        name = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, "unknown"


def drift_sentinel_ms():
    """Median time of a fixed pure-Python loop: a probe for host contention."""
    times = []
    for _ in range(SENTINEL_REPS):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1000 * median(times)


def print_record(args):
    blas, threads = _blas()
    print(f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# host: nproc={os.cpu_count()} cpu={_cpu_model()!r} python={platform.python_version()} "
          f"numpy={np.__version__} blas={blas!r} blas_threads={threads}")
    print("# loadavg_before: " + " ".join(f"{x:.2f}" for x in os.getloadavg()))


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, tiny):
    """Body of one set-up child: import tcm, fill the basis cache, say ready."""
    tcm = load_tcm()
    for n in workloads.basis_sizes(workload, tiny):
        tcm.basis(n)
    print("ready", flush=True)


def measure_setup(workload, tiny, env):
    """Set-up time of one fresh process.

    Library workloads: process start until tcm is imported and the basis
    cache holds the workload's sizes.  ``cli``: a whole ``python -m tcm
    --help`` run.
    """
    if workload == "cli":
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tcm", "--help"], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"tcm --help exited with {proc.returncode}: {proc.stderr.decode()[-500:]}")
        return elapsed
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", workload]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise SetupError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(values, pct):
    s = sorted(values)
    return s[max(0, math.ceil(pct * len(s) / 100) - 1)]


def tail_percentile(count):
    """Highest whole percentile with at least 10 of ``count`` samples beyond it (50 at least)."""
    for pct in range(99, 50, -1):
        if count - math.ceil(pct * count / 100) >= 10:
            return pct
    return 50


# ---------------------------------------------------------------------------
# the measured loop


class Runner:
    """Runs passes of one workload and keeps every op's time and verdict."""

    def __init__(self, lib, workload, rng, tiny, cli):
        self.workload = workload
        self.rng = rng
        self.lib = lib
        self.tiny = tiny
        self.cli = cli
        self.passes = []  # per pass: {"traced", "times", "failed", "minflt", "in", "out"}

    def pass_ops(self):
        if self.workload == "project":
            return workloads.project_pass(self.lib, self.rng, self.tiny)
        if self.workload == "identities":
            return workloads.identities_pass(self.lib, self.rng, self.tiny)
        return self.cli.pass_ops()

    def run_pass(self, tracer=None):
        record = {"traced": tracer is not None, "times": [], "failed": [], "minflt": 0}
        if self.cli is not None:
            self.cli.input_bytes = self.cli.output_bytes = 0
        for op in self.pass_ops():
            if tracer is not None:
                tracer.op_id = len(tracer.spans)
                tracer.active = True
                tracer.begin(f"op {op.label}")
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            try:
                result, raised = op.run(), None
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                result, raised = None, exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                record["minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
                tracer.end()
                tracer.active = False
            record["times"].append(elapsed)
            if raised is not None or not self._check(op, result):
                why = f"raised {raised!r}" if raised is not None else "failed its check"
                print(f"# FAILED op {op.label!r}: {why}", file=sys.stderr)
                record["failed"].append(op.label)
        if self.cli is not None:
            record["in"], record["out"] = self.cli.input_bytes, self.cli.output_bytes
        self.passes.append(record)

    @staticmethod
    def _check(op, result):
        try:
            return bool(op.check(result))
        except Exception as exc:  # a check that raises is a failed check
            print(f"# check of {op.label!r} raised {exc!r}", file=sys.stderr)
            return False


def run_workload(args, lib):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for n in workloads.basis_sizes(args.workload, args.tiny):
        lib.basis(n)

    min_passes = 1 if args.tiny else MIN_PASSES[args.workload]
    spawns = 0 if args.trace else 3 if args.tiny else SETUP_SPAWNS
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        rng = np.random.default_rng(args.seed)
        cli = None
        if args.workload == "cli":
            cli = workloads.CliWorkload(lib, rng, ROOT, workdir, env, tiny=args.tiny, in_process=bool(args.trace))
        runner = Runner(lib, args.workload, rng, args.tiny, cli)
        if args.trace:
            tracer = tracing.Tracer({
                "tcm": lib, "matops": lib.matops, "gellmann": lib.gellmann,
                "swap": lib.swap, "product": lib.product, "cli": lib.cli,
            })
            tracer.install()
            min_passes *= 2
        setup_times = []
        sentinel_before = drift_sentinel_ms()
        deadline = time.perf_counter() + args.seconds
        while len(runner.passes) < min_passes or time.perf_counter() < deadline:
            for _ in range(min(SPAWNS_PER_PASS, spawns - len(setup_times))):
                setup_times.append(measure_setup(args.workload, args.tiny, env))
            traced = args.trace and len(runner.passes) % 2 == 1
            runner.run_pass(tracer if traced else None)
        while len(setup_times) < spawns:
            setup_times.append(measure_setup(args.workload, args.tiny, env))
        sentinel_after = drift_sentinel_ms()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# drift_sentinel_ms: before={sentinel_before:.3f} after={sentinel_after:.3f} (not gated)")
    print("# loadavg_after: " + " ".join(f"{x:.2f}" for x in os.getloadavg()))
    attempted = sum(len(p["times"]) for p in runner.passes)
    failed = sum(len(p["failed"]) for p in runner.passes)
    print(f"# passes={len(runner.passes)} ops_per_pass={len(runner.passes[0]['times'])} "
          f"attempted={attempted} failed={failed}")
    print("# pass_walls_s: " + " ".join(f"{sum(p['times']):.3f}" for p in runner.passes))

    if args.trace:
        metrics = layer_metrics(args, runner, tracer)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        print("# setup_spawns_s: " + " ".join(f"{t:.3f}" for t in setup_times))
        metrics = end_to_end_metrics(args, runner, setup_times, min_passes, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end_metrics(args, runner, setup_times, min_passes, attempted, failed):
    ops_per_pass = len(runner.passes[0]["times"])
    walls = [sum(p["times"]) for p in runner.passes]
    times = [t for p in runner.passes for t in p["times"]]
    # The percentile is fixed by the shortest run allowed, so it is the same
    # on every run and every commit however many passes fit in the time.
    pct = tail_percentile(min_passes * ops_per_pass)
    beyond = len(times) - math.ceil(pct * len(times) / 100)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    values = {
        "wall_s": (median(walls), "s", f"median of {len(walls)} passes of {ops_per_pass} ops"),
        "op_p50_s": (nearest_rank(times, 50), "s", f"n={len(times)} ops"),
        "op_tail_s": (nearest_rank(times, pct), "s", f"p{pct}, n={len(times)} ops, {beyond} beyond"),
        "setup_s": (median(setup_times), "s", f"median of {len(setup_times)} spawns"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB",
                        "largest child" if args.workload == "cli" else "this process"),
    }
    for name, (value, unit, note) in values.items():
        print(f"{name:12s} {value:12.6f} {unit:3s} ({note})")
    print(f"{'fail_ratio':12s} {failed / attempted:12.6f} 1   ({failed} of {attempted} ops)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}


def layer_metrics(args, runner, tracer):
    """Per-layer stats per traced pass, and the tracing overhead."""
    traced = [p for p in runner.passes if p["traced"]]
    plain = [p for p in runner.passes if not p["traced"]]
    n = len(traced)
    wall_traced = median([sum(p["times"]) for p in traced])
    wall_plain = median([sum(p["times"]) for p in plain])
    print(f"# wall_s traced={wall_traced:.6f} untraced={wall_plain:.6f} "
          f"tracing_overhead_s={wall_traced - wall_plain:.6f} "
          f"({(wall_traced - wall_plain) / wall_plain:+.1%}; {n} traced and {len(plain)} untraced passes"
          f"{', in-process' if args.workload == 'cli' else ''})")
    stats = tracer.layer_stats(tracing.span_names())
    total_wall = sum(sum(p["times"]) for p in traced)
    total_minflt = sum(p["minflt"] for p in traced)
    print(f"# per traced pass; (self_s share of traced wall) (minflt share of "
          f"{total_minflt / n:.0f} faults per pass)")
    metrics = {}
    for name, s in stats.items():
        for stat, unit in tracing.STATS:
            metrics[f"{name}.{stat}"] = {"value": s[stat] / n, "unit": unit}
        if s["calls"]:
            print(f"#   {name:40s} calls={s['calls'] / n:10.1f} busy={s['busy_s'] / n:9.4f}s "
                  f"self={s['self_s'] / n:9.4f}s ({s['self_s'] / total_wall:6.1%}) "
                  f"minflt={s['minflt'] / n:10.0f} ({s['minflt'] / max(total_minflt, 1):6.1%})")
    cli_in = sum(p.get("in", 0) for p in traced) / n
    cli_out = sum(p.get("out", 0) for p in traced) / n
    metrics["cli.input_bytes"] = {"value": cli_in, "unit": "bytes"}
    metrics["cli.output_bytes"] = {"value": cli_out, "unit": "bytes"}
    print(f"#   cli.input_bytes={cli_in:.0f} cli.output_bytes={cli_out:.0f}")
    return metrics


# ---------------------------------------------------------------------------
# self-check


def self_check():
    """Run every workload at tiny sizes, untraced and traced, and check the names.

    Every metric of BENCHMARK.json must be emitted with its unit, and no op
    may fail.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            if trace == 0 and not any(line.split()[:2] == ["fail_ratio", "0.000000"] for line in lines):
                problems.append(f"{where}: fail_ratio is not reported as 0")
            print(f"self-check {where}: {result['attempted']} ops, {len(got)} metrics")
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    parser.add_argument("--self-check", action="store_true", help="run every workload tiny and check the output")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.self_check or args.setup_probe or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps its child,
    # and the run's scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe, args.tiny)
            return 0
        if args.self_check:
            return self_check()
        lib = load_tcm()
        print_record(args)
        run_workload(args, lib)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
