"""Benchmark of the isingring command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload evolve_n200 --seed 1 --seconds 28 --trace 0

One process per run drives the real CLI in-process, `isingring.cli.main(argv)`,
one operation per call, in a closed loop from a single client: the next op
starts when the previous one has returned and been checked.  Every argv is
drawn from `--seed`.  A new op starts only while, judged by the previous
op, it will end less than half an op past `--seconds`, so a run measures
`--seconds` to within half an op.

--trace 0   times each op untraced and prints the end-to-end metrics:
            values_per_s  observable values per wall second of the run's
                          slowest op (a failed op counts as 0)
            setup_s       process start to package imported and per-ring-size
                          caches warm, median over SETUP_PROBES fresh processes
            peak_rss_mb   peak RSS of this process plus its largest child,
                          through the first op
--trace 1   alternates an untraced op (repeated serially when the workload
            uses a pool, and required to give byte-identical output) with a
            fresh op run serially under `spans.Tracer`, and prints the
            per-layer metrics: means per traced op ("/op" units), each
            layer's self time as a share of traced op wall time,
            simulate.pool_efficiency = untraced serial wall / (workers x
            untraced pool wall) of the same op, and bench.trace_overhead =
            traced wall / untraced serial wall.

An op fails when it exits non-zero, raises, or fails its output check; the
failed and attempted counts are in the result, and their ratio on the line
before it.
BLAS threads are pinned to nproc // workers before numpy is imported.  The
last line of stdout is the result JSON; the line before it records the
environment, sample counts and failures.  Exit status is non-zero, with no
result line, when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"values_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "pfaffian.batch_s": "s/op",
    "pfaffian.calls": "count/op",
    "pfaffian.matrices": "count/op",
    "pfaffian.dim_max": "count",
    "pfaffian.gflop_computed": "GFLOP/op",
    "pfaffian.gbyte_computed": "GB/op",
    "pfaffian.gflops": "GFLOP/s",
    "pfaffian.guard_warnings": "count/op",
    "odd_observables.kernel_build_s": "s",
    "odd_observables.c_series_s": "s/op",
    "odd_observables.assembly_self_s": "s/op",
    "model.amplitudes_s": "s/op",
    "model.amplitudes_calls": "count/op",
    "even_observables.evaluate_even_s": "s/op",
    "rdm.assemble_s": "s/op",
    "rdm.pauli_s": "s/op",
    "rdm.concurrence_s": "s/op",
    "simulate.self_s": "s/op",
    "simulate.pool_efficiency": "ratio",
    "cli.self_s": "s/op",
    "ed_oracle.quench_oracle_s": "s/op",
    "ed_oracle.state_s": "s/op",
    "ed_oracle.two_site_rdm_s": "s/op",
    **{f"{layer}.self_share": "ratio" for layer in spans.LAYERS},
    "bench.accounted_share": "ratio",
    "bench.trace_overhead": "ratio",
}

# Inclusive time of one public callable, per op.
_INCLUSIVE = {
    "odd_observables.c_series_s": "odd_observables.CrossParityKernel.c_series",
    "model.amplitudes_s": "model.QuenchConfig.amplitudes",
    "even_observables.evaluate_even_s": "even_observables.evaluate_even",
    "rdm.assemble_s": "rdm.assemble_two_site",
    "rdm.pauli_s": "rdm.pauli_correlation",
    "rdm.concurrence_s": "rdm.concurrence",
    "ed_oracle.quench_oracle_s": "ed_oracle.quench_oracle",
    "ed_oracle.state_s": "ed_oracle.EDQuench.state",
    "ed_oracle.two_site_rdm_s": "ed_oracle.two_site_rdm",
}
_KERNEL_INIT = "odd_observables.CrossParityKernel.__init__"


def pin_blas_threads(workers: int) -> int:
    threads = max(1, len(os.sched_getaffinity(0)) // workers)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ.pop("ISINGRING_WORKERS", None)   # argv alone sets the workers
    return threads


def import_cli():
    """Import `isingring.cli` from this checkout's source tree."""
    if not (SRC / "isingring" / "cli.py").is_file():
        sys.exit(f"error: no isingring source under {SRC}")
    sys.path.insert(0, str(SRC))
    from isingring import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: isingring imported from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argv) -> tuple[object, str, str, float]:
    """(exit code, stdout, stderr, wall seconds) of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:               # any crash is a failed op, reported below
        code = "raised"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def warm_up(cli, workload) -> None:
    code, _, err, _ = run_cli(cli, workload.warmup_argv)
    if code != 0:
        sys.exit(f"error: warm-up {' '.join(workload.warmup_argv)} failed: {err}")


def verdict(cli, workload, op, code, out, err) -> str | None:
    """None when the op succeeded, else why it failed."""
    if code != 0:
        return f"exit status {code}: {err.strip()[-400:]}"
    try:
        return workload.check(op, out, lambda argv: run_cli(cli, argv)[:3])
    except Exception as exc:       # unreadable output or a failed reference
        return f"output check raised {exc!r}"


def serial(argv) -> tuple[str, ...]:
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return tuple(argv)


def probe_setup_seconds(workload, count: int) -> list[float]:
    """Wall seconds from spawning a fresh interpreter until it reports the
    package imported and the workload's caches warm."""
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--setup-probe", "--workload", workload.name],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: setup probe exited {proc.returncode}")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0        # ru_maxrss is in KiB on Linux


def git_commit() -> str:
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
    return "unknown"


def environment(args, workload, blas_threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": workload.name, "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": blas_threads, "workers": workload.workers,
    }


def time_is_up(elapsed: float, last: float, seconds: float) -> bool:
    """Whether another step as long as the `last` one, started after
    `elapsed` seconds, would end half a step or more past `seconds`."""
    return elapsed + last / 2 >= seconds


def measure(cli, workload, rng, seconds):
    """Timed untraced ops; returns (per-op value rates, failure texts, peak
    RSS through the first op).

    Peak RSS is read after the first op, as a one-command CLI process would
    see it: later ops can find earlier results still held in package caches,
    and how many ops fit in a run depends on the machine's speed.
    """
    rates, failures = [], []
    rss = None
    start = perf_counter()
    while True:
        op_start = perf_counter()
        op = workload.make_op(rng)
        code, out, err, wall = run_cli(cli, op.argv)
        rss = rss or peak_rss_mb()
        problem = verdict(cli, workload, op, code, out, err)
        if problem:
            failures.append(problem)
        rates.append(0.0 if problem else workload.cells(out) / wall)
        now = perf_counter()
        if time_is_up(now - start, now - op_start, seconds):
            return rates, failures, rss


class LayerTotals:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self):
        self.ops = 0
        self.wall = 0.0
        self.sums: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.flop = self.byte = self.pf_seconds = 0.0
        self.dim_max = 0
        self.kernel_build = 0.0
        self.guard_warnings = 0

    def add_op(self, op_spans, wall: float) -> None:
        self.ops += 1
        self.wall += wall
        calls = spans.pfaffian_calls(op_spans)
        values = {metric: spans.inclusive(op_spans, name)
                  for metric, name in _INCLUSIVE.items()}
        values["odd_observables.assembly_self_s"] = spans.inclusive_without(
            op_spans, _INCLUSIVE["odd_observables.c_series_s"], "pfaffian")
        values["model.amplitudes_calls"] = spans.count(
            op_spans, _INCLUSIVE["model.amplitudes_s"])
        values["pfaffian.calls"] = len(calls)
        values["pfaffian.matrices"] = sum(m for _, m, _ in calls)
        for metric, v in values.items():
            self.sums[metric] = self.sums.get(metric, 0.0) + v
        for layer, v in spans.layer_self_times(op_spans).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + v
        for seconds, matrices, dim in calls:
            flop, byte = spans.pfaffian_work(dim, matrices)
            self.flop += flop
            self.byte += byte
            self.pf_seconds += seconds
            self.dim_max = max(self.dim_max, dim)
        self.kernel_build += spans.inclusive(op_spans, _KERNEL_INIT)

    def metrics(self, serial_wall: float, pool_wall: float, workers: int) -> dict:
        n = max(self.ops, 1)
        out = {metric: v / n for metric, v in self.sums.items()}
        out.update({
            "pfaffian.batch_s": self.pf_seconds / n,
            "pfaffian.dim_max": self.dim_max,
            "pfaffian.gflop_computed": self.flop / 1e9 / n,
            "pfaffian.gbyte_computed": self.byte / 1e9 / n,
            "pfaffian.gflops": self.flop / 1e9 / self.pf_seconds if self.pf_seconds else 0.0,
            "pfaffian.guard_warnings": self.guard_warnings / n,
            "odd_observables.kernel_build_s": self.kernel_build,
            "simulate.self_s": self.self_s.get("simulate", 0.0) / n,
            "simulate.pool_efficiency": serial_wall / (workers * pool_wall),
            "cli.self_s": self.self_s.get("cli", 0.0) / n,
            "bench.accounted_share": sum(self.self_s.values()) / self.wall,
            "bench.trace_overhead": self.wall / serial_wall,
        })
        for layer in spans.LAYERS:
            out[f"{layer}.self_share"] = self.self_s.get(layer, 0.0) / self.wall
        return out


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("isingring.") and m is not None]


def traced_call(tracer, cli, argv):
    """Serial run of `argv` under the tracer, which keeps its spans.

    Returns `run_cli`'s tuple and the number of Pfaffian guard warnings."""
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(cli, serial(argv))
    finally:
        tracer.uninstall()
    hits = sum(1 for w in caught if w.category.__name__ == "PfaffianConditionWarning")
    return result, hits


def measure_traced(cli, workload, rng, seconds, tracer, totals):
    """Pairs of ops: one untraced (run again serially, untraced, when the
    workload uses a pool), then a fresh one traced, so no op finds another's
    per-op caches warm.  Returns (serial wall, pool wall, attempted, failures)."""
    failures = []
    serial_wall = pool_wall = 0.0
    attempted = 0
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        op = workload.make_op(rng)
        code, out, err, wall = run_cli(cli, op.argv)
        problem = verdict(cli, workload, op, code, out, err)
        pool_wall += wall
        if workload.workers > 1:
            code_s, out_s, _, wall = run_cli(cli, serial(op.argv))
            if problem is None and (code_s != 0 or out_s != out):
                problem = "output differs between --workers settings"
        serial_wall += wall
        traced_op = workload.make_op(rng)
        tracer.op = attempted + 1
        (code, out, err, wall), hits = traced_call(tracer, cli, traced_op.argv)
        totals.add_op(tracer.take(), wall)
        totals.guard_warnings += hits
        attempted += 2
        failures += [p for p in (problem, verdict(cli, workload, traced_op, code, out, err)) if p]
        now = perf_counter()
        if time_is_up(now - start, now - pair_start, seconds):
            return serial_wall, pool_wall, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    blas_threads = pin_blas_threads(workload.workers)   # before numpy loads

    cli = import_cli()
    if args.setup_probe:
        warm_up(cli, workload)
        print("ready", flush=True)
        return 0

    rng = random.Random(f"{args.seed}/{workload.name}")
    env = environment(args, workload, blas_threads)
    if args.trace:
        tracer, totals = spans.Tracer(package_modules()), LayerTotals()
        (code, _, err, _), _ = traced_call(tracer, cli, workload.warmup_argv)
        if code != 0:
            sys.exit(f"error: warm-up failed: {err}")
        totals.kernel_build += spans.inclusive(tracer.take(), _KERNEL_INIT)
        serial_wall, pool_wall, attempted, failures = measure_traced(
            cli, workload, rng, args.seconds, tracer, totals)
        values = totals.metrics(serial_wall, pool_wall, workload.workers)
        units = PER_LAYER
        samples = {"traced_ops": totals.ops}
    else:
        warm_up(cli, workload)
        rates, failures, rss = measure(cli, workload, rng, args.seconds)
        attempted = len(rates)
        setups = probe_setup_seconds(workload, SETUP_PROBES)
        # The slowest op, not the median: on a shared 2-vCPU host the CPU
        # speed of pure-Python and BLAS code alike swings by up to half
        # over seconds to minutes, so the median op follows whichever
        # state a run happened to sample, while nearly every run of 20 s
        # or more passes through the slowest one.  Over sets of 10-16
        # fine_grid_n10 runs, (q3 - q1) / median was 0.05-0.13 for the
        # slowest op's rate and 0.12-0.27 for the median op's.
        values = {"values_per_s": min(rates),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": rss}
        units = END_TO_END
        samples = {"values_per_s": attempted, "setup_s": len(setups), "peak_rss_mb": 1}

    for problem in failures[:5]:
        print(f"failed op: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "samples": samples,
                      "failed_ops_ratio": len(failures) / attempted}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
