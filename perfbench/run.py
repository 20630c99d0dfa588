"""Benchmark of `chamberforms check` and `chamberforms invariants`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense|sweep|oracle --seed N \
        --seconds S --trace 0|1

The benchmark generates the workload's input files from the seed, then calls
the CLI's entry point, cli.main([command, "--input", file, "--out", report]),
once per input file, in rounds over the whole input list until S seconds have
passed (at least one round).  Every report is checked (checks.py).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics (tracing.py)
and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The program runs in this process on one thread; numpy's thread pools are
capped before numpy is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import UNITS as LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
# Set-up is timed this many times before the rounds and again after them,
# so that its median spans the run as the rounds do.
SETUP_REPEATS = 6
COMMANDS = {"dense": "check", "sweep": "check", "oracle": "invariants"}
UNITS = {"setup_s": "s", "run_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing chamberforms.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    cmd = [sys.executable, "-c", "import chamberforms.cli"]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


class Runner:
    """Runs rounds of one workload's operations and checks every report."""

    def __init__(self, cli, workload: str, instances, workdir: Path):
        self.cli = cli
        self.command = COMMANDS[workload]
        self.instances = instances
        self.inputs = workloads.write_inputs(instances, workdir)
        self.out = workdir / "report.json"
        self.uniform_ref: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round_p90: list[float] = []

    def round(self, tracer=None) -> float:
        """One pass over the input list; returns the summed operation time."""
        gc.collect()
        times = []
        for inst, path in zip(self.instances, self.inputs):
            self.out.unlink(missing_ok=True)
            argv = [self.command, "--input", str(path), "--out", str(self.out)]
            self.attempted += 1
            t0 = perf_counter()
            try:
                code = (tracer.call("cli.self_s", self.cli.main, argv)
                        if tracer else self.cli.main(argv))
            except Exception:  # the program raised past its own handlers
                traceback.print_exc()
                code = None
            times.append(perf_counter() - t0)
            if code != 0:
                self.failed += 1
                print(f"{inst.name}: {self.command} exited {code}", file=sys.stderr)
                continue
            self._check(inst, self.out.read_text())
        self.round_p90.append(
            statistics.quantiles(times, n=10, method="inclusive")[8])
        return sum(times)

    def _check(self, inst, text: str) -> None:
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            self.problems.append(f"{inst.name}: report is not JSON ({exc})")
            return
        if self.command == "check":
            found = checks.check_report(report, inst, self.uniform_ref)
        else:
            found = checks.check_invariants(report, inst)
        self.problems += [f"{inst.name}: {p}" for p in found]

    def check_vamos_topes(self) -> None:
        """The tope set of the Vamos fixture, from a `matrix` report."""
        vamos = next(p for i, p in zip(self.instances, self.inputs)
                     if i.name == "vamos")
        out = self.out.with_name("vamos-matrix.json")
        code = self.cli.main(["matrix", "--input", str(vamos), "--out", str(out)])
        if code != 0:
            self.problems.append(f"vamos: matrix exited {code}")
            return
        found = checks.check_vamos_topes(json.loads(out.read_text()))
        self.problems += [f"vamos: {p}" for p in found]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    measure_setup(1)  # writes the bytecode caches, which users pay once
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    t0 = perf_counter()
    from chamberforms import cli
    load_s = perf_counter() - t0

    instances = getattr(workloads, args.workload)(args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, args.workload, instances, workdir)
        if args.workload == "oracle":
            runner.check_vamos_topes()
        if args.trace:
            metrics = traced_rounds(runner, args.seconds, load_s)
        else:
            rounds = []
            deadline = perf_counter() + args.seconds
            while not rounds or perf_counter() < deadline:
                rounds.append(runner.round())
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += measure_setup(SETUP_REPEATS)
            # Means over rounds: a shared machine's speed drifts over seconds,
            # and a mean averages the whole run where a median picks one round.
            values = {"setup_s": statistics.median(setup),
                      "run_s": statistics.fmean(rounds),
                      "op_p90_s": statistics.fmean(runner.round_p90),
                      "peak_rss_mb": rss_mb}
            metrics = {k: _metric(v, UNITS[k]) for k, v in values.items()}
            print(f"{args.workload}: {len(rounds)} rounds of {len(instances)} "
                  f"operations, round times {[round(r, 3) for r in rounds]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    for p in runner.problems[:20]:
        print(f"wrong output: {p}", file=sys.stderr)
    return {"correct": not runner.problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def traced_rounds(runner: Runner, seconds: float, load_s: float) -> dict:
    """Alternate untraced and traced rounds; per-layer medians over traced ones."""
    tracer = Tracer()
    plain, traced, snaps = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(runner.round())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.round(tracer))
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
    metrics = {"cli.load_s": _metric(load_s, "s")}
    for name in snaps[0]:
        value = statistics.median(s[name] for s in snaps)
        metrics[name] = _metric(value, LAYER_UNITS[name])
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    print(f"traced {len(traced)} rounds; run_s untraced "
          f"{statistics.median(plain):.4f} s, traced {statistics.median(traced):.4f} s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chamberforms" / "cli.py").is_file():
        print(f"error: no chamberforms sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    result = run(args)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
