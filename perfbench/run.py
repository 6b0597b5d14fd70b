"""End-to-end benchmark of the heavytail-ph CLI: fit, queue and simulate.

Run from the repository root, with no installation step:

    python3 perfbench/run.py --workload fit-pareto --seed 1 --seconds 60 --trace 0

Workloads: fit-pareto and validate, the two in BENCHMARK.json, and
fit-weibull, which is run by hand (see perfbench/README.md).
The run is closed-loop: one client in this process issues the next
operation when the previous one returns, as long as the next one is
expected to end within --seconds (at least one operation always runs).
Each command is also timed against a fixed reference loop run just
before and after it (see hostspeed.py); op_ref, the sum of these ratios
over an operation's commands, cancels the drift of a shared host's speed.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced operations and reports the per-layer
metrics and the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("fit-pareto", "fit-weibull", "validate")

# BLAS pinned to one thread: a two-thread pool slowed and spread the fits.
# The simulation thread pool gets one thread per usable core.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> dict:
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    os.environ["HEAVYTAIL_PH_THREADS"] = str(nproc())
    return {name: os.environ[name]
            for name in BLAS_THREADS + ("HEAVYTAIL_PH_THREADS",)}


def import_workloads():
    """Import the package from this checkout's sources, then the workloads."""
    if not (SRC / "heavytail_ph" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def setup_once(name: str, tiny: bool = False):
    """Imports, loads and verifies the inputs: everything before timing."""
    workloads = import_workloads()
    wl = workloads.make(name, tiny)
    wl.setup()
    return wl


def probe_setup(name: str) -> float:
    """Wall time of a fresh interpreter doing this workload's set-up."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--probe-setup", name], cwd=ROOT,
                          stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up of {name} failed "
                         f"(exit code {proc.returncode})")
    return elapsed


def percentile_label(n: int) -> str:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}"
    return ""


def describe(name: str, unit: str, samples: list) -> str:
    med = statistics.median(samples)
    text = (f"  {name:<28} {med:14.6g} {unit:<7} median of {len(samples)}"
            f", min {min(samples):.6g}")
    label = percentile_label(len(samples))
    if label:
        q = statistics.quantiles(samples, n=100)[int(label[1:]) - 1]
        text += f", {label} {q:.6g}"
    elif len(samples) > 1:
        text += ": " + " ".join(f"{v:.6g}" for v in samples)
    return text


def run(args) -> int:
    env = pin_environment()
    tiny = args.size == "tiny"
    setup_samples = [probe_setup(args.workload)
                     for _ in range(SETUP_REPEATS)]

    wl = setup_once(args.workload, tiny)
    import hostspeed
    import layer_trace
    import numpy
    import scipy
    from heavytail_ph import BACKEND_NAME
    wl.prepare_checks()

    environment = {"nproc": nproc(), "backend": BACKEND_NAME,
                   "python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__,
                   "threads": env, "seed": args.seed,
                   "workload": args.workload, "size": args.size,
                   "trace": args.trace}
    print("environment:", json.dumps(environment))

    STATE_DIR.mkdir(exist_ok=True)
    work = STATE_DIR / f"work-{os.getpid()}"
    tracer = layer_trace.Tracer() if args.trace else None
    plain, traced = [], []
    # Per operation: the sum over its commands of wall time over the
    # reference time around the command.
    plain_rel, traced_rel = [], []
    speed = wl.speed = hostspeed.HostSpeed()

    def timed(results, rel, index, tr=None):
        results.append(_op(wl, work, index, args.seed, tr))
        rel.append(speed.take())

    t_start = perf_counter()
    try:
        index = rounds = 0
        while True:
            timed(plain, plain_rel, index)
            index += 1
            if tracer is not None:
                timed(traced, traced_rel, index, tracer)
                index += 1
            rounds += 1
            # Start another round only if it should end within --seconds.
            elapsed = perf_counter() - t_start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = plain + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for command, msg in r.problems:
            print(f"check failed: {command}: {msg}", file=sys.stderr)

    print(f"workload {args.workload}: {len(plain)} untraced and "
          f"{len(traced)} traced operations in "
          f"{perf_counter() - t_start:.1f} s; {failed} of {attempted} "
          f"commands failed")
    print("goldens:", json.dumps([r.golden for r in results]))

    op_s = [sum(r.seconds.values()) for r in plain]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("end-to-end (untraced):")
    print(describe("setup_s", "s", setup_samples))
    print(describe("op_s", "s", op_s))
    for pool, label in ((False, "reference_s"), (True, "reference_pool_s")):
        if speed.samples[pool]:
            print(describe(label, "s", speed.samples[pool]))
    print(describe("op_ref", "1", plain_rel))
    for line in _command_metrics(wl.kind, plain):
        print(line)
    print(describe("peak_rss_mb", "MB", [rss_mb]))
    print(f"  {'fail_ratio':<28} {failed / attempted:14.6g} 1       "
          f"{failed} of {attempted} commands")

    correct = failed == 0
    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup_samples), "s"),
                   "op_ref": (statistics.median(plain_rel), "1"),
                   "peak_rss_mb": (rss_mb, "MB")}
    else:
        missing = tracer.missing(wl.kind)
        if missing:
            correct = False
            print("check failed: trace boundaries never fired: "
                  + ", ".join(missing), file=sys.stderr)
        traced_s = [sum(r.seconds.values()) for r in traced]
        metrics = layer_trace.layer_metrics(tracer, len(traced))
        metrics["trace.op_s"] = (statistics.median(traced_s), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_rel) / statistics.median(plain_rel)
            - 1.0, "1")
        print("per-layer (traced, per operation):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:14.6g} {unit}")
        print("self time per boundary (traced, per operation):")
        for key, secs in sorted(tracer.self_seconds().items(),
                                key=lambda kv: -kv[1]):
            print(f"  {key:<34} {secs / len(traced):14.6g} s")
        spans = STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def _op(wl, work: Path, index: int, seed: int, tracer=None):
    out = work / f"op{index}"
    try:
        return wl.run_op(index, out, seed, tracer)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _command_metrics(kind: str, plain: list) -> list[str]:
    """The per-command figures behind op_s, by the names users know."""
    if kind == "fit":
        return [describe("fit_s", "s", [r.seconds["fit"] for r in plain]),
                describe("fit_mae", "1",
                         [r.values.get("fit_mae", float("nan"))
                          for r in plain])]
    lines = [describe("queue_s", "s", [r.seconds["queue"] for r in plain])]
    for cmd in ("simulate_model", "simulate_target"):
        rates = [r.values[f"{cmd}_jobs"] / r.seconds[cmd] for r in plain]
        lines.append(describe(f"{cmd}_jobs_per_s", "jobs/s", rates))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every operation (smoke test)")
    parser.add_argument("--probe-setup", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        setup_once(args.probe_setup)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
