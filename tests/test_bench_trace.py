"""The traced benchmark runs still reach every expected boundary.

The benchmark's tracer wraps module-level functions (`hybrid.residual_ccdf`,
`hefit.he_ccdf`, `bph.build_from_ccdf`, ...) and fails the run when an
expected boundary never fires, so a refactor that calls around one of them
shows up here; the loss-evaluation count shows whether a feasible Adam
step still costs one hybrid build. The fit run uses the full-size
operation (20 Adam steps): the tiny size stops after 2 steps, where the
fit's CV error (2.8e-2) is above the benchmark's 2e-2 check, so a tiny
run never reads as correct."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fit_run_is_correct_and_fires_every_boundary():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-pareto",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert "never fired" not in proc.stderr
    # Every build of the operation succeeds, so each Adam step scores its
    # point once and takes the exact gradient from that same build.
    metric = {name: m["value"] for name, m in result["metrics"].items()}
    assert metric["hybrid.build_ok_ratio"] == 1.0
    assert metric["optimizer.loss_evals"] <= \
        2.0 * (metric["optimizer.adam_steps"] + 1.0)


def test_traced_validate_run_fires_every_boundary():
    """The traced validate run reaches every simulation and queue boundary,
    among them `phmodel.sample_with_rng` and `draw_target`, whose Lognormal
    draws bisect through `targets.ccdf_inverse` and `targets.ccdf`; a draw
    path that calls around one of them fails the run as "never fired". The
    bisection evaluates the CCDF once per step for a whole replication's
    draws, so an operation makes hundreds of `targets.ccdf` calls (113 at
    this size, about 600 at full size), not tens per draw.
    `correct` is not asserted: the tiny size simulates 2 replications, and
    their mean checks miss on correct code at some seeds (at seed 0 the
    Lognormal rho check does)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate",
         "--size", "tiny", "--seconds", "1", "--trace", "1", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "never fired" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["metrics"]["targets.ccdf_calls"]["value"] <= 1000
