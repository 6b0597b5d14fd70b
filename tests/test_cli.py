"""CLI surface: argument validation, outputs, manifests, exit codes.

Runs the click commands in-process with small configurations; the full
paper-scale invocations live in test_acceptance.py.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from heavytail_ph import bph, cli, fitting, phmodel, queueing
from heavytail_ph.optimizer import AdamConfig, LossWeights
from heavytail_ph.targets import TargetDistribution

STORED_HYBRID = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "pareto31_hybrid_k4_n100.json")


@pytest.fixture()
def runner():
    return CliRunner()


def run_fit(runner, out_dir, *extra):
    args = ["fit", "--target", "pareto", "--shape", "3.1",
            "--method", "bph_he", "--k", "2", "--bph-order", "40",
            "--grid-size", "128", "--max-iters", "30",
            "--out", str(out_dir), *extra]
    return runner.invoke(cli.main, args, catch_exceptions=False)


def test_fit_writes_model_report_manifest(runner, tmp_path):
    result = run_fit(runner, tmp_path, "--trace-csv")
    assert result.exit_code == 0
    model = phmodel.PhaseTypeModel.load(tmp_path / "model.json")
    assert model.order == 42
    assert model.is_proper

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "bph_he"
    assert report["mae"] < 1e-2
    assert report["mean_approx"] == pytest.approx(report["mean_real"],
                                                  rel=1e-9)
    assert len(report["he_points"]) == 4

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "fit"
    assert manifest["config"]["k"] == 2
    assert str(tmp_path / "model.json") in manifest["outputs"]
    assert (tmp_path / "loss_trace.csv").exists()

    # stdout carries the report as JSON.
    assert json.loads(result.output)["method"] == "bph_he"


def test_fit_requires_exactly_one_target(runner, tmp_path):
    result = runner.invoke(cli.main, ["fit", "--out", str(tmp_path)])
    assert result.exit_code == cli.EXIT_CONFIG
    result = runner.invoke(cli.main, [
        "fit", "--target", "pareto", "--shape", "3.1",
        "--target-csv", "/dev/null", "--out", str(tmp_path)])
    assert result.exit_code == cli.EXIT_CONFIG


def test_fit_missing_param_fails(runner, tmp_path):
    result = runner.invoke(cli.main, ["fit", "--target", "burr", "--c", "2",
                                      "--out", str(tmp_path)])
    assert result.exit_code == cli.EXIT_CONFIG
    assert "--d" in result.output


def test_fit_failure_exit_code(runner, tmp_path):
    # Tail points forced deep into the body are unbuildable without the
    # optimizer: the fit must fail with the dedicated exit code.
    result = runner.invoke(cli.main, [
        "fit", "--target", "pareto", "--shape", "3.1", "--method", "bph_he",
        "--k", "2", "--max-iters", "0", "--tail-window", "0.01,0.2",
        "--out", str(tmp_path)])
    assert result.exit_code == cli.EXIT_FIT_FAILURE


# Targets that cannot be built or read: each must exit EXIT_CONFIG under
# fit and under simulate.
_BAD_TARGETS = {
    "pareto-negative-shape": ["--target", "pareto", "--shape", "-1"],
    "reversed-window": ["--target", "pareto", "--shape", "3.1",
                        "--window", "5,1"],
    "infinite-window": ["--target", "pareto", "--shape", "3.1",
                        "--window", "0,inf"],
    "json-missing-shape": ["--target-json", "{no_shape}"],
    "json-not-json": ["--target-json", "{bad}"],
    "csv-rising-ccdf": ["--target-csv", "{rising}"],
    "csv-non-numeric": ["--target-csv", "{non_numeric}"],
    "csv-empty": ["--target-csv", "{empty}"],
}
_SMALL_SIM = ["--jobs", "2000", "--warmup", "100", "--replications", "2"]


@pytest.mark.parametrize("args", [
    ["fit", "--target", "pareto", "--shape", "3.1", "--weights", "1,1,1"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--bph-order", "0"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--method", "bph_he",
     "--k", "0"],
    ["simulate", "--target", "pareto", "--shape", "3.1", "--jobs", "10",
     "--warmup", "10"],
    ["simulate", "--model", "{bad}"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--method", "he",
     "--k", "1"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--lr", "0"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--grid-size", "1"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--tail-window", "5,1"],
    ["fit", "--target", "pareto", "--shape", "3.1", "--grid-window=-1,100"],
    ["fit", "--target-csv", "{high}"],
    ["fit", "--target-csv", "{flat_above_median}"],
    ["fit", "--target-csv", "{flat_below_median}"],
    ["simulate", "--target-csv", "{flat_below_median}", *_SMALL_SIM],
    ["fit", "--method", "bph", "--target-csv", "{flat_below_edge}"],
    ["fit", "--method", "bph_he", "--k", "1", "--tail-window", "2,50",
     "--target-csv", "{flat_in_tail}"],
] + [["fit", *a] for a in _BAD_TARGETS.values()]
  + [["simulate", *a, *_SMALL_SIM] for a in _BAD_TARGETS.values()],
    ids=["bad-weights", "bph-order-0", "k-0", "jobs-not-above-warmup",
         "malformed-model", "he-k-1", "lr-0", "grid-size-1",
         "reversed-tail-window", "negative-grid-window",
         "csv-ccdf-stays-high",
         "csv-flat-tail-above-median", "csv-flat-tail-below-median",
         "simulate-csv-flat-tail", "bph-csv-flat-below-body-edge",
         "bph-he-csv-flat-in-tail"]
    + [f"fit-{name}" for name in _BAD_TARGETS]
    + [f"simulate-{name}" for name in _BAD_TARGETS])
def test_bad_config_exits_with_config_code(runner, tmp_path, args):
    # Config errors exit EXIT_CONFIG with a one-line message, never a
    # traceback.
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    no_shape = tmp_path / "no_shape.json"
    no_shape.write_text('{"kind": "pareto", "params": {}}')
    # A table whose CCDF stays high puts the body edge above the grid.
    high = tmp_path / "high.csv"
    high.write_text("x,ccdf\n0,1.0\n1,0.9\n2,0.8\n")
    # Tables whose last two values are equal continue flat: the CCDF never
    # reaches the median (0.8), the body-edge level (0.3 and 0.001) or 0,
    # and leaves mass at infinity that no simulation can draw.
    tables = {"flat_above_median": "x,ccdf\n0,1.0\n1,0.8\n2,0.8\n",
              "flat_below_median": "x,ccdf\n0,1.0\n1,0.3\n2,0.3\n",
              "flat_below_edge": "x,ccdf\n0,1.0\n1,0.1\n10,0.001\n"
                                 "20,0.001\n",
              "flat_in_tail": "x,ccdf\n0,1.0\n1,0.3\n5,0.05\n20,0.004\n"
                              "100,0.0009\n200,0.0009\n",
              "rising": "x,ccdf\n0,1.0\n1,0.5\n2,0.7\n",
              "non_numeric": "x,ccdf\n0,1.0\n1,abc\n2,0.1\n",
              "empty": ""}
    for name, text in tables.items():
        (tmp_path / f"{name}.csv").write_text(text)
    args = ([a.format(bad=bad, high=high, no_shape=no_shape,
                      **{name: tmp_path / f"{name}.csv" for name in tables})
             for a in args] + ["--out", str(tmp_path)])
    result = runner.invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == cli.EXIT_CONFIG
    assert len(result.output.strip().splitlines()) == 1


# A valid table whose CCDF falls too slowly: the body-edge level (fit) and
# most simulation draws lie beyond the largest float.
_SLOW_TABLE = "x,ccdf\n0,1.0\n1,0.3\n2,0.2999999\n"


@pytest.mark.parametrize("command", [["fit", "--method", "bph"],
                                     ["simulate", *_SMALL_SIM]],
                         ids=["fit-bph", "simulate"])
def test_slow_falling_table_exits_non_convergence(runner, tmp_path, command):
    table = tmp_path / "slow.csv"
    table.write_text(_SLOW_TABLE)
    result = runner.invoke(cli.main, [*command, "--target-csv", str(table),
                                      "--out", str(tmp_path)],
                           catch_exceptions=False)
    assert result.exit_code == cli.EXIT_NON_CONVERGENCE
    assert len(result.output.strip().splitlines()) == 1
    assert not (tmp_path / "sim_metrics.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_burr_draws_past_the_power_overflow_do_not_crash(runner, tmp_path):
    # Burr(2, 0.01) puts draws far beyond 1e154, where x ** c overflows a
    # float while the CCDF is still about 1e-3; a draw beyond the largest
    # float exits 4. Replication means near 1e179 overflow the squares of
    # their standard deviation, which must still give a finite half-width.
    result = runner.invoke(cli.main, [
        "simulate", "--target", "burr", "--c", "2", "--d", "0.01",
        *_SMALL_SIM, "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code in (0, cli.EXIT_NON_CONVERGENCE)
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        doc = json.loads((tmp_path / "sim_metrics.json").read_text())
        for name, est in doc["estimates"].items():
            assert math.isfinite(est["halfwidth95"]), name


# Windows far beyond where the CCDF underflows. Pareto(3.1) up to 1e200 has
# closed-form moments, though x^2 overflows there. The second-moment
# integrand of Pareto(1.3) still grows where its CCDF underflows, and that
# of Pareto(0.5) overflows: both end at once with exit 4.
@pytest.mark.parametrize("shape, window, code", [
    ("3.1", "0,1e200", 0),
    ("1.3", "0,1e270", cli.EXIT_NON_CONVERGENCE),
    ("0.5", "0,1e300", cli.EXIT_NON_CONVERGENCE),
], ids=["pareto-3.1-to-1e200", "pareto-1.3-to-1e270", "pareto-0.5-to-1e300"])
def test_very_wide_window_finishes(runner, tmp_path, shape, window, code):
    result = runner.invoke(cli.main, [
        "fit", "--method", "bph", "--target", "pareto", "--shape", shape,
        "--window", window, "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == code
    if code:
        assert len(result.output.strip().splitlines()) == 1
        return
    # [DERIVED] m1 = 1/(a-1), m2 = 2/((a-1)(a-2)); the rest of the window
    # adds less than 1e-200.
    a = float(shape)
    m1, m2 = 1.0 / (a - 1.0), 2.0 / ((a - 1.0) * (a - 2.0))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mean_real"] == pytest.approx(m1, rel=1e-12)
    assert report["cv_real"] == pytest.approx(math.sqrt(m2 - m1 * m1) / m1,
                                              rel=1e-12)


def test_non_numeric_window_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(cli.main, [
        "fit", "--target", "pareto", "--shape", "3.1", "--tail-window",
        "a,b", "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == cli.EXIT_CONFIG
    assert "window must be" in result.output


def test_no_adjust_mean_flag(runner, tmp_path):
    result = run_fit(runner, tmp_path, "--no-adjust-mean")
    assert result.exit_code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mean_approx"] != pytest.approx(report["mean_real"],
                                                  rel=1e-9)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["adjust_mean"] is False


def test_eval_tabulates_model_and_target(runner, tmp_path):
    assert run_fit(runner, tmp_path).exit_code == 0
    out = tmp_path / "eval"
    result = runner.invoke(cli.main, [
        "eval", "--model", str(tmp_path / "model.json"),
        "--grid", "0:5:11", "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 0
    with open(out / "eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert set(rows[0]) == {"x", "ccdf", "cdf", "pdf",
                            "target_ccdf", "target_cdf", "target_pdf"}
    # Complements hold row by row.
    for row in rows:
        assert float(row["ccdf"]) + float(row["cdf"]) == pytest.approx(1.0,
                                                                       abs=1e-9)
    # Model tracks the target CCDF loosely even at this small order.
    mid = rows[5]
    assert float(mid["ccdf"]) == pytest.approx(float(mid["target_ccdf"]),
                                               abs=0.05)


def test_eval_walks_the_grid_once(runner, tmp_path, monkeypatch):
    # Both model columns come from one uniformization walk.
    calls = []
    walk = phmodel.expm_action
    monkeypatch.setattr(phmodel, "expm_action",
                        lambda *a: calls.append(a) or walk(*a))
    result = runner.invoke(cli.main, [
        "eval", "--model", str(STORED_HYBRID), "--out", str(tmp_path)],
        catch_exceptions=False)
    assert result.exit_code == 0
    assert len(calls) == 1
    with open(tmp_path / "eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    model = phmodel.PhaseTypeModel.load(STORED_HYBRID)
    xs = np.linspace(0.0, 10.0, 200)    # the default grid
    for column, values in (("ccdf", phmodel.ccdf(model, xs)),
                           ("pdf", phmodel.pdf(model, xs))):
        assert [r[column] for r in rows] == [f"{v:.12g}" for v in values]


def test_eval_rejects_bad_model(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(cli.main, ["eval", "--model", str(bad),
                                      "--out", str(tmp_path)])
    assert result.exit_code == cli.EXIT_CONFIG


def test_compare_lists_methods(runner, tmp_path):
    result = runner.invoke(cli.main, [
        "compare", "--target", "pareto", "--shape", "3.1", "--k", "2",
        "--bph-order", "40", "--grid-size", "128", "--max-iters", "30",
        "--methods", "bph,he", "--out", str(tmp_path)],
        catch_exceptions=False)
    assert result.exit_code == 0
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["bph", "he"]
    for r in rows:
        assert float(r["mae"]) >= 0.0


def test_compare_writes_a_failed_method_as_a_row(runner, tmp_path):
    # Pareto(0.3) reaches the body-edge level above the grid top, so bph_he
    # has no start; compare writes FAILED and the error's text in its row
    # and goes on.
    result = runner.invoke(cli.main, [
        "compare", "--target", "pareto", "--shape", "0.3", "--max-iters", "2",
        "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == 0
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == ["bph", "he", "bph_he"]
    assert rows[2][1:3] == ["FAILED", "the target CCDF stays above 0.005 up "
                            "to the grid top 1e+06; set --tail-window"]
    assert "FAILED" not in rows[0] + rows[1]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] is None


def test_zero_steps_fit_the_start_points(runner, tmp_path):
    # --max-iters 0 scores the default points only: a one-row loss trace,
    # and the points of the library's zero-step fit.
    result = runner.invoke(cli.main, [
        "fit", "--target", "pareto", "--shape", "3.1", "--k", "2",
        "--bph-order", "40", "--grid-size", "128", "--max-iters", "0",
        "--trace-csv", "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == 0
    with open(tmp_path / "loss_trace.csv", newline="") as fh:
        assert [r["iteration"] for r in csv.DictReader(fh)] == ["0"]
    target = TargetDistribution(kind="pareto", params={"shape": 3.1})
    lib = fitting.fit_bph_he(target, k=2, n=40,
                             grid=fitting.default_grid(target, m=128),
                             adam=AdamConfig(max_iters=0))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["he_points"] == lib.report.he_points
    assert "no_optimize" not in json.loads(
        (tmp_path / "manifest.json").read_text())["config"]


@pytest.mark.parametrize("option", [["--method", "bph"], ["--trace-csv"],
                                    ["--seed", "1"]],
                         ids=["method", "trace-csv", "seed"])
def test_compare_rejects_fit_only_options(runner, tmp_path, option):
    # compare fits every method in --methods, writes no loss trace and has
    # no random input, so these fit options are usage errors rather than
    # silently ignored.
    result = runner.invoke(cli.main, [
        "compare", "--target", "pareto", "--shape", "3.1", *option,
        "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert not (tmp_path / "compare.csv").exists()


def test_queue_metrics_and_curves(runner, tmp_path):
    assert run_fit(runner, tmp_path).exit_code == 0
    out = tmp_path / "queue"
    result = runner.invoke(cli.main, [
        "queue", "--model", str(tmp_path / "model.json"), "--lam", "0.5",
        "--wait-grid", "0:5:6", "--qlen-max", "8", "--out", str(out)],
        catch_exceptions=False)
    assert result.exit_code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 < metrics["rho"] < 1.0
    assert metrics["E_T"] == pytest.approx(metrics["E_W"] + metrics["E_S"],
                                           rel=1e-12)
    assert (out / "wait_ccdf.csv").exists()
    with open(out / "queue_length.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9


def test_queue_long_wait_grid_matches_dense_expm(runner, tmp_path):
    # [DERIVED] oracle: rho beta expm(x M) 1 by scipy's Pade approximant,
    # on the stored Pareto(3.1) hybrid, whose gap 20 is q*h = 2063 > 400.
    from scipy.linalg import expm
    result = runner.invoke(cli.main, [
        "queue", "--model", str(STORED_HYBRID), "--lam", "0.5",
        "--wait-grid", "0:2000:101", "--out", str(tmp_path)],
        catch_exceptions=False)
    assert result.exit_code == 0
    rho = json.loads((tmp_path / "metrics.json").read_text())["rho"]
    with open(tmp_path / "wait_ccdf.csv", newline="") as fh:
        rows = [(float(r["x"]), float(r["ccdf"])) for r in csv.DictReader(fh)]
    assert len(rows) == 101
    assert rows[0] == (0.0, pytest.approx(rho, rel=1e-11))
    model = phmodel.PhaseTypeModel.load(STORED_HYBRID)
    _, beta, M = queueing._waiting_time_generator(0.5, model)
    for x, got in rows[::10]:
        exact = float(rho * beta @ expm(x * M) @ np.ones(model.order))
        assert got == pytest.approx(exact, rel=1e-10)


def test_queue_unstable_exit_code(runner, tmp_path):
    assert run_fit(runner, tmp_path).exit_code == 0
    result = runner.invoke(cli.main, [
        "queue", "--model", str(tmp_path / "model.json"), "--lam", "50",
        "--out", str(tmp_path / "q")])
    assert result.exit_code == cli.EXIT_CONFIG
    assert "unstable" in result.output


def test_simulate_small_run(runner, tmp_path):
    result = runner.invoke(cli.main, [
        "simulate", "--target", "pareto", "--shape", "3.1", "--lam", "0.5",
        "--jobs", "20000", "--warmup", "2000", "--replications", "2",
        "--seed", "0", "--curves", "--out", str(tmp_path)],
        catch_exceptions=False)
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "sim_metrics.json").read_text())
    est = doc["estimates"]["E_W"]
    assert est["mean"] > 0.0 and est["halfwidth95"] > 0.0
    assert (tmp_path / "sim_wait_ccdf.csv").exists()
    assert (tmp_path / "sim_queue_length.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 0


# One small run of each command; {json}, {csv} and {model} name the files
# that its path options read.
MANIFEST_RUNS = {
    "fit": ["fit", "--target-json", "{json}", "--k", "2", "--bph-order",
            "20", "--grid-size", "64", "--max-iters", "2", "--trace-csv"],
    "eval": ["eval", "--model", "{model}", "--grid", "0:5:6"],
    "compare": ["compare", "--target", "pareto", "--shape", "3.1",
                "--bph-order", "20", "--grid-size", "64", "--methods", "bph",
                "--max-iters", "3", "--lr", "0.02"],
    "queue": ["queue", "--model", "{model}", "--qlen-max", "4"],
    "simulate": ["simulate", "--target-csv", "{csv}", "--jobs", "2000",
                 "--warmup", "100", "--replications", "2",
                 "--wait-grid", "0:5:6"],
}
# The values of the options each command line gives, as parsed.
MANIFEST_VALUES = {
    "fit": {"target_json": "{json}", "k": 2, "n": 20, "grid_size": 64,
            "max_iters": 2, "trace_csv": True},
    "eval": {"model_path": "{model}", "grid_spec": "0:5:6"},
    "compare": {"target_kind": "pareto", "shape": 3.1, "n": 20,
                "grid_size": 64, "methods": "bph", "max_iters": 3,
                "lr": 0.02},
    "queue": {"model_path": "{model}", "qlen_max": 4},
    "simulate": {"target_csv": "{csv}", "jobs": 2000, "warmup": 100,
                 "replications": 2, "wait_grid": "0:5:6"},
}


@pytest.mark.parametrize("command", MANIFEST_RUNS)
def test_manifest_records_every_option(runner, tmp_path, command):
    # config holds every declared option but --out and --seed, in
    # declaration order, plus the resolved target where the command takes
    # target options; inputs holds the digest of each file given.
    xs = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0]
    files = {"json": tmp_path / "target.json", "csv": tmp_path / "target.csv",
             "model": STORED_HYBRID}
    files["json"].write_text(json.dumps(TargetDistribution(
        kind="pareto", params={"shape": 3.1}).to_dict()))
    files["csv"].write_text("x,ccdf\n" + "".join(
        f"{x},{(1.0 + x) ** -3.1!r}\n" for x in xs))
    argv = [a.format(**files) for a in MANIFEST_RUNS[command]]
    out = tmp_path / "out"
    result = runner.invoke(cli.main, [*argv, "--out", str(out)],
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == 2
    assert manifest["subcommand"] == command

    cmd = cli.main.commands[command]
    names = [p.name for p in cmd.params]
    options = [n for n in names if n not in ("out", "seed")]
    config = manifest["config"]
    target = config.pop("target", None)
    assert list(config) == options
    assert (target is not None) == ("target_kind" in names)
    if target is not None:
        kind = "tabulated" if command == "simulate" else "pareto"
        assert target["kind"] == kind
    # Options left out hold their defaults.
    values = cmd.make_context(command, [], resilient_parsing=True).params
    values.update({name: value.format(**files) if isinstance(value, str)
                   else value
                   for name, value in MANIFEST_VALUES[command].items()})
    assert config == {n: values[n] for n in options}
    assert manifest["seed"] == values.get("seed")
    assert manifest["inputs"] == {
        str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in files.values() if str(path) in argv}


def test_fit_defaults_are_the_library_defaults():
    defaults = {p.name: p.default for p in cli.main.commands["fit"].params}
    assert defaults["k"] == fitting.DEFAULT_K
    assert defaults["n"] == bph.DEFAULT_ORDER
    assert defaults["grid_size"] == fitting.DEFAULT_GRID_SIZE
    assert defaults["lr"] == AdamConfig().learning_rate
    assert defaults["max_iters"] == AdamConfig().max_iters
    weights = [float(w) for w in defaults["weights"].split(",")]
    assert LossWeights(*weights) == LossWeights()


def test_version_flag(runner):
    result = runner.invoke(cli.main, ["--version"])
    assert result.exit_code == 0


# Runs in a fresh interpreter: one tiny call of each command through
# cli.main, then lists every scipy module that got imported.
_NO_SCIPY_SCRIPT = """
import sys
from pathlib import Path
from heavytail_ph import cli

out = Path(sys.argv[1])
pareto = ["--target", "pareto", "--shape", "3.1"]
sim = ["--lam", "0.5", "--jobs", "2000", "--warmup", "100",
       "--replications", "2"]
calls = [
    ["fit", *pareto, "--method", "bph_he", "--max-iters", "2",
     "--out", str(out / "hybrid")],
    ["fit", *pareto, "--method", "bph", "--out", str(out / "bph")],
    ["fit", *pareto, "--method", "he", "--out", str(out / "he")],
    ["eval", "--model", str(out / "hybrid" / "model.json"),
     "--out", str(out / "eval")],
    ["queue", "--model", str(out / "hybrid" / "model.json"),
     "--out", str(out / "queue")],
    ["simulate", "--model", str(out / "hybrid" / "model.json"), *sim,
     "--out", str(out / "sim-model")],
    ["simulate", "--target", "lognormal", "--mu", "1", "--sigma", "2", *sim,
     "--out", str(out / "sim-target")],
]
for argv in calls:
    try:
        cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        sys.exit(f"{argv[0]} exited {exc.code}")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_commands_do_not_import_scipy(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
