"""The CLI's exit-code contract on bad input: 0 ok, 2 configuration,
3 infeasible fit, 4 numerical non-convergence.

Every error ends in one line on stderr, never a traceback; a command that
exits 2 writes no output file; every JSON file written is strict JSON (no
NaN or Infinity). A table pins the code of each known input, and a
hypothesis test draws command lines from small pools of valid and invalid
option values.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail_ph import bph, cli
from heavytail_ph.errors import InvalidModelError
from heavytail_ph.targets import TargetDistribution

STORED_HYBRID = str(Path(__file__).resolve().parents[1] / "perfbench"
                    / "data" / "pareto31_hybrid_k4_n100.json")

# Model files the commands must refuse: unreadable, failing
# phmodel.validate, defective (alpha sums below 1), or with phases that
# never reach absorption (every row of A sums to 0).
BAD_MODELS = {
    "invalid": '{"alpha": [1.0], "A": [[1.0]]}',
    "defective": '{"alpha": [0.5], "A": [[-1.0]]}',
    "nan": '{"alpha": [1.0], "A": [[NaN]]}',
    "infinite": '{"alpha": [1.0], "A": [[-Infinity]]}',
    "malformed": '{"alpha": [1.0]',
    "no-exit": '{"alpha": [1, 0], "A": [[-1, 1], [1, -1]]}',
}
# A valid model whose stored source target is not: eval refuses it.
BAD_TARGET_MODEL = ('{"alpha": [1.0], "A": [[-1.0]], "meta": {"source_target":'
                    ' {"kind": "pareto", "params": {"shape": -1}}}}')

SIM = ["--jobs", "2000", "--warmup", "100", "--replications", "2"]
PARETO = ["--target", "pareto", "--shape", "3.1"]


def _strict_json(path):
    """Parse a JSON file, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _model_files(root):
    models = {"good": STORED_HYBRID}
    for name, text in {**BAD_MODELS, "bad-target": BAD_TARGET_MODEL}.items():
        path = root / f"{name}.json"
        path.write_text(text)
        models[name] = str(path)
    return models


def _invoke(argv, models, out):
    """Run argv ({name} placeholders name model files) into out, then check
    the contract that holds for every input; returns the result."""
    argv = [a.format(**models) for a in argv] + ["--out", str(out)]
    result = CliRunner().invoke(cli.main, argv, catch_exceptions=False)
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert "Traceback" not in result.output
    written = sorted(out.iterdir()) if out.exists() else []
    if result.exit_code:
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr
        assert written == [], written
    for path in written:
        if path.suffix == ".json":
            _strict_json(path)
    return result


# (argv, exit code): the inputs that exited 1 with a traceback or wrote
# wrong output before every command shared one exit table, and the
# options that are now checked where they enter.
CASES = {
    "queue-invalid-model": (["queue", "--model", "{invalid}"], 2),
    "eval-invalid-model": (["eval", "--model", "{invalid}"], 2),
    "simulate-invalid-model": (["simulate", "--model", "{invalid}", *SIM], 2),
    "queue-defective-model": (["queue", "--model", "{defective}",
                               "--qlen-max", "3"], 2),
    "eval-defective-model": (["eval", "--model", "{defective}"], 2),
    "simulate-defective-model": (["simulate", "--model", "{defective}",
                                  *SIM], 2),
    "queue-nan-model": (["queue", "--model", "{nan}"], 2),
    "eval-infinite-model": (["eval", "--model", "{infinite}"], 2),
    "simulate-malformed-model": (["simulate", "--model", "{malformed}",
                                  *SIM], 2),
    "queue-no-exit-model": (["queue", "--model", "{no-exit}"], 2),
    "eval-no-exit-model": (["eval", "--model", "{no-exit}"], 2),
    "simulate-no-exit-model": (["simulate", "--model", "{no-exit}", *SIM], 2),
    "eval-bad-source-target": (["eval", "--model", "{bad-target}"], 2),
    "queue-adjust-mean-negative": (["queue", "--model", "{good}",
                                    "--adjust-mean", "-1"], 2),
    "queue-adjust-mean-nan": (["queue", "--model", "{good}",
                               "--adjust-mean", "nan"], 2),
    "queue-lam-0": (["queue", "--model", "{good}", "--lam", "0"], 2),
    "queue-lam-nan": (["queue", "--model", "{good}", "--lam", "nan"], 2),
    "queue-lam-inf": (["queue", "--model", "{good}", "--lam", "inf"], 2),
    "queue-unstable": (["queue", "--model", "{good}", "--lam", "50"], 2),
    "queue-qlen-max-negative": (["queue", "--model", "{good}",
                                 "--qlen-max", "-1"], 2),
    "queue-wait-grid-negative": (["queue", "--model", "{good}",
                                  "--wait-grid", "-1:2:5"], 2),
    "queue-wait-grid-steps-x": (["queue", "--model", "{good}",
                                 "--wait-grid", "0:2:x"], 2),
    "queue-wait-grid-infinite": (["queue", "--model", "{good}",
                                  "--wait-grid", "0:inf:3"], 2),
    "queue-wait-grid-no-steps": (["queue", "--model", "{good}",
                                  "--wait-grid", "0:2:0"], 2),
    "eval-grid-negative": (["eval", "--model", "{good}",
                            "--grid", "-1:2:5"], 2),
    "eval-grid-two-parts": (["eval", "--model", "{good}",
                             "--grid", "0:2"], 2),
    "eval-log-grid-from-0": (["eval", "--model", "{good}", "--log-grid",
                              "--grid", "0:2:5"], 2),
    "simulate-wait-grid-steps-x": (["simulate", "--model", "{good}", *SIM,
                                    "--wait-grid", "0:1:x"], 2),
    "simulate-qlen-max-negative": (["simulate", "--model", "{good}", *SIM,
                                    "--qlen-max", "-1"], 2),
    "simulate-lam-nan": (["simulate", *PARETO, *SIM, "--lam", "nan"], 2),
    "simulate-model-with-target": (["simulate", "--model", "{good}", *PARETO,
                                    *SIM], 2),
    "simulate-no-replications": (["simulate", *PARETO, "--jobs", "2000",
                                  "--warmup", "100", "--replications",
                                  "0"], 2),
    "compare-unknown-method": (["compare", *PARETO, "--methods",
                                "bph,xyz"], 2),
    "fit-lognormal-mu-nan": (["fit", "--target", "lognormal", "--mu", "nan",
                              "--sigma", "2"], 2),
    "fit-lognormal-sigma-0": (["fit", "--target", "lognormal", "--mu", "0",
                               "--sigma", "0"], 2),
    "fit-lr-nan": (["fit", *PARETO, "--lr", "nan"], 2),
    "fit-grid-window-nan": (["fit", *PARETO, "--grid-window", "0,nan"], 2),
    "fit-tail-window-infinite": (["fit", *PARETO, "--max-iters", "0",
                                  "--tail-window", "1,inf"], 2),
    "fit-weights-nan": (["fit", *PARETO, "--weights", "nan,1,1"], 2),
    "fit-pareto-0.3-body-edge-above-grid": (["fit", "--target", "pareto",
                                             "--shape", "0.3"], 2),
    "fit-k-50-points-collide": (["fit", *PARETO, "--k", "50",
                                 "--max-iters", "2"], 3),
    "fit-lognormal-1-1": (["fit", "--target", "lognormal", "--mu", "1",
                           "--sigma", "1"], 3),
    "fit-weibull-0.7-nonpositive-residual": (["fit", "--target", "weibull",
                                              "--scale", "1", "--shape",
                                              "0.7", "--max-iters", "2"], 3),
    "fit-max-iters-negative": (["fit", *PARETO, "--max-iters", "-1"], 2),
    "fit-max-iters-0": (["fit", *PARETO, "--max-iters", "0"], 0),
    "fit-lognormal-mu-0": (["fit", "--target", "lognormal", "--mu", "0",
                            "--sigma", "2", "--max-iters", "2"], 0),
    "simulate-lognormal-mu-negative": (["simulate", "--target", "lognormal",
                                        "--mu", "-1", "--sigma", "2",
                                        *SIM], 0),
    "simulate-one-replication": (["simulate", "--model", "{good}",
                                  "--jobs", "2000", "--warmup", "100",
                                  "--replications", "1"], 0),
}

# The whole stderr line of the rows whose message is pinned too.
MESSAGES = {"fit-pareto-0.3-body-edge-above-grid":
            "the target CCDF stays above 0.005 up to the grid top 1e+06; "
            "set --tail-window",
            "fit-k-50-points-collide":
            "fit failed: fit points must be pairwise distinct",
            "fit-weibull-0.7-nonpositive-residual":
            "fit failed: nonpositive residual at stage 4"}


# The residual-clamp UserWarning of a failing fit is not under test here.
@pytest.mark.filterwarnings("ignore:residual CCDF clamped")
@pytest.mark.parametrize("name", CASES)
def test_exit_code_table(tmp_path, name):
    argv, code = CASES[name]
    result = _invoke(argv, _model_files(tmp_path), tmp_path / "out")
    assert result.exit_code == code, result.output
    if code == 3:
        assert result.stderr.startswith("fit failed: ")
    if name in MESSAGES:
        assert result.stderr == MESSAGES[name] + "\n"


def test_one_replication_writes_null_halfwidths(tmp_path):
    result = _invoke(CASES["simulate-one-replication"][0],
                     _model_files(tmp_path), tmp_path / "out")
    assert result.exit_code == 0
    doc = _strict_json(tmp_path / "out" / "sim_metrics.json")
    for name, est in doc["estimates"].items():
        assert est["halfwidth95"] is None, name
        assert math.isfinite(est["mean"]), name


def test_exit_code_without_standalone_mode(tmp_path):
    # In-process callers run click with standalone_mode=False, where click
    # returns a ctx.exit code instead of raising it: the code must still
    # arrive as a SystemExit.
    with pytest.raises(SystemExit) as info:
        cli.main(["queue", "--model", STORED_HYBRID, "--lam", "0",
                  "--out", str(tmp_path)], standalone_mode=False)
    assert info.value.code == cli.EXIT_CONFIG


def test_non_monotone_bph_values_raise_invalid_model():
    with pytest.raises(InvalidModelError, match="not monotone"):
        bph.build_from_ccdf([0.2, 0.5, 0.4])


@pytest.mark.parametrize("mu", [0.0, -1.0, 3.5])
def test_lognormal_mu_may_be_any_finite_real(mu):
    TargetDistribution(kind="lognormal", params={"mu": mu, "sigma": 2.0})


@pytest.mark.parametrize("params", [
    {"mu": math.nan, "sigma": 2.0}, {"mu": math.inf, "sigma": 2.0},
    {"mu": 0.0, "sigma": 0.0}, {"mu": 0.0, "sigma": -1.0},
], ids=["mu-nan", "mu-inf", "sigma-0", "sigma-negative"])
def test_lognormal_rejects_non_finite_mu_and_nonpositive_sigma(params):
    with pytest.raises(ValueError):
        TargetDistribution(kind="lognormal", params=params)


# -- command lines drawn from pools of valid and invalid values -----------

def _opt(name, values):
    """Strategy for [name, value] or [] (option left out)."""
    return st.sampled_from([[]] + [[name, v] for v in values])


TARGETS = st.sampled_from([
    PARETO, ["--target", "pareto", "--shape", "-1"],
    ["--target", "lognormal", "--mu", "0", "--sigma", "2"],
    ["--target", "lognormal", "--mu", "nan", "--sigma", "2"],
    ["--target", "burr", "--c", "2", "--d", "1"],
    ["--target", "burr", "--c", "2"],
    ["--target", "weibull", "--scale", "5", "--shape", "0.2"],
    ["--target", "pareto", "--shape", "3.1", "--window", "5,1"],
    [],
])
# The good model as often as all the bad ones together.
MODELS = st.sampled_from(["{good}"] * len(BAD_MODELS)
                         + [f"{{{m}}}" for m in BAD_MODELS])
RANGES = ["0:5:6", "1:4:3", "-1:2:5", "0:2:x", "0:inf:3", "1:2:0", "1:2"]
RATES = ["0.5", "2", "50", "0", "-1", "nan", "inf"]
# Small fits: a low order and grid, and at most 2 Adam steps.
FIT_SIZE = ["--bph-order", "20", "--grid-size", "64"]

COMMANDS = st.one_of(
    st.tuples(st.just(["fit", *FIT_SIZE]), TARGETS,
              _opt("--method", ["bph", "he", "bph_he"]),
              _opt("--k", ["2", "0", "50"]),
              _opt("--lr", ["0.05", "0", "nan"]),
              _opt("--weights", ["0.6,0.2,0.2", "nan,1,1"]),
              _opt("--tail-window", ["1,50", "5,1", "1,inf"]),
              st.sampled_from([["--max-iters", "2"], ["--max-iters", "0"]])),
    st.tuples(st.just(["compare", *FIT_SIZE, "--max-iters", "2"]), TARGETS,
              _opt("--methods", ["bph,he", "bph_he", "bph,xyz", ","])),
    st.tuples(st.just(["eval", "--grid", "0:5:6", "--model"]),
              MODELS.map(lambda m: [m]), _opt("--grid", RANGES),
              st.sampled_from([[], ["--log-grid"]])),
    st.tuples(st.just(["queue", "--model"]), MODELS.map(lambda m: [m]),
              _opt("--lam", RATES), _opt("--adjust-mean", RATES),
              _opt("--wait-grid", RANGES), _opt("--qlen-max", ["4", "-1"])),
    st.tuples(st.just(["simulate", "--jobs", "2000", "--warmup", "100"]),
              st.one_of(TARGETS, MODELS.map(lambda m: ["--model", m])),
              _opt("--lam", RATES), _opt("--replications", ["1", "2", "0"]),
              _opt("--wait-grid", RANGES), _opt("--qlen-max", ["4", "-1"]),
              st.sampled_from([[], ["--curves"]])),
).map(lambda parts: [a for part in parts for a in part])


@pytest.mark.filterwarnings("ignore:residual CCDF clamped")
@given(argv=COMMANDS)
@settings(max_examples=200, deadline=None)
def test_any_command_line_keeps_the_contract(argv):
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        _invoke(argv, _model_files(root), root / "out")
