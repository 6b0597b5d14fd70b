"""Phase-type core: validation, evaluation, moments, scaling, sampling.

Oracles: closed-form exponential and Erlang distributions (where CCDF,
PDF, and moments are elementary), scipy's dense matrix exponential for
cross-checking uniformization on random generators, the sums over the
exponential stages for the moments of structured models, sample moments
for the chain simulator, and the exact CCDF and the chain walk
(two-sample KS) for the one-step sampler of structured models.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from heavytail_ph import bph, fitting, phmodel
from heavytail_ph.optimizer import AdamConfig
from heavytail_ph.phmodel import PROB_NOISE_TOL, PhaseTypeModel

from conftest import random_stable_ph

STORED_HYBRID = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "pareto31_hybrid_k4_n100.json")


def exponential_model(rate):
    return PhaseTypeModel(alpha=[1.0], A=[[-rate]])


def erlang_model(stages, rate):
    A = np.diag(-rate * np.ones(stages))
    A[np.arange(stages - 1), np.arange(1, stages)] = rate
    alpha = np.zeros(stages)
    alpha[0] = 1.0
    return PhaseTypeModel(alpha=alpha, A=A)


# -- construction and validation ------------------------------------------

def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        PhaseTypeModel(alpha=[1.0, 0.0], A=[[-1.0]])


def test_small_negative_alpha_clamped():
    m = PhaseTypeModel(alpha=[1.0, -1e-14], A=[[-1.0, 0.0], [0.0, -2.0]])
    assert m.alpha[1] == 0.0


def test_validate_flags_bad_alpha():
    issues = phmodel.validate(PhaseTypeModel(alpha=[1.2], A=[[-1.0]]))
    assert any("exceeds 1" in s for s in issues)


def test_validate_flags_bad_diagonal():
    # Bypass any construction-time checks by validating directly.
    m = PhaseTypeModel(alpha=[1.0], A=[[0.5]])
    issues = phmodel.validate(m)
    assert any("diagonal" in s for s in issues)


def test_validate_accepts_random_models():
    rng = np.random.default_rng(7)
    for order in (1, 3, 6):
        assert phmodel.validate(random_stable_ph(rng, order)) == []


def _validate_loop(model):
    """Per-entry reference for phmodel.validate, the loop it replaced."""
    issues = []
    alpha, A = model.alpha, model.A
    for i, a in enumerate(alpha):
        if a < -PROB_NOISE_TOL:
            issues.append(f"alpha[{i}] negative: {a:.3e}")
        if a > 1.0 + PROB_NOISE_TOL:
            issues.append(f"alpha[{i}] exceeds 1: {a:.3e}")
    total = float(alpha.sum())
    if total > 1.0 + PROB_NOISE_TOL or total < 0.0:
        issues.append(f"alpha sums to {total:.12f}, outside [0, 1]")
    n = model.order
    for i in range(n):
        if A[i, i] >= 0:
            issues.append(f"A[{i},{i}] nonnegative diagonal: {A[i, i]:.3e}")
        for j in range(n):
            if i != j and A[i, j] < 0:
                issues.append(f"A[{i},{j}] negative off-diagonal: {A[i, j]:.3e}")
        row_sum = float(A[i].sum())
        if row_sum > 1e-9 * max(1.0, abs(A[i, i])):
            issues.append(f"row {i} sums to {row_sum:.3e} > 0")
    return issues


@given(order=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       breaks=st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_validate_matches_per_entry_loop(order, seed, breaks):
    # [DERIVED] the array checks report the same messages, in the same
    # order, as the per-entry loop, on valid models and on models with
    # random entries overwritten (any invariant may break).
    rng = np.random.default_rng(seed)
    m = random_stable_ph(rng, order)
    alpha, A = m.alpha.copy(), m.A.copy()
    for _ in range(breaks):
        i, j = rng.integers(order, size=2)
        kind = rng.random()
        if kind < 0.3:
            alpha[i] = rng.uniform(-1.0, 2.0)
        elif kind < 0.5:
            # A row sum on either side of its tolerance, 1e-9 * |diagonal|.
            A[i, i] -= A[i].sum() - rng.uniform(0.0, 2e-9) * abs(A[i, i])
        else:
            A[i, j] = rng.uniform(-2.0, 2.0)
    m = PhaseTypeModel(alpha=alpha, A=A)
    assert phmodel.validate(m) == _validate_loop(m)


def test_proper_and_defective():
    assert exponential_model(1.0).is_proper
    assert not PhaseTypeModel(alpha=[0.7], A=[[-1.0]]).is_proper


# -- evaluation ------------------------------------------------------------

def test_exponential_ccdf_pdf():
    # [DERIVED] order-1 PH is the exponential distribution.
    m = exponential_model(2.0)
    xs = np.array([0.0, 0.3, 1.0, 5.0])
    assert phmodel.ccdf(m, xs) == pytest.approx(np.exp(-2.0 * xs), rel=1e-12)
    assert phmodel.pdf(m, xs) == pytest.approx(2.0 * np.exp(-2.0 * xs),
                                               rel=1e-12)


def test_erlang_ccdf():
    # [DERIVED] Erlang(3, 2) CCDF = e^-2x (1 + 2x + 2x^2).
    m = erlang_model(3, 2.0)
    for x in (0.1, 1.0, 4.0):
        exact = math.exp(-2 * x) * (1 + 2 * x + 2 * x * x)
        assert phmodel.ccdf(m, x) == pytest.approx(exact, rel=1e-11)


def test_ccdf_matches_dense_expm():
    # [DERIVED] independent oracle: alpha @ expm(xA) @ 1 via scipy.
    rng = np.random.default_rng(11)
    m = random_stable_ph(rng, 5)
    for x in (0.2, 1.7, 9.0):
        exact = float(m.alpha @ expm(x * m.A) @ np.ones(5))
        assert phmodel.ccdf(m, x) == pytest.approx(exact, rel=1e-10)


def test_ccdf_scalar_and_vector_agree():
    m = erlang_model(2, 1.0)
    xs = np.array([0.5, 2.0])
    vec = phmodel.ccdf(m, xs)
    # The grid walk is incremental, so values match fresh scalar
    # evaluations to rounding rather than bit-exactly.
    assert vec[0] == pytest.approx(phmodel.ccdf(m, 0.5), rel=1e-12)
    assert vec[1] == pytest.approx(phmodel.ccdf(m, 2.0), rel=1e-12)


def test_unsorted_grid_handled():
    m = erlang_model(4, 3.0)
    xs = np.array([5.0, 0.1, 2.0, 0.1])
    vals = phmodel.ccdf(m, xs)
    assert vals[1] == vals[3]
    assert vals[0] < vals[2] < vals[1]


def test_cdf_complement():
    m = erlang_model(3, 1.5)
    xs = np.linspace(0.0, 8.0, 25)
    cdf = 1.0 - phmodel.ccdf(m, xs)
    assert cdf + phmodel.ccdf(m, xs) == pytest.approx(
        np.ones_like(xs), abs=1e-12)


def test_negative_x_rejected():
    with pytest.raises(ValueError):
        phmodel.ccdf(exponential_model(1.0), -1.0)


def test_invalid_model_rejected_on_eval():
    with pytest.raises(ValueError):
        phmodel.ccdf(PhaseTypeModel(alpha=[1.0], A=[[1.0]]), 1.0)


# -- moments and scaling --------------------------------------------------

def test_exponential_moments():
    # [TRIVIAL] m_k = k! / rate^k.
    m = exponential_model(0.5)
    assert phmodel.moment(m, 1) == pytest.approx(2.0, rel=1e-13)
    assert phmodel.moment(m, 2) == pytest.approx(8.0, rel=1e-13)
    assert phmodel.cv(m) == pytest.approx(1.0, rel=1e-12)


def test_erlang_moments():
    # [DERIVED] Erlang(k, r): mean k/r, cv 1/sqrt(k).
    m = erlang_model(4, 2.0)
    assert phmodel.mean(m) == pytest.approx(2.0, rel=1e-13)
    assert phmodel.cv(m) == pytest.approx(0.5, rel=1e-12)


def test_moment_matches_quadrature():
    # [DERIVED] m1 = integral of the CCDF, checked by quadrature.
    from scipy.integrate import quad
    rng = np.random.default_rng(3)
    m = random_stable_ph(rng, 4)
    val, _ = quad(lambda x: phmodel.ccdf(m, x), 0.0, np.inf, limit=200)
    assert phmodel.mean(m) == pytest.approx(val, rel=1e-8)


def _dense_moment(model, k):
    """k! * alpha * (-A)^{-k} * 1 by k linear solves."""
    y = np.ones(model.order)
    for _ in range(k):
        y = np.linalg.solve(-model.A, y)
    return math.factorial(k) * float(model.alpha @ y)


def _stage_moments(model, n):
    """m1 and m2 of a model whose first n phases are a Bernstein body and
    whose other phases are HE phases: a chain started in body phase j
    passes through the rates r_j, ..., r_{n-1}, so its absorption time has
    mean sum_i 1/r_i and second moment sum_i 1/r_i^2 plus the mean squared;
    an HE phase at rate lam gives 1/lam and 2/lam^2."""
    inv = -1.0 / np.diag(model.A)
    m1 = np.concatenate([np.cumsum(inv[:n][::-1])[::-1], inv[n:]])
    inv2 = inv * inv
    var = np.concatenate([np.cumsum(inv2[:n][::-1])[::-1], inv2[n:]])
    return float(model.alpha @ m1), float(model.alpha @ (var + m1 * m1))


@pytest.mark.parametrize("name", ["stored-hybrid", "scaled-hybrid", "bph",
                                  "he", "bph_he"])
def test_structured_moments_are_closed_form(fitted_models, name):
    # [ORACLE] m1 and m2 of a structured model are sums over its
    # exponential stages.
    m, n = fitted_models[name]
    for k, expected in zip((1, 2), _stage_moments(m, n)):
        assert phmodel.moment(m, k) == pytest.approx(expected, rel=1e-12)


def test_unstructured_moments_take_the_dense_solves():
    m = random_stable_ph(np.random.default_rng(4), 5)
    assert phmodel.bernstein_structure(m.A) is None
    for k in (1, 2, 3):
        assert phmodel.moment(m, k) == _dense_moment(m, k)


def test_scale_to_mean_exact():
    rng = np.random.default_rng(5)
    m = random_stable_ph(rng, 3)
    scaled = phmodel.scale_to_mean(m, 7.5)
    assert phmodel.mean(scaled) == pytest.approx(7.5, rel=1e-12)
    # Time rescaling leaves the CV unchanged.
    assert phmodel.cv(scaled) == pytest.approx(phmodel.cv(m), rel=1e-12)


def test_scale_to_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        phmodel.scale_to_mean(exponential_model(1.0), 0.0)


# -- persistence -----------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    # A random model without meta, and the stored order-104 Pareto(3.1)
    # hybrid with its fit metadata.
    rng = np.random.default_rng(9)
    models = [random_stable_ph(rng, 3), PhaseTypeModel.load(STORED_HYBRID)]
    for m in models:
        path = tmp_path / "model.json"
        m.save(path)
        back = PhaseTypeModel.load(path)
        assert np.array_equal(back.alpha, m.alpha)
        assert np.array_equal(back.A, m.A)
        assert back.meta == m.meta
        with open(path) as fh:
            assert json.load(fh) == {"format": 1, **m.to_dict()}
    assert models[1].order == 104 and models[1].meta["kind"] == "bph_he"


def _json_dumps_text(model):
    """The model file as written row by row through json.dumps."""
    doc = model.to_dict()
    rows = ",\n    ".join(map(json.dumps, doc["A"]))
    return (f'{{\n  "format": 1,\n'
            f'  "alpha": {json.dumps(doc["alpha"])},\n'
            f'  "A": [\n    {rows}\n  ],\n'
            f'  "meta": {json.dumps(doc["meta"])}\n}}\n')


def test_save_matches_json_dumps_rows(tmp_path):
    # Zeros of A are written without json.dumps: -0.0, subnormals, huge and
    # non-finite entries must still read as json.dumps writes them.
    A = np.zeros((5, 5))
    A[0, :] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    A[2, 1], A[3, 3], A[4, 0] = np.inf, np.nan, -np.inf
    odd = PhaseTypeModel(alpha=np.full(5, 0.2), A=A, meta={"tag": "x"})
    for m in (odd, PhaseTypeModel.load(STORED_HYBRID)):
        path = tmp_path / "model.json"
        m.save(path)
        assert path.read_text() == _json_dumps_text(m)


# -- sampling --------------------------------------------------------------

def test_sample_moments_match():
    # [DERIVED] sample mean/CV of the chain simulator vs analytic moments.
    rng = np.random.default_rng(1)
    m = random_stable_ph(rng, 3)
    draws = phmodel.sample_with_rng(m, np.random.default_rng(42), 200_000)
    assert draws.min() >= 0.0
    assert draws.mean() == pytest.approx(phmodel.mean(m), rel=0.02)
    cv_emp = draws.std() / draws.mean()
    assert cv_emp == pytest.approx(phmodel.cv(m), rel=0.05)


def test_sample_deterministic():
    m = exponential_model(1.0)
    a = phmodel.sample_with_rng(m, np.random.default_rng(3), 100)
    b = phmodel.sample_with_rng(m, np.random.default_rng(3), 100)
    assert np.array_equal(a, b)


def test_sample_requires_proper():
    with pytest.raises(ValueError):
        phmodel.sample_with_rng(PhaseTypeModel(alpha=[0.6], A=[[-1.0]]),
                                np.random.default_rng(0), 10)


@pytest.fixture(scope="module")
def fitted_models(pareto):
    """Every kind of model the package writes, with its body size n."""
    stored = PhaseTypeModel.load(STORED_HYBRID)
    return {
        "stored-hybrid": (stored, 100),
        "scaled-hybrid": (phmodel.scale_to_mean(stored, 2.0), 100),
        "bph": (fitting.fit_bph(pareto, n=40).model, 40),
        "he": (fitting.fit_he(pareto, k=3).model, 1),
        "bph_he": (fitting.fit_bph_he(pareto, k=2, n=30,
                                      adam=AdamConfig(max_iters=0)).model,
                   30),
    }


def test_structure_accepts_fitted_models(fitted_models):
    for name, (m, n) in fitted_models.items():
        found = phmodel.bernstein_structure(m.A)
        assert found is not None, name
        assert found[0] == n, name
        c = found[1]
        np.testing.assert_allclose(m.A[:n, :n], c * bph.generator(n),
                                   rtol=1e-12, err_msg=name)
        tail = m.A[n:, n:]
        assert np.array_equal(tail, np.diag(np.diag(tail))), name


def _reversed(model):
    """The same distribution with its phases in reverse order."""
    return PhaseTypeModel(alpha=model.alpha[::-1], A=model.A[::-1, ::-1])


def _with_entry(model, i, j, value):
    A = model.A.copy()
    A[i, j] = value
    return PhaseTypeModel(alpha=model.alpha, A=A)


def _rejected_models():
    stored = PhaseTypeModel.load(STORED_HYBRID)
    chain = erlang_model(3, 1.0).A.copy()
    chain[1, 1], chain[1, 2] = -2.5, 2.5   # rates 1, 2.5, 1
    return {
        "random": random_stable_ph(np.random.default_rng(2), 4),
        "non-arithmetic-chain": PhaseTypeModel(alpha=[1.0, 0.0, 0.0],
                                               A=chain),
        # An HE phase of the stored hybrid that may also jump to the body.
        "extra-entry": _with_entry(stored, 101, 0, 0.5 * -stored.A[101, 101]),
        # A body phase that exits early, and an HE phase that passes on.
        "early-exit": _with_entry(stored, 49, 50, 0.0),
        "late-pass": _with_entry(stored, 100, 101, -stored.A[100, 100]),
        "reversed": _reversed(stored),
    }


@pytest.mark.parametrize("name", ["random", "non-arithmetic-chain",
                                  "extra-entry", "early-exit", "late-pass",
                                  "reversed"])
def test_structure_rejects_other_matrices(name):
    m = _rejected_models()[name]
    assert not phmodel.validate(m)
    assert phmodel.bernstein_structure(m.A) is None


@pytest.mark.parametrize("name", ["stored-hybrid", "scaled-hybrid", "he",
                                  "bph_he"])
def test_structured_draws_match_exact_ccdf(fitted_models, name):
    # Binomial z of the draws above the Pareto(3.1) quantiles the models
    # approximate, against the exact model CCDF there.
    m, _ = fitted_models[name]
    levels = np.array([0.5, 0.1, 1e-2, 1e-3, 1e-4])
    xs = (levels ** (-1.0 / 3.1) - 1.0) * phmodel.mean(m) * 2.1
    p = phmodel.ccdf(m, xs)
    count = 1_000_000
    draws = phmodel.sample_with_rng(m, np.random.default_rng(23), count)
    above = (draws[:, None] > xs).sum(axis=0)
    z = (above - count * p) / np.sqrt(count * p * (1.0 - p))
    assert np.all(np.abs(z) <= 5.0), z


@pytest.mark.parametrize("name", ["stored-hybrid", "bph", "bph_he"])
def test_structured_draws_match_chain_walk(fitted_models, name):
    # Reversing the phase order hides the structure, so the reversed model
    # is sampled by the generic chain walk.
    from scipy.stats import ks_2samp
    m, _ = fitted_models[name]
    walk = _reversed(m)
    assert phmodel.bernstein_structure(walk.A) is None
    rng = np.random.default_rng(29)
    fast = phmodel.sample_with_rng(m, rng, 100_000)
    slow = np.concatenate([phmodel.sample_with_rng(walk, rng, 25_000)
                           for _ in range(4)])
    assert ks_2samp(fast, slow).pvalue > 1e-3


def test_structured_sampling_memory():
    # The chain walk held an (active x order) matrix: about 39 MB at the
    # peak for these 40,000 draws.
    m = PhaseTypeModel.load(STORED_HYBRID)
    rng = np.random.default_rng(31)
    tracemalloc.start()
    try:
        phmodel.sample_with_rng(m, rng, 40_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
