"""Continuous phase-type distributions as (alpha, A) vector-matrix pairs.

Evaluation of the matrix exponential goes through uniformization, which
preserves nonnegativity and has a certified truncation error. A grid
walk costs vector series over its span, except that a gap repeated
along the grid (a uniform grid) is uniformized once as a matrix and then
costs one vector-matrix product each time. Every
model takes its moments from linear solves against -A, never an explicit
inverse. When A has the Bernstein-body-plus-HE structure of the fitted
models (`bernstein_structure`), sampling draws each absorption time in one
step; any other model is sampled by walking the underlying chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import as_grid

# Probability vectors: entries may carry this much negative noise before
# being treated as structurally invalid (they are clamped to 0 below it).
PROB_NOISE_TOL = 1e-12
PROPER_SUM_TOL = 1e-9  # a proper model's alpha sums to 1 within this
UNIFORMIZATION_TAIL = 1e-13  # truncation of uniformization's Poisson tail
CCDF_UNDERFLOW = 1e-300  # CCDF values below this are reported as 0

# Largest uniformized step taken in one Poisson series; longer horizons are
# split so the series stays short and e^{-q dx} representable.
_MAX_POISSON_STEP = 400.0

# Buckets of the start-phase guide table: a power of two, so that the
# bucket of a uniform draw u, floor(u * _GUIDE_BUCKETS), is exact.
_GUIDE_BUCKETS = 4096

# Most entries of the chain walk's (draws x order) jump comparison held at
# once (1 MB of float64), so that its memory does not grow with the count.
_WALK_BLOCK = 1 << 17


@dataclass(frozen=True)
class PhaseTypeModel:
    """Initial probability vector plus sub-generator matrix."""

    alpha: np.ndarray
    A: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float).ravel()
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != alpha.size:
            raise ValueError("alpha/A shape mismatch")
        # Tolerated numerical noise: tiny negative probabilities clamp to 0.
        small = (alpha < 0) & (alpha >= -PROB_NOISE_TOL)
        alpha[small] = 0.0
        alpha.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "A", A)

    @property
    def order(self) -> int:
        return self.alpha.size

    @property
    def is_proper(self) -> bool:
        return abs(float(self.alpha.sum()) - 1.0) <= PROPER_SUM_TOL

    @property
    def exit_rates(self) -> np.ndarray:
        return -self.A @ np.ones(self.order)

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"alpha": self.alpha.tolist(), "A": self.A.tolist(),
                "meta": dict(self.meta)}

    @classmethod
    def from_dict(cls, doc: dict) -> "PhaseTypeModel":
        return cls(alpha=np.asarray(doc["alpha"], dtype=float),
                   A=np.asarray(doc["A"], dtype=float),
                   meta=dict(doc.get("meta", {})))

    def save(self, path) -> None:
        """Write the model as JSON, one row of A per line, through json.dumps
        (the C encoder; json.dump to a file and any indent are pure Python).

        Each +0.0 of A is written as json.dumps writes it, "0.0", without a
        call; every other entry, -0.0 included, goes through json.dumps.
        """
        A = self.A
        cells = [["0.0"] * A.shape[1] for _ in range(A.shape[0])]
        written = (A != 0.0) | np.signbit(A)
        for i, j, v in zip(*np.nonzero(written), A[written].tolist()):
            cells[i][j] = json.dumps(v)
        rows = ",\n    ".join("[" + ", ".join(r) + "]" for r in cells)
        with open(path, "w") as fh:
            fh.write(f'{{\n  "format": 1,\n'
                     f'  "alpha": {json.dumps(self.alpha.tolist())},\n'
                     f'  "A": [\n    {rows}\n  ],\n'
                     f'  "meta": {json.dumps(dict(self.meta))}\n}}\n')

    @classmethod
    def load(cls, path) -> "PhaseTypeModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def validate(model: PhaseTypeModel) -> list[str]:
    """Return the list of violated invariants (empty when valid)."""
    issues = []
    alpha, A = model.alpha, model.A
    if not (np.isfinite(alpha).all() and np.isfinite(A).all()):
        issues.append("alpha or A has a non-finite entry")
    for i in np.flatnonzero((alpha < -PROB_NOISE_TOL)
                            | (alpha > 1.0 + PROB_NOISE_TOL)):
        kind = "negative" if alpha[i] < 0 else "exceeds 1"
        issues.append(f"alpha[{i}] {kind}: {alpha[i]:.3e}")
    total = float(alpha.sum())
    if total > 1.0 + PROB_NOISE_TOL or total < 0.0:
        issues.append(f"alpha sums to {total:.12f}, outside [0, 1]")
    # Row by row: the diagonal, then negative off-diagonals, then the sum.
    diag = np.diag(A)
    row_sums = A.sum(axis=1)
    found = [((i, 0, 0), f"A[{i},{i}] nonnegative diagonal: {diag[i]:.3e}")
             for i in np.flatnonzero(diag >= 0)]
    off = A < 0
    np.fill_diagonal(off, False)
    found += [((i, 1, j), f"A[{i},{j}] negative off-diagonal: {A[i, j]:.3e}")
              for i, j in zip(*np.nonzero(off))]
    bad_rows = row_sums > 1e-9 * np.maximum(1.0, np.abs(diag))
    found += [((i, 2, 0), f"row {i} sums to {row_sums[i]:.3e} > 0")
              for i in np.flatnonzero(bad_rows)]
    return issues + [msg for _, msg in sorted(found)]


def _require_valid(model: PhaseTypeModel) -> None:
    issues = validate(model)
    if issues:
        raise ValueError("invalid phase-type model: " + "; ".join(issues))


# -- evaluation -----------------------------------------------------------

def expm_action(v0: np.ndarray, M: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows v0 * e^{x M} for each x in `xs`, in the order given, by
    uniformization.

    M must be a sub-generator (or any matrix with nonpositive row sums and
    negative diagonal). Walks the grid in ascending order incrementally, so
    the vector series cover q * max(xs) in all rather than q * sum(xs).
    With h the smallest positive gap between grid points, when two or
    more of them lie in [h, 2h) (a uniform grid), E = e^{hM} is built once
    as a matrix, and each gap in [h, 2h) advances by v @ E, then by a
    vector series over the remainder dx - h. The remainder is exact
    (Sterbenz), and on a linspace grid it is a few ulps. A uniform grid
    then costs one matrix series plus one vector-matrix product per gap,
    however long the gap.
    """
    n = M.shape[0]
    q = float(np.max(-np.diag(M)))
    P = np.eye(n) + M / q
    order = np.argsort(xs, kind="stable")
    gaps = np.diff(xs[order], prepend=0.0)
    spacings = gaps[1:][gaps[1:] > 0.0]   # gaps[0] is the offset from 0
    h = spacings.min() if spacings.size else 0.0
    E = (_step_matrix(P, q * h)
         if np.count_nonzero(spacings < 2.0 * h) >= 2 else None)
    out = np.empty((xs.size, n))
    v = np.array(v0, dtype=float)
    for idx, dx in zip(order, gaps):
        if E is not None and h <= dx < 2.0 * h:
            v = v @ E
            dx -= h
        while dx > 0.0:
            step = min(dx, _MAX_POISSON_STEP / q)
            v = _uniformization_step(v, P, q * step)
            dx -= step
        out[idx] = v
    return out


def _step_matrix(P: np.ndarray, qh: float) -> np.ndarray:
    """e^{qh (P - I)} as a matrix: the Poisson series of
    `_uniformization_step` on the identity over ceil(qh / 400) equal
    pieces, each as long as one vector step, raised to that power by
    binary powers."""
    pieces = math.ceil(qh / _MAX_POISSON_STEP)
    F = _uniformization_step(np.eye(P.shape[0]), P, qh / pieces)
    return np.linalg.matrix_power(F, pieces)


def _uniformization_step(v: np.ndarray, P: np.ndarray, qdx: float) -> np.ndarray:
    """One Poisson-weighted series step: v * e^{q dx (P - I)}."""
    if qdx == 0.0 or not np.any(v):
        return v
    weight = math.exp(-qdx)
    cum = weight
    vp = v
    acc = weight * vp
    j = 0
    while 1.0 - cum > UNIFORMIZATION_TAIL:
        j += 1
        vp = vp @ P
        weight *= qdx / j
        cum += weight
        acc += weight * vp
    return acc


def ccdf_pdf(model: PhaseTypeModel, x) -> tuple:
    """(F-bar(x), f(x)) from one walk of the grid: the rows alpha e^{xA}
    summed, with an underflow guard at 1e-300, and times -A 1, clamped at
    0."""
    xs, scalar = as_grid(x)
    _require_valid(model)
    rows = expm_action(model.alpha, model.A, xs)
    F = rows.sum(axis=1)
    F[F < CCDF_UNDERFLOW] = 0.0
    f = np.maximum(rows @ model.exit_rates, 0.0)
    return (float(F[0]), float(f[0])) if scalar else (F, f)


def ccdf(model: PhaseTypeModel, x) -> float | np.ndarray:
    """F-bar(x) = alpha e^{xA} 1."""
    return ccdf_pdf(model, x)[0]


def pdf(model: PhaseTypeModel, x) -> float | np.ndarray:
    """f(x) = alpha e^{xA} (-A 1)."""
    return ccdf_pdf(model, x)[1]


# -- moments and scaling --------------------------------------------------

def moment(model: PhaseTypeModel, k: int) -> float:
    """m_k = k! * alpha * (-A)^{-k} * 1, by k successive linear solves."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    _require_valid(model)
    y = np.ones(model.order)
    for _ in range(k):
        y = np.linalg.solve(-model.A, y)
    return math.factorial(k) * float(model.alpha @ y)


def mean(model: PhaseTypeModel) -> float:
    return moment(model, 1)


def cv(model: PhaseTypeModel) -> float:
    m1 = moment(model, 1)
    m2 = moment(model, 2)
    return math.sqrt(max(m2 - m1 * m1, 0.0)) / m1


def scale_to_mean(model: PhaseTypeModel, target_mean: float) -> PhaseTypeModel:
    """Rescale A so the mean becomes target_mean (A_scaled = (m_hat/m) A)."""
    if target_mean <= 0:
        raise ValueError("target mean must be positive")
    m_hat = mean(model)
    if m_hat <= 0:
        raise ValueError("model mean must be positive")
    return PhaseTypeModel(alpha=model.alpha,
                          A=model.A * (m_hat / target_mean),
                          meta=dict(model.meta))


# -- sampling -------------------------------------------------------------

def bernstein_structure(A) -> tuple[int, float] | None:
    """(n, c) when A is c * bph.generator(n) followed by a diagonal block,
    else None.

    Read from A alone: A must be upper bidiagonal; each superdiagonal entry
    is either -A[i,i] (phase i passes on to i+1) or 0 (phase i exits); the
    phases that pass on are exactly 0..n-2; and the rates of phases 0..n-1
    are c*(1..n) to 1e-12 relative. Every model the package writes matches
    (`bph`, `bph_he`, and `he` with n = 1), also after `scale_to_mean`.
    """
    A = np.asarray(A, dtype=float)
    if not np.array_equal(A, np.triu(np.tril(A, 1))):
        return None
    rates, sup = -np.diag(A), np.diag(A, 1)
    passes = sup == rates[:-1]
    if not np.all(passes | (sup == 0.0)):
        return None
    n = 1 + int(np.argmin(passes)) if not passes.all() else rates.size
    if passes[n - 1:].any():
        return None
    c = float(rates[0])
    expected = c * np.arange(1, n + 1)
    if not c > 0 or np.any(np.abs(rates[:n] - expected) > 1e-12 * expected):
        return None
    return n, c


def sample_with_rng(model: PhaseTypeModel, rng: np.random.Generator,
                    count: int) -> np.ndarray:
    """Draw `count` absorption times, advancing a caller-owned generator.

    A model with `bernstein_structure` (n, c) takes one draw per time: a
    chain started in body phase j (0-based) passes through the rates
    c(j+1), ..., cn, so by the Renyi representation of exponential order
    statistics its absorption time is -log(U)/c with U ~ Beta(j+1, n-j),
    drawn as -log1p(-V)/c with V = 1 - U ~ Beta(n-j, j+1); an HE phase
    gives one exponential at its rate. Any other model walks its chain,
    all active draws advancing one jump per sweep, whose next phases are
    looked up a block of at most _WALK_BLOCK // order draws at a time.
    Both draw their start phases by `_draw_phases`, as
    Generator.choice(p=alpha) draws them.
    """
    _require_valid(model)
    if not model.is_proper:
        raise ValueError("sampling requires a proper model "
                         f"(alpha sums to {model.alpha.sum():.12f})")
    n = model.order
    rates = -np.diag(model.A)
    alpha = model.alpha / model.alpha.sum()
    structure = bernstein_structure(model.A)
    if structure is not None:
        return _sample_structured(alpha, rates, *structure, rng, count)
    # Row i: cumulative jump probabilities to phases 0..n-1, then absorption.
    jump = model.A / rates[:, None]
    np.fill_diagonal(jump, 0.0)
    cum = np.cumsum(jump, axis=1)

    phase = _draw_phases(alpha, rng, count)
    times = np.zeros(count)
    active = np.arange(count)
    rows = max(1, _WALK_BLOCK // n)
    while active.size:
        ph = phase[active]
        times[active] += rng.exponential(1.0, size=active.size) / rates[ph]
        r = rng.random(active.size)
        nxt = np.empty(active.size, dtype=np.intp)
        for s in range(0, active.size, rows):
            nxt[s:s + rows] = (cum[ph[s:s + rows]]
                               < r[s:s + rows, None]).sum(axis=1)
        absorbed = nxt >= n
        phase[active[~absorbed]] = nxt[~absorbed]
        active = active[~absorbed]
    return times


def _sample_structured(alpha, rates, n, c, rng, count) -> np.ndarray:
    """One draw per time for a model with `bernstein_structure` (n, c)."""
    phase = _draw_phases(alpha, rng, count)
    times = np.empty(count)
    body = phase < n
    j = phase[body]
    times[body] = -np.log1p(-rng.beta(n - j, j + 1)) / c
    tail = phase[~body]
    times[~body] = rng.exponential(1.0, size=tail.size) / rates[tail]
    return times


def _draw_phases(alpha, rng, count) -> np.ndarray:
    """`count` start phases, equal to Generator.choice(alpha.size,
    size=count, p=alpha) at the same generator state: with cdf the
    cumulative sum of alpha divided by its last entry, the phase of a
    uniform draw u is cdf.searchsorted(u, side="right").

    A guide table (Chen & Asau 1974; Devroye 1986, section III.2.4) of
    _GUIDE_BUCKETS equal buckets of [0, 1) holds that index for every
    bucket in which the CDF takes no step, where it is the same for every
    u; only the draws in the other buckets, about one per phase, search.
    """
    cdf = alpha.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    first = cdf.searchsorted(edges[:-1], side="right")
    guide = np.where(first == cdf.searchsorted(edges[1:], side="left"),
                     first, -1)
    u = rng.random(count)
    phase = guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
    steps = np.flatnonzero(phase < 0)
    phase[steps] = cdf.searchsorted(u[steps], side="right")
    return phase
