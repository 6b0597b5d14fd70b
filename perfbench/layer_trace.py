"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's side, around the public
functions of each `heavytail_ph` module; the package itself is not
edited. A wrapper replaces the function on every package module that
binds it (`optimizer.build_hybrid`, `bph.bernstein_he_ccdf`, ...), not
only on the module that defines it, so a call is traced whichever import
path reaches it.

Two kinds of boundary:

- span: each call records (id, parent id, name, thread, start, end), kept
  in memory and written out when the benchmark ends. Parents come from a
  per-thread stack, so a layer's self time is its duration minus that of
  its direct children.
- counter: the scalar hot paths (`targets.ccdf`, `hefit.he_ccdf`,
  `targets.ccdf_inverse`), called millions of times per fit, only add to
  a call count and accumulated time.

Counters are updated under a lock, because simulation replications call
the samplers from pool threads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import warnings
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "heavytail_ph"


@dataclass(frozen=True)
class Boundary:
    key: str          # "<layer>.<function>"
    module: str       # defining module, relative to the package
    attr: str         # function name, or "Class.method"
    hot: bool = False  # counter only, no spans


BOUNDARIES = [
    Boundary("optimizer.optimize", "optimizer", "optimize"),
    Boundary("optimizer.loss", "optimizer", "LossEvaluator.__call__"),
    Boundary("hybrid.build_hybrid", "hybrid", "build_hybrid"),
    Boundary("hybrid.residual_ccdf", "hybrid", "residual_ccdf"),
    Boundary("hybrid.hybrid_ccdf", "hybrid", "hybrid_ccdf"),
    Boundary("hefit.fit_defective", "hefit", "fit_defective"),
    Boundary("hefit.he_ccdf", "hefit", "he_ccdf", hot=True),
    Boundary("bph.build_from_ccdf", "bph", "build_from_ccdf"),
    Boundary("targets.ccdf", "targets", "ccdf", hot=True),
    Boundary("targets.ccdf_inverse", "targets", "ccdf_inverse", hot=True),
    Boundary("targets.numeric_moment", "targets", "numeric_moment"),
    Boundary("backend.bernstein_he_ccdf", "_backend", "bernstein_he_ccdf"),
    Boundary("backend.lindley_waits", "_backend", "lindley_waits"),
    Boundary("fitting.fit_bph_he", "fitting", "fit_bph_he"),
    Boundary("fitting.grid_mae", "fitting", "grid_mae"),
    Boundary("phmodel.validate", "phmodel", "validate"),
    Boundary("phmodel.moment", "phmodel", "moment"),
    Boundary("phmodel.expm_action", "phmodel", "expm_action"),
    Boundary("phmodel.load", "phmodel", "PhaseTypeModel.load"),
    Boundary("phmodel.save", "phmodel", "PhaseTypeModel.save"),
    Boundary("phmodel.sample_with_rng", "phmodel", "sample_with_rng"),
    Boundary("queueing.queue_length_dist", "queueing", "queue_length_dist"),
    Boundary("queueing.waiting_time_ccdf", "queueing", "waiting_time_ccdf"),
    Boundary("queueing.mph1_metrics", "queueing", "mph1_metrics"),
    Boundary("simqueue.run_mg1", "simqueue", "run_mg1"),
    Boundary("simqueue.draw_target", "simqueue", "draw_target"),
    # One replication's busy time on its pool thread; private, but it is
    # the only place the per-replication time is visible.
    Boundary("simqueue.replication", "simqueue", "_one_replication"),
    Boundary("cli.sha256", "cli", "_sha256"),
    Boundary("cli.write_json", "cli", "Run.write_json"),
    Boundary("cli.write_csv", "cli", "Run.write_csv"),
    Boundary("cli.finish", "cli", "Run.finish"),
]

# Output writes and digests of the CLI; nested calls count once.
IO_KEYS = frozenset({"cli.sha256", "cli.write_json", "cli.write_csv",
                     "cli.finish", "phmodel.save"})

_IO_COMMON = ("cli.sha256", "cli.write_json", "cli.finish")

# Boundaries that must fire in each workload's traced run. A refactor that
# moves a call away from one of them fails the run instead of reporting 0.
EXPECTED = {
    "fit": ("optimizer.optimize", "optimizer.loss", "hybrid.build_hybrid",
            "hybrid.residual_ccdf", "hybrid.hybrid_ccdf",
            "hefit.fit_defective", "hefit.he_ccdf", "bph.build_from_ccdf",
            "targets.ccdf", "targets.ccdf_inverse", "targets.numeric_moment",
            "backend.bernstein_he_ccdf", "fitting.fit_bph_he",
            "fitting.grid_mae", "phmodel.validate", "phmodel.moment",
            "phmodel.save") + _IO_COMMON,
    "validate": ("phmodel.load", "phmodel.validate", "phmodel.moment",
                 "phmodel.expm_action", "phmodel.sample_with_rng",
                 "queueing.queue_length_dist", "queueing.waiting_time_ccdf",
                 "queueing.mph1_metrics", "simqueue.run_mg1",
                 "simqueue.draw_target", "simqueue.replication",
                 "backend.lindley_waits", "targets.ccdf_inverse",
                 "targets.ccdf", "cli.write_csv") + _IO_COMMON,
}


class Stat:
    __slots__ = ("calls", "ok", "seconds", "units", "warnings")

    def __init__(self):
        self.calls = 0
        self.ok = 0
        self.seconds = 0.0
        self.units = 0
        self.warnings = 0


def _units(key, args, result):
    """Work done by one call, beyond the call itself."""
    if key in ("phmodel.sample_with_rng", "simqueue.draw_target"):
        return int(args[2])                 # draws requested
    if key == "optimizer.optimize":
        return len(result[1]) - 1           # Adam steps (trace minus start)
    return 0


def _ok(key, args, result):
    if key == "optimizer.loss":
        return bool(args[0].last_build_ok)  # the evaluator after the call
    return True


class Tracer:
    """Installs the wrappers and accumulates what they record."""

    def __init__(self):
        self.stats = {b.key: Stat() for b in BOUNDARIES}
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for b in BOUNDARIES:
            owner_mod = importlib.import_module(f"{PACKAGE}.{b.module}")
            if "." in b.attr:
                cls_name, meth = b.attr.split(".")
                cls = getattr(owner_mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(b, raw.__func__))
                else:
                    wrapped = self._wrap(b, raw)
                self._patch(cls, meth, raw, wrapped)
                continue
            original = getattr(owner_mod, b.attr)
            wrapped = self._wrap(b, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _patch(self, obj, name, original, wrapped) -> None:
        setattr(obj, name, wrapped)
        self._patches.append((obj, name, original))

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, b: Boundary, fn):
        stat, lock = self.stats[b.key], self._lock
        if b.hot:
            def counted(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    with lock:
                        stat.calls += 1
                        stat.seconds += dt
            return counted

        key, spans, local, ids = b.key, self.spans, self._local, self._ids
        catch = key == "hybrid.residual_ccdf"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            ok, units, caught = False, 0, ()
            t0 = perf_counter()
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", UserWarning)
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
                ok = _ok(key, args, result)
                units = _units(key, args, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((span_id, parent, key, threading.get_ident(),
                              t0, t1))
                with lock:
                    stat.calls += 1
                    stat.ok += ok
                    stat.seconds += t1 - t0
                    stat.units += units
                    stat.warnings += sum(issubclass(w.category, UserWarning)
                                         for w in caught)
        return traced

    # -- results ----------------------------------------------------------

    def missing(self, workload_kind: str) -> list[str]:
        """Expected boundaries of this workload that never fired."""
        return [k for k in EXPECTED[workload_kind]
                if self.stats[k].calls == 0]

    def io_seconds(self) -> float:
        """Time in output writes and digests, outermost calls only."""
        keys = {s[0]: s[2] for s in self.spans}
        return sum(s[5] - s[4] for s in self.spans
                   if s[2] in IO_KEYS and keys.get(s[1]) not in IO_KEYS)

    def self_seconds(self) -> dict:
        """Per span name: duration minus that of its direct child spans."""
        names = {s[0]: s[2] for s in self.spans}
        total: dict = {}
        for _, parent, key, _, t0, t1 in self.spans:
            total[key] = total.get(key, 0.0) + (t1 - t0)
            if parent in names:
                pkey = names[parent]
                total[pkey] = total.get(pkey, 0.0) - (t1 - t0)
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "thread", "start_s",
                                  "end_s"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics, per traced operation: name -> (value, unit)."""
    st = tr.stats

    def calls(key):
        return st[key].calls / ops

    def secs(key):
        return st[key].seconds / ops

    def ratio(num, den):
        return num / den if den else 0.0

    loss, build = st["optimizer.loss"], st["hybrid.build_hybrid"]
    sample, draw = st["phmodel.sample_with_rng"], st["simqueue.draw_target"]
    other = (st["simqueue.replication"].seconds - sample.seconds
             - draw.seconds - st["backend.lindley_waits"].seconds)
    return {
        "optimizer.adam_steps": (st["optimizer.optimize"].units / ops,
                                 "count"),
        "optimizer.loss_evals": (calls("optimizer.loss"), "count"),
        "optimizer.loss_infeasible_ratio": (
            ratio(loss.calls - loss.ok, loss.calls), "1"),
        "optimizer.optimize_s": (secs("optimizer.optimize"), "s"),
        "hybrid.build_calls": (calls("hybrid.build_hybrid"), "count"),
        "hybrid.build_ok_ratio": (ratio(build.ok, build.calls), "1"),
        "hybrid.build_s": (secs("hybrid.build_hybrid"), "s"),
        "hybrid.residual_s": (secs("hybrid.residual_ccdf"), "s"),
        "hybrid.ccdf_s": (secs("hybrid.hybrid_ccdf"), "s"),
        "hybrid.clamp_warnings": (st["hybrid.residual_ccdf"].warnings / ops,
                                  "count"),
        "hefit.fit_defective_calls": (calls("hefit.fit_defective"), "count"),
        "hefit.fit_defective_s": (secs("hefit.fit_defective"), "s"),
        "hefit.he_ccdf_calls": (calls("hefit.he_ccdf"), "count"),
        "bph.build_from_ccdf_s": (secs("bph.build_from_ccdf"), "s"),
        "targets.ccdf_calls": (calls("targets.ccdf"), "count"),
        "targets.ccdf_s": (secs("targets.ccdf"), "s"),
        "targets.numeric_moment_s": (secs("targets.numeric_moment"), "s"),
        "targets.ccdf_inverse_calls": (calls("targets.ccdf_inverse"),
                                       "count"),
        "backend.bernstein_he_ccdf_calls": (
            calls("backend.bernstein_he_ccdf"), "count"),
        "backend.bernstein_he_ccdf_s": (secs("backend.bernstein_he_ccdf"),
                                        "s"),
        "backend.lindley_waits_s": (secs("backend.lindley_waits"), "s"),
        "fitting.fit_bph_he_s": (secs("fitting.fit_bph_he"), "s"),
        "fitting.grid_mae_s": (secs("fitting.grid_mae"), "s"),
        "phmodel.validate_calls": (calls("phmodel.validate"), "count"),
        "phmodel.validate_s": (secs("phmodel.validate"), "s"),
        "phmodel.moment_calls": (calls("phmodel.moment"), "count"),
        "phmodel.expm_action_s": (secs("phmodel.expm_action"), "s"),
        "phmodel.load_s": (secs("phmodel.load"), "s"),
        "phmodel.sample_s": (sample.seconds / ops, "s"),
        "phmodel.sample_us_per_job": (
            1e6 * ratio(sample.seconds, sample.units), "us"),
        "queueing.queue_length_dist_s": (secs("queueing.queue_length_dist"),
                                         "s"),
        "queueing.waiting_time_ccdf_s": (secs("queueing.waiting_time_ccdf"),
                                         "s"),
        "queueing.mph1_metrics_s": (secs("queueing.mph1_metrics"), "s"),
        "simqueue.run_mg1_s": (secs("simqueue.run_mg1"), "s"),
        "simqueue.busy_s": (secs("simqueue.replication"), "s"),
        "simqueue.draw_target_s": (draw.seconds / ops, "s"),
        "simqueue.draw_us_per_job": (
            1e6 * ratio(draw.seconds, draw.units), "us"),
        "simqueue.other_s": (other / ops, "s"),
        "cli.io_s": (tr.io_seconds() / ops, "s"),
    }
