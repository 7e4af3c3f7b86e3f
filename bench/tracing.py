"""Span tracing of gil's layers, installed only in a traced benchmark run.

``Tracer.install`` replaces every public function of the gil modules at each
module attribute callers look it up through (``gil.mcmc.hamiltonian`` as well as
``gil.lattice.hamiltonian``), plus ``Potential.v/dv/d2v``, with a wrapper that
records a span: layer, name, start, end and the enclosing span.  A layer is the
gil module that defines the function.  Calls made through private helpers or
closures show up inside the caller's self time; counters that need private
hooks (Mayer subsets, the gradient check's cost) wait for tracing inside gil.

A run can trace its set-up first: ``setup_metrics`` reads the set-up's numbers
and starts the totals afresh for the passes.

Hot leaf layers (potentials, lattice) and the per-node quadrature integrand are
aggregated per enclosing span (count, total and self time) instead of being kept
one by one.  Everything stays in memory and is written out once, at the end.
A span's self time is its duration minus the durations of its traced children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("potentials", "conditions", "lattice", "gff", "mcmc", "quadrature", "oracle", "renorm", "cli")
LEAF_LAYERS = {"potentials", "lattice"}
LEAF_KEYS = {"quadrature.anharmonic_energy"}
NDOF_REPORTED = (7, 255)

UNITS = {
    "potentials.calls": "count",
    "potentials.points": "count",
    "potentials.self_s": "s",
    "potentials.ns_per_point": "ns",
    "potentials.norms_s": "s",
    "lattice.calls": "count",
    "lattice.self_s": "s",
    "lattice.us_per_call.ndof7": "us",
    "lattice.us_per_call.ndof255": "us",
    "mcmc.chains_run": "count",
    "mcmc.chains_used_frac": "frac",
    "mcmc.steps": "count",
    "mcmc.accept_rate": "frac",
    "mcmc.us_per_step": "us",
    "mcmc.energy_calls_per_step": "count",
    "mcmc.sampler_self_s": "s",
    "mcmc.estimator_self_s": "s",
    "mcmc.useful_steps_per_s": "1/s",
    "gff.calls": "count",
    "gff.self_s": "s",
    "gff.fields_sampled": "count",
    "quadrature.gh.calls": "count",
    "quadrature.gh.nodes": "count",
    "quadrature.gh.nodes_per_s": "1/s",
    "quadrature.gh.unconverged_frac": "frac",
    "quadrature.adaptive.calls": "count",
    "quadrature.adaptive.integrand_evals": "count",
    "quadrature.adaptive.self_s": "s",
    "quadrature.mayer.calls": "count",
    "quadrature.mayer.self_s": "s",
    "quadrature.mayer.bonds_max": "count",
    "quadrature.mayer.pruned_mass": "prob",
    "oracle.free_energy.calls": "count",
    "oracle.free_energy.s_p50.mayer": "s",
    "oracle.free_energy.s_p50.gh": "s",
    "oracle.free_energy.s_p50.adaptive": "s",
    "oracle.hessian_fd.evals_per_row": "count",
    "oracle.renorm.inner_calls": "count",
    "oracle.self_s": "s",
    "renorm.self_s": "s",
    "renorm.verify_theorem.rows": "count",
    "conditions.calls": "count",
    "conditions.self_s": "s",
    "conditions.setup_calls": "count",
    "conditions.setup_self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_frac": "frac",
}


class _Frame:
    __slots__ = ("key", "layer", "parent", "start", "child", "dur", "span", "crossing")

    def __init__(self, key, layer, parent, span, start):
        self.key = key
        self.layer = layer
        self.parent = parent
        self.span = span
        self.start = start
        self.child = 0.0
        self.dur = 0.0
        self.crossing = parent is None or parent.layer != layer


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _has_ancestor(frame, key) -> bool:
    f = frame.parent
    while f is not None:
        if f.key == key:
            return True
        f = f.parent
    return False


class Tracer:
    """Spans and counters for one traced run; create one per run and pass it along."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []  # (id, parent id, op, key, start, end, self)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # (op, parent span, key) -> [count, total, self]
        self._reset_totals()
        self.op = None
        self._op_chains: set = set()
        self._last_backend = None
        self._next_span = 0
        self._installed: list[tuple] = []
        self._wrappers: dict = {}

    def _reset_totals(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.crossings = defaultdict(int)
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.ndof = defaultdict(lambda: [0, 0.0])  # lattice n_dof -> [calls, seconds] from other layers

    # -- recording -----------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Start a new operation: spans of one op share its label."""
        self.op = label
        self._op_chains = set()

    def _enter(self, key, layer, leaf):
        parent = self.stack[-1] if self.stack else None
        if leaf:
            span = parent.span if parent is not None else None
        else:
            span = self._next_span
            self._next_span += 1
        f = _Frame(key, layer, parent, span, time.perf_counter())
        self.stack.append(f)
        return f

    def _exit(self, f, leaf):
        end = time.perf_counter()
        self.stack.pop()
        f.dur = end - f.start
        own = f.dur - f.child
        if f.parent is not None:
            f.parent.child += f.dur
        self.self_s[f.key] += own
        self.total_s[f.key] += f.dur
        self.calls[f.key] += 1
        if f.crossing:
            self.crossings[f.layer] += 1
        if leaf:
            agg = self.leaves[(self.op, f.span, f.key)]
            agg[0] += 1
            agg[1] += f.dur
            agg[2] += own
        else:
            parent_span = f.parent.span if f.parent is not None else None
            self.spans.append((f.span, parent_span, self.op, f.key, f.start, end, own))

    def _wrap(self, fn, key, layer):
        leaf = layer in LEAF_LAYERS or key in LEAF_KEYS
        on_enter = _ENTER_HOOKS.get(key)
        on_exit = _lattice_call if layer == "lattice" else _EXIT_HOOKS.get(key)
        tracer = self

        # a counter that no longer fits gil's signatures must not fail the op:
        # hook errors are counted and reported instead
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                try:
                    args, kwargs = on_enter(tracer, args, kwargs)
                except Exception:
                    tracer.counters["trace.hook_errors"] += 1
            frame = tracer._enter(key, layer, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, leaf)
            if on_exit is not None:
                try:
                    on_exit(tracer, frame, args, kwargs, result)
                except Exception:
                    tracer.counters["trace.hook_errors"] += 1
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _wrapper_for(self, fn, key, layer):
        w = self._wrappers.get(fn)
        if w is None:
            w = self._wrappers[fn] = self._wrap(fn, key, layer)
        return w

    def _replace(self, owner, name, fn, key, layer):
        self._installed.append((owner, name, fn))
        setattr(owner, name, self._wrapper_for(fn, key, layer))

    def install(self) -> None:
        """Wrap every public gil function at every gil-module attribute that names it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "gil" or name.startswith("gil.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("gil.") or layer not in LAYERS:
                    continue
                self._replace(mod, name, obj, f"{layer}.{obj.__name__}", layer)
        from gil.potentials import Potential

        for name in ("v", "dv", "d2v"):
            self._replace(Potential, name, vars(Potential)[name], f"potentials.Potential.{name}", "potentials")

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._installed):
            setattr(owner, name, fn)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def _layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def setup_metrics(self) -> dict[str, float]:
        """Metrics of the set-up traced so far; the totals then start afresh for the passes.

        Spans and leaf aggregates are kept, labelled with the set-up's op label.
        """
        out = {
            "potentials.norms_s": self.total_s["potentials.norms"],
            "conditions.setup_calls": float(self.crossings["conditions"]),
            "conditions.setup_self_s": self._layer_self("conditions"),
        }
        self._reset_totals()
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics; additive quantities are per traced pass."""
        c, cnt, tot, slf = self.counters, self.calls, self.total_s, self.self_s
        per = 1.0 / passes

        def ratio(a, b):
            return a / b if b else 0.0

        def p50(name):
            xs = self.samples[name]
            return statistics.median(xs) if xs else 0.0

        pot_keys = [f"potentials.Potential.{n}" for n in ("v", "dv", "d2v")]
        pot_time = sum(tot[k] for k in pot_keys)
        ndof = {n: 1e6 * ratio(self.ndof[n][1], self.ndof[n][0]) for n in NDOF_REPORTED}
        steps = c["mcmc.steps"]
        sampler = slf["mcmc.run_chain"] + slf["mcmc.run_chains"]
        return {
            "potentials.calls": per * self.crossings["potentials"],
            "potentials.points": per * c["potentials.points"],
            "potentials.self_s": per * self._layer_self("potentials"),
            "potentials.ns_per_point": 1e9 * ratio(pot_time, c["potentials.points"]),
            "lattice.calls": per * self.crossings["lattice"],
            "lattice.self_s": per * self._layer_self("lattice"),
            "lattice.us_per_call.ndof7": ndof[7],
            "lattice.us_per_call.ndof255": ndof[255],
            "mcmc.chains_run": per * c["mcmc.chains_run"],
            "mcmc.chains_used_frac": ratio(c["mcmc.chains_used"], c["mcmc.chains_run"]),
            "mcmc.steps": per * steps,
            "mcmc.accept_rate": statistics.fmean(self.samples["mcmc.accept"]) if self.samples["mcmc.accept"] else 0.0,
            "mcmc.us_per_step": 1e6 * ratio(tot["mcmc.run_chain"], steps),
            "mcmc.energy_calls_per_step": ratio(c["mcmc.energy_calls"], steps),
            "mcmc.sampler_self_s": per * sampler,
            "mcmc.estimator_self_s": per * (self._layer_self("mcmc") - sampler),
            "gff.calls": per * self.crossings["gff"],
            "gff.self_s": per * self._layer_self("gff"),
            "gff.fields_sampled": per * c["gff.fields_sampled"],
            "quadrature.gh.calls": per * cnt["quadrature.gh_log_expectation"],
            "quadrature.gh.nodes": per * c["quadrature.gh.nodes"],
            "quadrature.gh.nodes_per_s": ratio(c["quadrature.gh.nodes"], tot["quadrature.gh_log_expectation"]),
            "quadrature.gh.unconverged_frac": ratio(
                c["quadrature.gh.unconverged"], cnt["quadrature.gh_log_expectation_doubling"]
            ),
            "quadrature.adaptive.calls": per * cnt["quadrature.adaptive_log_expectation"],
            "quadrature.adaptive.integrand_evals": per * c["quadrature.adaptive.integrand_evals"],
            "quadrature.adaptive.self_s": per * slf["quadrature.adaptive_log_expectation"],
            "quadrature.mayer.calls": per * cnt["quadrature.mayer_log_expectation"],
            "quadrature.mayer.self_s": per * slf["quadrature.mayer_log_expectation"],
            "quadrature.mayer.bonds_max": c["quadrature.mayer.bonds_max"],
            "quadrature.mayer.pruned_mass": per * c["quadrature.mayer.pruned_mass"],
            "oracle.free_energy.calls": per * cnt["oracle.free_energy"],
            "oracle.free_energy.s_p50.mayer": p50("oracle.free_energy.mayer"),
            "oracle.free_energy.s_p50.gh": p50("oracle.free_energy.gh"),
            "oracle.free_energy.s_p50.adaptive": p50("oracle.free_energy.adaptive"),
            "oracle.hessian_fd.evals_per_row": ratio(c["oracle.hessian_fd.evals"], cnt["oracle.hessian_fd"]),
            "oracle.renorm.inner_calls": per * c["oracle.renorm.inner_calls"],
            "oracle.self_s": per * self._layer_self("oracle"),
            "renorm.self_s": per * self._layer_self("renorm"),
            "renorm.verify_theorem.rows": per * c["renorm.verify_theorem.rows"],
            "conditions.calls": per * self.crossings["conditions"],
            "conditions.self_s": per * self._layer_self("conditions"),
            "cli.self_s": per * self._layer_self("cli"),
        }

    def write(self, path: Path, meta: dict) -> None:
        """Write every span and leaf aggregate as gzipped JSON."""
        leaves = [[op, span, key, n, total, own] for (op, span, key), (n, total, own) in self.leaves.items()]
        doc = {
            "meta": meta,
            "span_fields": ["id", "parent", "op", "key", "start", "end", "self"],
            "spans": self.spans,
            "leaf_fields": ["op", "parent", "key", "count", "total", "self"],
            "leaves": leaves,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# counters taken at layer boundaries


def _count_rows(tracer, name, gfun):
    def counted(batch):
        tracer.counters[name] += batch.shape[0]
        return gfun(batch)

    return counted


def _enter_count_gfun(name):
    def hook(tracer, args, kwargs):
        if args:
            return (_count_rows(tracer, name, args[0]),) + tuple(args[1:]), kwargs
        return args, dict(kwargs, gfun=_count_rows(tracer, name, kwargs["gfun"]))

    return hook


def _potential_points(tracer, f, args, kwargs, result):
    tracer.counters["potentials.points"] += np.size(_arg(args, kwargs, 1, "s"))


def _lattice_call(tracer, f, args, kwargs, result):
    if not f.crossing:
        return
    n_dof = getattr(args[0] if args else None, "n_dof", None)
    if n_dof in NDOF_REPORTED:
        acc = tracer.ndof[n_dof]
        acc[0] += 1
        acc[1] += f.dur
    if f.parent is not None and f.parent.key == "mcmc.run_chain":
        tracer.counters["mcmc.energy_calls"] += 1


def _run_chain(tracer, f, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    c = tracer.counters
    c["mcmc.chains_run"] += 1
    c["mcmc.steps"] += cfg.n_steps
    tracer.samples["mcmc.accept"].append(result.acceptance)
    # a chain whose output repeats one already produced in this op is wasted work
    s = result.samples
    key = (s.shape, s[0].tobytes() if len(s) else b"", s[-1].tobytes() if len(s) else b"", result.step_size)
    if key not in tracer._op_chains:
        tracer._op_chains.add(key)
        c["mcmc.chains_used"] += 1


def _sample_gff(tracer, f, args, kwargs, result):
    n = _arg(args, kwargs, 3, "n_samples")
    tracer.counters["gff.fields_sampled"] += 1 if n is None else n


def _gh_doubling(tracer, f, args, kwargs, result):
    if not result[1]:
        tracer.counters["quadrature.gh.unconverged"] += 1


def _mayer(tracer, f, args, kwargs, result):
    c = tracer.counters
    c["quadrature.mayer.bonds_max"] = max(c["quadrature.mayer.bonds_max"], _arg(args, kwargs, 0, "F").shape[0])
    c["quadrature.mayer.pruned_mass"] += result[1]


def _log_expectation(tracer, f, args, kwargs, result):
    tracer._last_backend = result[1]["method"]


def _free_energy(tracer, f, args, kwargs, result):
    tracer.samples[f"oracle.free_energy.{tracer._last_backend}"].append(f.dur)
    if _has_ancestor(f, "oracle.hessian_fd"):
        tracer.counters["oracle.hessian_fd.evals"] += 1


def _renorm_apply_g(tracer, f, args, kwargs, result):
    if _has_ancestor(f, "oracle.renorm_iterated_g"):
        tracer.counters["oracle.renorm.inner_calls"] += 1


def _verify_theorem(tracer, f, args, kwargs, result):
    tracer.counters["renorm.verify_theorem.rows"] += len(result)


_ENTER_HOOKS = {
    "quadrature.gh_log_expectation": _enter_count_gfun("quadrature.gh.nodes"),
    "quadrature.adaptive_log_expectation": _enter_count_gfun("quadrature.adaptive.integrand_evals"),
}

_EXIT_HOOKS = {
    **{f"potentials.Potential.{n}": _potential_points for n in ("v", "dv", "d2v")},
    "mcmc.run_chain": _run_chain,
    "gff.sample_gff": _sample_gff,
    "quadrature.gh_log_expectation_doubling": _gh_doubling,
    "quadrature.mayer_log_expectation": _mayer,
    "quadrature.log_expectation": _log_expectation,
    "oracle.free_energy": _free_energy,
    "oracle.renorm_apply_g": _renorm_apply_g,
    "renorm.verify_theorem": _verify_theorem,
}
