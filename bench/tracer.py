"""Per-layer tracing for the benchmark, applied from outside the package.

Each public entry point is replaced, for the duration of a traced phase, by a
wrapper installed where its caller looks it up: `harness` imports the law
functions and `stream` by name, `forest` imports `lf_sample_offspring` by
name, and the rest are reached through module attributes.  A wrapper records
one span (name, start, end, parent span, iteration) in flat arrays kept
in memory; `save` writes them when the run ends.  The
microsecond-scale `lf_sample_offspring` gets a counter instead of a span.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "cli.build_s": "s",
    "harness.run_s": "s",
    "harness.self_s": "s",
    "harness.bytes_written": "bytes",
    "rng.stream_calls": "count",
    "dchain.step_calls": "count",
    "dchain.step_s": "s",
    "dchain.step_us": "us",
    "dchain.eta_levels": "count",
    "dchain.levels_per_step": "ratio",
    "dchain.init_calls": "count",
    "dchain.init_s": "s",
    "dchain.restart_ratio": "ratio",
    "lf.offspring_draws": "count",
    "lf.draws_per_level": "ratio",
    "lf.law_calls": "count",
    "lf.law_s": "s",
    "forest.simulate_s": "s",
    "forest.nodes": "count",
    "forest.nodes_per_s": "1/s",
    "forest.survival_ratio": "ratio",
    "forest.coalescence_s": "s",
    "forest.pairs": "count",
    "forest.dump_s": "s",
    "forest.csv_s": "s",
    "forest.text_mb": "MB",
    "analytics.popsize_calls": "count",
    "analytics.popsize_s": "s",
    "analytics.popsize_cells": "count",
    "analytics.popsize_repeat_ratio": "ratio",
    "analytics.popsize_guard_retries": "count",
    "analytics.tail_calls": "count",
    "analytics.tail_s": "s",
    "model.pgf_calls": "count",
    "model.pgf_s": "s",
}


class Tracer:
    """Span and counter store for one traced phase of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iteration = array("i")
        self._stack = [-1]
        self._iter = -1
        self.counts: dict[str, float] = {}
        self.iter_counts: list[dict[str, float]] = []
        self._popsize_keys: set = set()
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_name(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        observe(tracer, args, kwargs, result) runs after the call, with
        result None when the call raised; a raise is also counted under
        '<name>.raised'.
        """
        fn = getattr(owner, attr)
        nid = self._id(name)
        tracer = self
        names, starts, ends, parents, iters = (
            self.name, self.start, self.end, self.parent, self.iteration,
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            iters.append(tracer._iter)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                tracer.add(name + ".raised")
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if observe is not None:
                    observe(tracer, args, kwargs, result)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            # the counter dict is replaced per iteration, so look it up late
            counts = tracer.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def begin_iteration(self) -> None:
        self._iter = len(self.iter_counts)
        self.counts = {}
        self._popsize_keys = set()

    def end_iteration(self, extra: dict[str, float]) -> None:
        self.counts["analytics.popsize_distinct"] = len(self._popsize_keys)
        self.counts.update(extra)
        self.iter_counts.append(self.counts)
        self.counts = {}

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            iteration=np.frombuffer(self.iteration, dtype=np.int32),
        )

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced iterations of each per-layer metric."""
        per_iter = self._per_iteration()
        return {
            key: statistics.median(m[key] for m in per_iter) for key in LAYER_UNITS
        }

    def _per_iteration(self) -> list[dict[str, float]]:
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        iters = np.frombuffer(self.iteration, dtype=np.int32)
        n_names = max(len(self.names), 1)
        n_iter = len(self.iter_counts)
        key = iters.astype(np.int64) * n_names + names
        size = n_iter * n_names
        busy = np.bincount(key, weights=dur, minlength=size).reshape(n_iter, n_names)
        calls = np.bincount(key, minlength=size).reshape(n_iter, n_names)
        # self time of harness.run: its span minus its direct children
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        run_self = np.zeros(n_iter)
        if "harness.run" in self._ids:
            is_run = names == self._ids["harness.run"]
            np.add.at(run_self, iters[is_run], dur[is_run] - child[is_run])

        def col(table, name):
            return table[:, self._ids[name]] if name in self._ids else np.zeros(n_iter)

        out = []
        for i, c in enumerate(self.iter_counts):
            s = {name: float(col(busy, name)[i]) for name in self._ids}
            n = {name: int(col(calls, name)[i]) for name in self._ids}
            get_s = lambda name: s.get(name, 0.0)
            get_n = lambda name: n.get(name, 0)
            steps, inits = get_n("dchain.step"), get_n("dchain.init")
            levels = c.get("dchain.eta_levels", 0)
            kept = c.get("forest.kept_trees", 0)
            attempts = kept + c.get("forest.rejections", 0)
            popsize = get_n("analytics.popsize")
            distinct = c.get("analytics.popsize_distinct", 0)
            nodes = c.get("forest.nodes", 0)
            sim_s = get_s("forest.simulate")
            out.append(
                {
                    "cli.build_s": get_s("cli.build"),
                    "harness.run_s": get_s("harness.run"),
                    "harness.self_s": float(run_self[i]),
                    "harness.bytes_written": c.get("harness.bytes_written", 0),
                    "rng.stream_calls": get_n("rng.stream"),
                    "dchain.step_calls": steps,
                    "dchain.step_s": get_s("dchain.step"),
                    "dchain.step_us": 1e6 * get_s("dchain.step") / steps if steps else 0.0,
                    "dchain.eta_levels": levels,
                    "dchain.levels_per_step": (
                        c.get("dchain.eta_levels_in_step", 0) / steps if steps else 0.0
                    ),
                    "dchain.init_calls": inits,
                    "dchain.init_s": get_s("dchain.init"),
                    "dchain.restart_ratio": (
                        inits / (steps + inits) if steps + inits else 0.0
                    ),
                    "lf.offspring_draws": c.get("lf.offspring", 0),
                    "lf.draws_per_level": (
                        c.get("lf.offspring", 0) / levels if levels else 0.0
                    ),
                    "lf.law_calls": get_n("lf.law"),
                    "lf.law_s": get_s("lf.law"),
                    "forest.simulate_s": sim_s,
                    "forest.nodes": nodes,
                    "forest.nodes_per_s": nodes / sim_s if sim_s else 0.0,
                    "forest.survival_ratio": kept / attempts if attempts else 0.0,
                    "forest.coalescence_s": get_s("forest.coalescence"),
                    "forest.pairs": c.get("forest.pairs", 0),
                    "forest.dump_s": get_s("forest.dump"),
                    "forest.csv_s": get_s("forest.csv"),
                    "forest.text_mb": c.get("forest.text_bytes", 0) / 1e6,
                    "analytics.popsize_calls": popsize,
                    "analytics.popsize_s": get_s("analytics.popsize"),
                    "analytics.popsize_cells": c.get("analytics.popsize_cells", 0),
                    "analytics.popsize_repeat_ratio": (
                        popsize / distinct if distinct else 0.0
                    ),
                    "analytics.popsize_guard_retries": c.get(
                        "analytics.popsize.raised", 0
                    ),
                    "analytics.tail_calls": get_n("analytics.tail"),
                    "analytics.tail_s": get_s("analytics.tail"),
                    "model.pgf_calls": get_n("model.pgf"),
                    "model.pgf_s": get_s("model.pgf"),
                }
            )
        return out


# -- observers: read the work a call did from its arguments and result ------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _eta(tracer: Tracer, args, kwargs, result) -> None:
    n = _arg(args, kwargs, 1, "n")
    tracer.add("dchain.eta_levels", n)
    if tracer.parent_name() == "dchain.step":
        tracer.add("dchain.eta_levels_in_step", n)


def _tree(tracer: Tracer, args, kwargs, tree) -> None:
    if tree is None:
        return
    tracer.add("forest.nodes", sum(len(layer) for layer in tree.types))
    tracer.add("forest.kept_trees", len(tree.types[0]))
    tracer.add("forest.rejections", tree.rejections)


def _pairs(tracer: Tracer, args, kwargs, records) -> None:
    if records is not None:
        tracer.add("forest.pairs", len(records))


def _text(tracer: Tracer, args, kwargs, text) -> None:
    if text is not None:
        tracer.add("forest.text_bytes", len(text))


def _popsize(tracer: Tracer, args, kwargs, result) -> None:
    spec = _arg(args, kwargs, 0, "spec")
    n = _arg(args, kwargs, 1, "n")
    root = _arg(args, kwargs, 2, "root")
    cap = _arg(args, kwargs, 3, "cap")
    tracer.add("analytics.popsize_cells", cap**spec.k)
    tracer._popsize_keys.add((id(spec), n, root, cap))


def install(tracer: Tracer, cli, harness, dchain, forest, analytics) -> None:
    """Wrap every traced entry point where its caller looks it up."""
    tracer.span(cli, "build_config", "cli.build")
    tracer.span(harness, "run", "harness.run")
    tracer.span(harness, "stream", "rng.stream")
    tracer.span(harness, "A1_tail", "analytics.tail")
    tracer.span(harness, "B1_tail", "analytics.tail")
    tracer.span(harness, "lf_coalescence_law", "lf.law")
    tracer.span(harness, "lf_sametype_law", "lf.law")
    tracer.span(dchain, "dchain_step", "dchain.step")
    tracer.span(dchain, "init_quasistationary", "dchain.init")
    tracer.span(dchain, "sample_eta", "dchain.eta", observe=_eta)
    tracer.span(dchain, "pgf_eval_all", "model.pgf")
    tracer.span(analytics, "pgf_partial", "model.pgf")
    tracer.span(analytics, "conditioned_popsize_law", "analytics.popsize", observe=_popsize)
    tracer.span(forest, "simulate_standing", "forest.simulate", observe=_tree)
    tracer.span(forest, "coalescence_times", "forest.coalescence", observe=_pairs)
    tracer.span(forest, "dump_tree", "forest.dump", observe=_text)
    tracer.span(forest, "records_to_csv", "forest.csv", observe=_text)
    tracer.count(forest, "lf_sample_offspring", "lf.offspring")
