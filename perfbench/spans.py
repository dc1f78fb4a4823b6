"""Span recording from outside the package, by rebinding names.

Each traced function is wrapped once and the wrapper is bound in place of the
original under every name that refers to it in any loaded ``tsakit`` module:
``tsakit.dataset.run_simulation`` and ``tsakit.labeling.run_simulation`` are
separate bindings of one function, and both are replaced. Three methods are
wrapped on their classes instead: ``StabilityModel.forward``,
``Tensor.backward`` and ``Adam.step``.

``install`` and ``uninstall`` swap the wrappers in and out, so one process
can alternate traced and untraced operations. A span is ``[name, start, end,
parent, attrs]``; ``parent`` is the index of the enclosing span or -1. Spans
stay in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict

import hostclock

# Layers of the package, in pipeline order. Every public function defined in
# one of them is traced, except the per-integrator-stage kernels below.
LAYERS = ("grid_model", "tds", "labeling", "dataset", "autodiff_nn", "training_eval", "cli")

UNTRACED = {
    # Called at every RK4 stage, about 8000 times per simulation: a span each
    # would add seconds per build. Their time counts as run_simulation's.
    "tds.motor_input_admittance",
    "tds.motor_torque",
    # The scan and bisection find_cct_simulated drives: the search's own
    # cost, reported as find_cct_simulated's self time.
    "labeling.find_cct",
}


def _result_attrs(name: str, result) -> dict | None:
    """Counts read off a return value at the layer boundary."""
    if name == "tds.run_simulation":
        steps = result.diverged_step if result.diverged else result.n_steps
        return {"steps": int(steps), "diverged": bool(result.diverged)}
    if name == "labeling.find_cct_simulated":
        return {
            "evaluations": int(result.evaluations),
            "nonmonotone": bool(result.nonmonotone),
            "saturated": bool(result.above_bracket or result.below_bracket),
        }
    if name == "dataset.build_dataset":
        _, manifest = result
        return {"scenarios": int(manifest["n_scenarios"]), "samples": int(manifest["n_samples"])}
    if name == "training_eval.train":
        return {"epochs": len(result.log_rows)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.functions = 0
        self._open: list[int] = []
        self._installed: list[tuple] | None = None

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = hostclock.now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            span[4] = _result_attrs(name, result)
            return result

        return traced

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tsakit.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(mod.__name__):
                    continue  # imported from another layer; wrapped there
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    wrapped[id(obj)] = (obj, self.wrap(name, obj))
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tsakit" and not mod_name.startswith("tsakit."):
                continue
            for attr, obj in vars(mod).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        from tsakit.autodiff_nn import StabilityModel, Tensor
        from tsakit.training_eval import Adam

        for cls, method, name in (
            (StabilityModel, "forward", "autodiff_nn.forward"),
            (Tensor, "backward", "autodiff_nn.backward"),
            (Adam, "step", "training_eval.adam_step"),
        ):
            fn = getattr(cls, method)
            patches.append((cls, method, fn, self.wrap(name, fn)))
        self.functions = len(wrapped) + 3
        return patches

    def install(self) -> None:
        if self._installed is None:
            self._installed = self._patches()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._installed or ():
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per line and span, in the order the spans opened."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "attrs": attrs}
                ) + "\n")


class SpanStats:
    """Durations, self times and counts per span name."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.self_s = [0.0] * len(spans)
        for i, (name, start, end, _, _) in enumerate(spans):
            self.by_name[name].append(i)
            self.self_s[i] = (end - start) - child[i]

    def ids(self, name: str, parent: str | None = None) -> list[int]:
        out = self.by_name.get(name, [])
        if parent is not None:
            out = [i for i in out if self.spans[i][3] >= 0
                   and self.spans[self.spans[i][3]][0] == parent]
        return out

    def calls(self, name: str) -> int:
        return len(self.ids(name))

    def durations(self, ids) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in ids]

    def total_s(self, name: str) -> float:
        return float(sum(self.durations(self.ids(name))))

    def self_total_s(self, name: str) -> float:
        return float(sum(self.self_s[i] for i in self.ids(name)))

    def p50_s(self, name: str, parent: str | None = None) -> float:
        d = self.durations(self.ids(name, parent))
        return float(statistics.median(d)) if d else 0.0

    def self_p50_s(self, name: str) -> float:
        d = [self.self_s[i] for i in self.ids(name)]
        return float(statistics.median(d)) if d else 0.0

    def attr_sum(self, name: str, key: str) -> int:
        return int(sum(self.spans[i][4][key] for i in self.ids(name) if self.spans[i][4]))
