"""Spans around the public functions of the library's layers, installed from
outside the library for a traced run.

Every public module-level function of a layer module is wrapped once, and
the wrapper is bound in every ``htbif`` module namespace that binds the
original: ``nodal``, ``linstab`` and ``perturbed`` use ``from .x import y``,
so wrapping only the defining module would miss their calls.  ``uninstall``
puts every original back.

Spans live on one stack.  A span's self time is its duration minus the
durations of the spans it directly encloses.  Calls are counted per
(parent span, function) edge, so ratios such as time maps per amplitude
solve are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

from htbif.errors import DomainError

LAYERS = ("model", "quadrature", "spectral", "timemap", "nodal", "linstab", "perturbed")
TOP = ""  # parent name of spans opened by the benchmark itself


class Recorder:
    """Counters filled by the installed wrappers while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []          # [name, seconds of direct children]
        self.edges: Counter = Counter()      # (parent name, name) -> calls
        self.self_s: defaultdict = defaultdict(float)
        self.failures: Counter = Counter()   # layer -> numerical errors raised in it
        self.newton_iters = 0
        self._bindings: list[tuple] = []     # (module, attribute, original)

    def calls(self, name: str) -> int:
        return sum(n for (_, callee), n in self.edges.items() if callee == name)

    def calls_from(self, parent: str, name: str) -> int:
        return self.edges[(parent, name)]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)

    def install(self) -> None:
        """Wrap every public layer function and bind the wrappers everywhere."""
        if self._bindings:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"htbif.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                post = self._count_newton if name == "perturbed.newton_solve" else None
                wrappers[id(fn)] = (fn, self._wrap(name, layer, fn, post))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "htbif" or mod_name.startswith("htbif.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []

    def _count_newton(self, state) -> None:
        self.newton_iters += state.newton_iters

    def _wrap(self, name, layer, fn, post):
        rec = self
        stack = self.stack
        edges = self.edges
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except DomainError:
                raise  # a refused precondition (e.g. an inadmissible draw), not a failure
            except Exception as exc:
                # count an exception once per layer, where it first leaves a span
                seen = vars(exc).setdefault("_bench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    rec.failures[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                edges[(parent[0] if parent is not None else TOP, name)] += 1
            if post is not None:
                post(out)
            return out

        return span


def per_layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as name -> (value, unit)."""
    def ratio(num, den):
        return num / den if den else 0.0

    integrals = rec.calls("quadrature.adaptive_gauss")
    panels = rec.calls("quadrature.gauss_panel")
    solves = rec.calls("nodal.solve_amplitude")
    newton = rec.calls("perturbed.newton_solve")
    # potential calls made by library code outside model: integrands are
    # private closures of timemap, so their calls sit under quadrature spans
    potential = sum(
        n for (parent, callee), n in rec.edges.items()
        if callee in ("model.potential_F", "model.potential_gap")
        and parent.split(".")[0] not in ("model", TOP)
    )
    out = {
        "quadrature.adaptive_gauss.calls": (integrals, "count"),
        "quadrature.gauss_panel.calls": (panels, "count"),
        "quadrature.panels_per_integral": (ratio(panels, integrals), "panels/integral"),
        "model.potential.calls": (potential, "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (rec.layer_self_s(layer), "s")
    for fn in (
        "timemap.time_map", "timemap.companion", "timemap.homoclinic_extent",
        "nodal.solve_amplitude", "nodal.nodal_pair",
        "linstab.sturm_spectrum", "linstab.sturm_count_below",
        "perturbed.newton_solve", "perturbed.jacobian_banded",
    ):
        out[f"{fn}.calls"] = (rec.calls(fn), "count")
        out[f"{fn}.self_s"] = (rec.self_s.get(fn, 0.0), "s")
    out["nodal.time_maps_per_solve"] = (
        ratio(rec.calls_from("nodal.solve_amplitude", "timemap.time_map"), solves), "maps/solve"
    )
    out["nodal.failures"] = (rec.failures["nodal"], "count")
    out["perturbed.newton_iters"] = (rec.newton_iters, "count")
    out["perturbed.iters_per_solve"] = (ratio(rec.newton_iters, newton), "iters/solve")
    out["perturbed.continue_in_eps.calls"] = (rec.calls("perturbed.continue_in_eps"), "count")
    out["perturbed.failures"] = (rec.failures["perturbed"], "count")
    return out
