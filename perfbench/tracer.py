"""Span tracer that wraps kemst's public functions from outside the package.

``Tracer.install`` rebinds every public function and method of the ten
layer modules to a timing wrapper, and then replaces every other reference
to the original it can reach: module attributes (``emst`` is imported into
``spanning``, ``event_stability``, ``morph``, ``lipschitz`` and the package
namespace), class attributes and the values of module-level dicts such as
``GENERATORS``. ``leftover_aliases`` reports any reference still pointing
at an unwrapped original, so a missed alias fails the traced run instead
of silently dropping calls.

A span is (name, start, end, parent span, operation id); spans stay in
memory and are written once by ``dump``. Functions in ``COUNT_ONLY`` run in
inner loops, where a span would cost more than their body: they are
counted but not timed, and their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "trajectories",
    "scenarios",
    "spanning",
    "event_stability",
    "morph",
    "flip_oracle",
    "lipschitz",
    "scenario_io",
    "traces",
    "cli",
)

COUNT_ONLY = frozenset(
    {
        "trajectories.polyval",
        "trajectories.polyder",
        "trajectories.Trajectory.at",
        "trajectories.LinearSegment.at",
        "trajectories.ArcSegment.at",
        "spanning.PointConfig.distance",
        "spanning.SpanningTree.adjacency",
        "spanning.SpanningTree.has_edge",
        "lipschitz.SlideSchedule.progress",
        "lipschitz.SlideSchedule.carrier_length",
        "lipschitz.SlideSchedule.rate",
        "traces.format_cell",
    }
)

E, T, S, C = "event-cubic", "topo-cubic", "split-lipschitz", "paper-cli"

# (metric, unit, workloads on which it must be nonzero). A metric
# named <function>.calls|total_s|self_s reads that function's calls and
# spans; the others are derived in Tracer.metrics.
LAYER_METRICS = (
    ("trajectories.Trajectory.at.calls", "count", (E, T)),
    ("trajectories.polyval.calls", "count", (E, T)),
    ("scenarios.KineticScenario.positions.calls", "count", (E, T)),
    ("scenarios.KineticScenario.positions.self_s", "s", (E, T)),
    ("scenarios.KineticScenario.is_unit_normalized.total_s", "s", (E,)),
    ("scenarios.next_displacement_event.calls", "count", (E,)),
    ("scenarios.next_displacement_event.self_s", "s", (E,)),
    ("scenarios.input_distance.calls", "count", (E,)),
    ("scenarios.input_distance.self_s", "s", (E,)),
    ("spanning.emst.calls", "count", (E, T, S)),
    ("spanning.emst.self_s", "s", (E, T, S)),
    ("spanning.emst.points", "count", (E, T, S)),
    ("spanning.tree_length.calls", "count", (E, T, S)),
    ("spanning.tree_length.self_s", "s", (E, T, S)),
    ("spanning.SpanningTree.init.calls", "count", (E, T, S)),
    ("spanning.SpanningTree.init.self_s", "s", (E, T, S)),
    ("spanning.fundamental_cycle.calls", "count", (T,)),
    ("event_stability.run_event_regime.self_s", "s", (E,)),
    ("event_stability.approximation_audit.total_s", "s", (E,)),
    ("event_stability.events", "count", (E,)),
    ("event_stability.emst_per_event", "ratio", (E,)),
    ("morph.detect_swaps.total_s", "s", (T,)),
    ("morph.detect_swaps.self_s", "s", (T,)),
    ("morph.swaps", "count", (T,)),
    ("morph.detect_swaps.emst_per_swap", "ratio", (T,)),
    ("morph.decompose_swap.calls", "count", (T,)),
    ("morph.plan_slide_morph.calls", "count", (T,)),
    ("morph.plan_slide_morph.self_s", "s", (T,)),
    ("morph.plan_rotation_morph.calls", "count", (T,)),
    ("morph.plan_rotation_morph.self_s", "s", (T,)),
    ("morph.fallback_frac", "ratio", ()),
    ("morph.diamond_rotation_certificate.total_s", "s", (C,)),
    ("flip_oracle.flip_graph.calls", "count", (C,)),
    ("flip_oracle.flip_graph.total_s", "s", (C,)),
    ("flip_oracle.bottleneck_closure.calls", "count", (C,)),
    ("flip_oracle.bottleneck_closure.self_s", "s", (C,)),
    ("flip_oracle.minimax_flip_oracle.self_s", "s", (C,)),
    ("lipschitz.run_lipschitz_regime.self_s", "s", (S,)),
    ("lipschitz.schedule_completion.calls", "count", (S,)),
    ("lipschitz.slides_completed", "count", (S,)),
    ("lipschitz.completed_frac", "ratio", (S,)),
    ("lipschitz.SlideSchedule.progress.calls", "count", (S,)),
    ("lipschitz.any_tree_bound_audit.total_s", "s", (S,)),
    ("scenario_io.load_scenario.total_s", "s", (C,)),
    ("scenario_io.save_scenario.total_s", "s", (C,)),
    ("scenario_io.build_generator.total_s", "s", (C,)),
    ("traces.write_csv.calls", "count", (C,)),
    ("traces.write_csv.total_s", "s", (C,)),
    ("traces.csv_bytes", "B", (C,)),
    ("traces.svg_plot.total_s", "s", (C,)),
    ("cli.main.calls", "count", (C,)),
    ("cli.main.self_s", "s", (C,)),
)

_STAT_SUFFIXES = ("calls", "total_s", "self_s")


def _hook_emst(tracer, bound, result):
    tracer.values["spanning.emst.points"] += bound["cfg"].n


def _hook_event(tracer, bound, result):
    tracer.values["event_stability.events"] += result.event_count


def _hook_topo(tracer, bound, result):
    tracer.values["morph.swaps"] += result.swap_count
    tracer.values["morph.fallbacks"] += result.fallback_count


def _hook_lipschitz(tracer, bound, result):
    tracer.values["lipschitz.slides_completed"] += result.completed


def _hook_csv(tracer, bound, result):
    tracer.values["traces.csv_bytes"] += os.path.getsize(bound["path"])


# Post-call hooks that read counts off arguments or results.
HOOKS = {
    "spanning.emst": _hook_emst,
    "event_stability.run_event_regime": _hook_event,
    "morph.run_topo_regime": _hook_topo,
    "lipschitz.run_lipschitz_regime": _hook_lipschitz,
    "traces.write_csv": _hook_csv,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self.calls: dict[str, list[int]] = {}
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(orig) -> (orig, wrapper)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        cell = self.calls.setdefault(name, [0])
        if name in COUNT_ONLY:

            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

        else:
            spans, stack = self.spans, self._stack
            hook = HOOKS.get(name)
            sig = inspect.signature(fn) if hook else None
            clock = time.perf_counter

            def wrapper(*args, **kwargs):
                cell[0] += 1
                idx = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, self.op)
                if hook:
                    hook(self, sig.bind(*args, **kwargs).arguments, result)
                return result

        functools.update_wrapper(wrapper, fn)
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions and methods, then rebind aliases."""
        for layer in LAYERS:
            mod = importlib.import_module(f"kemst.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(mod, attr, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}", mod.__file__)
        for _where, holder, key, obj in self._references():
            wrapped = self._wrappers.get(id(obj))
            if holder is not None and wrapped and wrapped[0] is obj:
                _assign(holder, key, wrapped[1])

    def _wrap_methods(self, cls, prefix: str, source_file: str) -> None:
        for mname, member in list(vars(cls).items()):
            if mname == "__init__":
                # Only hand-written constructors; dataclass ones are generated.
                if not (
                    inspect.isfunction(member)
                    and member.__code__.co_filename == source_file
                ):
                    continue
                label = "init"
            elif mname.startswith("_"):
                continue
            else:
                label = mname
            name = f"{prefix}.{label}"
            if inspect.isfunction(member):
                setattr(cls, mname, self._wrap(member, name))
            elif isinstance(member, staticmethod):
                setattr(cls, mname, staticmethod(self._wrap(member.__func__, name)))

    def _references(self):
        """Every (where, holder, key, value) reachable from kemst modules.

        The holder is None where the reference cannot be rebound: tuple
        items and default argument values.
        """
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kemst" or modname.startswith("kemst.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                where = f"{modname}.{attr}"
                yield where, mod, attr, obj
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        yield f"{where}[{key!r}]", obj, key, val
                elif isinstance(obj, (list, tuple)):
                    holder = obj if isinstance(obj, list) else None
                    for i, val in enumerate(obj):
                        yield f"{where}[{i}]", holder, i, val
                elif inspect.isclass(obj) and obj.__module__.startswith("kemst"):
                    for mname, member in list(vars(obj).items()):
                        if isinstance(member, staticmethod):
                            member = member.__func__
                        yield f"{where}.{mname}", obj, mname, member
                if inspect.isfunction(obj):
                    original = getattr(obj, "__wrapped__", obj)
                    defaults = (original.__defaults__ or ()) + tuple(
                        (original.__kwdefaults__ or {}).values()
                    )
                    for i, val in enumerate(defaults):
                        yield f"{where} default {i}", None, i, val

    def leftover_aliases(self) -> list[str]:
        """References that still point at a wrapped function's original."""
        return sorted(
            where
            for where, _holder, _key, obj in self._references()
            if id(obj) in self._wrappers and self._wrappers[id(obj)][0] is obj
        )

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        total = defaultdict(float)
        self_time = defaultdict(float)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        emst_under = defaultdict(int)
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - children[i]
            if name == "spanning.emst":
                ancestors = set()
                while parent >= 0:
                    ancestors.add(self.spans[parent][0])
                    parent = self.spans[parent][3]
                for a in ancestors:
                    emst_under[a] += 1

        out = {}
        for metric, *_rest in LAYER_METRICS:
            func, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls.get(func, [0])[0]
            elif stat == "total_s":
                out[metric] = total[func]
            elif stat == "self_s":
                out[metric] = self_time[func]
            else:
                out[metric] = self.values[metric]
        v = self.values
        out["event_stability.emst_per_event"] = _share(
            emst_under["event_stability.run_event_regime"], v["event_stability.events"]
        )
        out["morph.detect_swaps.emst_per_swap"] = _share(
            emst_under["morph.detect_swaps"], v["morph.swaps"]
        )
        out["morph.fallback_frac"] = _share(v["morph.fallbacks"], v["morph.swaps"])
        out["lipschitz.completed_frac"] = _share(
            v["lipschitz.slides_completed"], out["lipschitz.schedule_completion.calls"]
        )
        return out

    def silent(self, workload: str) -> list[str]:
        """Metrics assigned to this workload whose source never fired."""
        values = self.metrics()
        out = []
        for metric, _unit, workloads in LAYER_METRICS:
            if workload not in workloads:
                continue
            func, _, stat = metric.rpartition(".")
            fired = (
                self.calls.get(func, [0])[0] if stat in _STAT_SUFFIXES else values[metric]
            )
            if not fired:
                out.append(metric)
        return out

    def dump(self, path) -> None:
        names = sorted(self.calls)
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], start, end, parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _assign(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    elif inspect.isclass(holder) and isinstance(vars(holder).get(key), staticmethod):
        setattr(holder, key, staticmethod(value))
    else:
        setattr(holder, key, value)
