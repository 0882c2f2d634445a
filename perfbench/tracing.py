"""Span tracing of the `enhq` layers from outside the package.

`Tracer.install()` wraps the public functions of each layer module, and
the methods of the coherent-state families, at every module that binds
them (a name imported with `from .hilbert import position_operator` is a
second binding).  `uninstall()` restores the originals, so untraced passes
run the unmodified program.  Spans stay in memory as
`[name, start, end, parent, thread, steps]` records until `dump()`.

Spans that start on a fan-out worker thread with no open span of their
own attach to the main thread's open top-level span (`cli.run`).  Self
time is exclusive wall time: each instant of a pass goes to the innermost
open span of each running thread, a span waiting on its own worker-thread
children gets none of it, and concurrent spans split the instant evenly.
The self times of all spans therefore add up to the traced wall time not
spent in the benchmark's own loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time

LAYERS = ("hilbert", "coherent", "geometry", "wcp", "dynamics", "inequality", "cli")
FAMILIES = ("CanonicalFamily", "AffineFamily", "SpinFamily")
# geometry builds spin states through the unchecked path
PRIVATE_METHODS = {"SpinFamily": ("_state_unchecked",)}

# metric stem -> span names; calls and inclusive time count only the
# outermost span of a group, so expect_power -> expect_laurent is one call
GROUPS = {
    "dynamics.integrate": ("dynamics.integrate",),
    "coherent.init": tuple(f"coherent.{f}.__init__" for f in FAMILIES),
    "coherent.state": ("coherent.CanonicalFamily.state", "coherent.AffineFamily.state",
                       "coherent.SpinFamily.state", "coherent.SpinFamily._state_unchecked",
                       "coherent.SpinFamily.pq_state"),
    "coherent.expect": ("coherent.AffineFamily.expect_laurent",
                        "coherent.AffineFamily.expect_power"),
    "hilbert.operator": ("hilbert.annihilation_operator", "hilbert.position_operator",
                         "hilbert.momentum_operator", "hilbert.dilation_operator",
                         "hilbert.spin_operators"),
    "geometry.metric": ("geometry.fs_metric",),
    "geometry.curvature": ("geometry.gaussian_curvature",),
    "wcp.enhanced": ("wcp.enhanced_hamiltonian",),
    "wcp.fit": ("wcp.hbar_scaling_fit",),
    "inequality.radial": ("inequality.lhs", "inequality.rhs"),
    "cli": ("cli.run",),
}

NAME, START, END, PARENT, THREAD, STEPS = range(6)


def _targets():
    """(owner, attribute, span name, original) for every traced callable."""
    mods = {layer: importlib.import_module(f"enhq.{layer}") for layer in LAYERS}
    originals = {}  # id(function) -> span name
    targets = []
    for layer, mod in mods.items():
        for attr in ["run"] if layer == "cli" else mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[id(obj)] = f"{layer}.{attr}"
            elif inspect.isclass(obj) and attr in FAMILIES and obj.__module__ == mod.__name__:
                names = [m for m, f in vars(obj).items()
                         if inspect.isfunction(f) and (not m.startswith("_") or m == "__init__")]
                names += PRIVATE_METHODS.get(attr, ())
                for m in names:
                    targets.append((obj, m, f"{layer}.{attr}.{m}", vars(obj)[m]))
    # bind the wrapper wherever a module holds the original, package included
    for mod in [importlib.import_module("enhq"), *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in originals:
                targets.append((mod, attr, originals[id(obj)], obj))
    return targets


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.passes: list[tuple[int, int, float]] = []  # span slice, timed wall
        self._targets = _targets()
        self._wrappers = {}
        self._local = threading.local()
        self._main = threading.get_ident()
        self._root = None  # open top-level span of the main thread

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name):
        key = (id(fn), name)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, local, clock = self.spans, self._local, time.perf_counter
        count_steps = name == "dynamics.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            tid = threading.get_ident()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root if tid != self._main else None
            rec = [name, clock(), 0.0, parent, tid, None]
            spans.append(rec)
            stack.append(rec)
            if parent is None:
                self._root = rec
            try:
                out = fn(*args, **kwargs)
                if count_steps:
                    rec[STEPS] = (len(out.times) - 1, out.status == "singularity")
                return out
            finally:
                rec[END] = clock()
                stack.pop()

        self._wrappers[key] = traced
        return traced

    def install(self) -> None:
        for owner, attr, name, orig in self._targets:
            setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for owner, attr, _, orig in reversed(self._targets):
            setattr(owner, attr, orig)
        self._root = None

    def mark_pass(self, first_span: int, wall: float) -> None:
        """Close a pass: its spans start at first_span; wall is its timed length."""
        self.passes.append((first_span, len(self.spans), wall))

    # ------------------------------------------------------------ analysis

    def pass_metrics(self, k: int) -> dict:
        lo, hi, wall = self.passes[k]
        spans = self.spans[lo:hi]
        self_time = _exclusive_times(spans)
        group_of = {n: g for g, names in GROUPS.items() for n in names}
        calls = {g: 0 for g in GROUPS}
        incl = {g: 0.0 for g in GROUPS}
        selfs = {g: 0.0 for g in GROUPS}
        layer_self = {layer: 0.0 for layer in LAYERS}
        steps = hit_steps = 0
        states_in_curvature = 0
        for rec in spans:
            name = rec[NAME]
            layer_self[name.split(".", 1)[0]] += self_time[id(rec)]
            g = group_of.get(name)
            if g is None:
                continue
            selfs[g] += self_time[id(rec)]
            outer = True
            in_curvature = False
            p = rec[PARENT]
            while p is not None:
                if group_of.get(p[NAME]) == g:
                    outer = False
                if p[NAME] == "geometry.gaussian_curvature":
                    in_curvature = True
                p = p[PARENT]
            if not outer:
                continue
            calls[g] += 1
            incl[g] += rec[END] - rec[START]
            if rec[STEPS] is not None:
                steps += rec[STEPS][0]
                hit_steps += rec[STEPS][0] if rec[STEPS][1] else 0
            if g == "coherent.state" and in_curvature:
                states_in_curvature += 1
        m = {
            "dynamics.integrate_calls": calls["dynamics.integrate"],
            "dynamics.integrate_s": incl["dynamics.integrate"],
            "dynamics.steps": steps,
            "dynamics.steps_per_s": steps / incl["dynamics.integrate"] if steps else 0.0,
            "dynamics.hit_steps": hit_steps,
            "coherent.init_calls": calls["coherent.init"],
            "coherent.init_s": incl["coherent.init"],
            "coherent.state_calls": calls["coherent.state"],
            "coherent.state_s": incl["coherent.state"],
            "coherent.expect_calls": calls["coherent.expect"],
            "coherent.expect_s": incl["coherent.expect"],
            "hilbert.operator_calls": calls["hilbert.operator"],
            "hilbert.operator_s": incl["hilbert.operator"],
            "geometry.metric_calls": calls["geometry.metric"],
            "geometry.metric_self_s": selfs["geometry.metric"],
            "geometry.curvature_calls": calls["geometry.curvature"],
            "geometry.curvature_self_s": selfs["geometry.curvature"],
            "geometry.states_per_curvature": (states_in_curvature / calls["geometry.curvature"]
                                              if calls["geometry.curvature"] else 0.0),
            "wcp.enhanced_calls": calls["wcp.enhanced"],
            "wcp.enhanced_self_s": selfs["wcp.enhanced"],
            "wcp.fit_s": incl["wcp.fit"],
            "inequality.radial_calls": calls["inequality.radial"],
            "inequality.radial_s": incl["inequality.radial"],
            "cli.calls": calls["cli"],
            "trace.wall_s": wall,
            "trace.attributed_frac": sum(self_time.values()) / wall,
        }
        for layer, t in layer_self.items():
            m[f"{layer}.self_s"] = t
        return m

    def dump(self, path: str) -> None:
        """Write every span once, parents as indices into the list."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[r[NAME], r[START], r[END],
                 index.get(id(r[PARENT])) if r[PARENT] is not None else None,
                 r[THREAD], r[STEPS]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "steps"],
                       "passes": self.passes, "spans": rows}, fh)


def _exclusive_times(spans: list[list]) -> dict[int, float]:
    """Exclusive wall time of each span, keyed by id(span)."""
    # innermost-span segments of each thread: a span minus its children
    # on the same thread
    children: dict[int, list] = {}
    for rec in spans:
        p = rec[PARENT]
        if p is not None and p[THREAD] == rec[THREAD]:
            children.setdefault(id(p), []).append(rec)
    events = []  # (time, order, rec): order 0 closes a segment, 1 opens one
    for rec in spans:
        t = rec[START]
        for c in sorted(children.get(id(rec), ()), key=lambda r: r[START]):
            if c[START] > t:
                events += [(t, 1, rec), (c[START], 0, rec)]
            t = max(t, c[END])
        if rec[END] > t:
            events += [(t, 1, rec), (rec[END], 0, rec)]
    events.sort(key=lambda e: (e[0], e[1]))
    out = {id(rec): 0.0 for rec in spans}
    active: dict[int, list] = {}  # thread -> innermost open span
    last = None
    for t, opening, rec in events:
        if active and last is not None and t > last:
            running = list(active.values())
            waiting = set()
            for r in running:  # a span whose worker-thread descendants run is waiting
                p = r[PARENT]
                while p is not None:
                    if p[THREAD] != r[THREAD]:
                        waiting.add(id(p))
                    p = p[PARENT]
            busy = [r for r in running if id(r) not in waiting]
            for r in busy:
                out[id(r)] += (t - last) / len(busy)
        last = t
        if opening:
            active[rec[THREAD]] = rec
        elif active.get(rec[THREAD]) is rec:
            del active[rec[THREAD]]
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
