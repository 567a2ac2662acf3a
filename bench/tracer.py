"""Layer tracing from outside the package.

`Tracer.install` replaces the public functions of each layer with timing
wrappers, under the names their callers look them up by (`candidates` and
`oracle` import `perp` and `in_convex_hull` by name, so wrapping only
`ratgeom.perp` would count nothing).  `Tracer.uninstall` puts the original
objects back.  Nothing under `src/` is edited.

Every wrapped call is a frame on one stack.  On return its wall time goes to
the function's inclusive time (outermost call only, so recursion is not
counted twice) and its self time, the duration minus the time of wrapped
calls made inside it, goes to its module.  Calls of every wrapped function
except the very hot `GramSpace.inner` are also kept as spans
`(id, parent, name, op, start, end)` while `keep_spans` is set.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "rootdata", "ratgeom", "candidates", "engine", "report", "oracle")

# (span name, layer whose self time it adds to, namespaces that look the
# name up); "ratgeom.GramSpace" is the class, whose method every space uses
WRAPPED = (
    ("load_problem", "cli", ("cli",)),
    ("validate", "rootdata", ("rootdata", "engine", "oracle")),
    ("orbit_closure", "rootdata", ("rootdata", "engine")),
    ("inner", "ratgeom", ("ratgeom.GramSpace",)),
    ("perp", "ratgeom", ("candidates", "oracle")),
    ("in_convex_hull", "ratgeom", ("candidates", "oracle")),
    ("candidate_from_subset", "candidates", ("candidates",)),
    ("enumerate_candidates", "candidates", ("engine", "oracle")),
    ("stratify", "engine", ("engine",)),
    ("build_tree", "engine", ("engine",)),
    ("restrict", "engine", ("engine",)),
    ("equality_set", "engine", ("engine",)),
    ("stratum_report", "engine", ("engine",)),
    ("to_text", "report", ("report",)),
    ("to_json_text", "report", ("report",)),
    ("compare_with_naive", "oracle", ("oracle",)),
    ("naive_candidates", "oracle", ("oracle",)),
)

LAYER_OF = {name: layer for name, layer, _ in WRAPPED}

UNSPANNED = frozenset({"inner"})


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "found")

    def __init__(self, name, span_id):
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.span_id = span_id
        self.found = None


class Tracer:
    """Counts, inclusive times, per-layer self times and spans of wrapped calls."""

    def __init__(self):
        self._saved = []
        self.keep_spans = False
        self.op = None
        self.spans = []
        self._stack = [_Frame(None, None)]
        self._active = Counter()
        self._next_id = 0
        self.reset()

    def reset(self):
        """Zero every counter and timer; spans already kept stay."""
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.compare_engine_s = 0.0

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, _, namespaces in WRAPPED:
            for namespace in namespaces:
                module_name, _, class_name = namespace.partition(".")
                owner = importlib.import_module(f"nullcone.{module_name}")
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, None, args)
                raise
            tracer._exit(frame, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- accounting -------------------------------------------------------

    def _enter(self, name, args):
        span_id = None
        if self.keep_spans and name not in UNSPANNED:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id)
        parent = self._stack[-1].name
        if name == "enumerate_candidates":
            frame.found = set()
            if parent == "equality_set":
                self.counts["equality_set.enumerations"] += 1
        elif name == "perp" and parent == "naive_candidates":
            self.counts["naive.subsets"] += 1
        self._stack.append(frame)
        self._active[name] += 1
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame, result, args):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        name = frame.name
        duration = end - frame.start
        parent.child += duration
        self.calls[name] += 1
        self.self_time[LAYER_OF[name]] += duration - frame.child
        self._active[name] -= 1
        if not self._active[name]:
            self.inclusive[name] += duration
        if frame.span_id is not None:
            self.spans.append((frame.span_id, parent.span_id, name, self.op,
                               frame.start, end))
        if name == "candidate_from_subset":
            if result is not None and parent.found is not None:
                parent.found.add(result.l)
        elif name == "enumerate_candidates":
            if not args[0].constraints and result is not None:
                # root-level enumeration: the problem itself, not a restriction
                self.counts["distinct_l"] += len(frame.found)
                self.counts["kept"] += len(result)
            if parent.name == "compare_with_naive":
                self.compare_engine_s += duration
        elif name == "in_convex_hull":
            self.counts["hull.feasible"] += result is True
        elif name == "orbit_closure" and result is not None:
            self.counts["orbit.points"] += len(result)
        elif name in ("to_text", "to_json_text") and result is not None:
            self.counts["report.bytes"] += len(result.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def counters(self):
        """The deterministic work counts, by per-layer metric name."""
        calls, counts = self.calls, self.counts
        tried = calls["candidate_from_subset"]
        return {
            "rootdata.orbit.calls": calls["orbit_closure"],
            "rootdata.orbit.points": counts["orbit.points"],
            "ratgeom.inner.calls": calls["inner"],
            "ratgeom.perp.calls": calls["perp"],
            "ratgeom.hull.calls": calls["in_convex_hull"],
            "ratgeom.hull.feasible": counts["hull.feasible"],
            "candidates.enumerate.calls": calls["enumerate_candidates"],
            "candidates.subsets.tried": tried,
            "candidates.distinct_l": counts["distinct_l"],
            "candidates.kept": counts["kept"],
            "engine.tree.nodes": calls["build_tree"],
            "engine.restrict.calls": calls["restrict"],
            "engine.equality_set.calls": calls["equality_set"],
            "engine.equality_set.enumerations": counts["equality_set.enumerations"],
            "report.bytes": counts["report.bytes"],
            "oracle.naive.subsets": counts["naive.subsets"],
        }

    def timings(self):
        """Seconds spent, by per-layer metric name."""
        inc = self.inclusive
        out = {
            "rootdata.orbit_s": inc["orbit_closure"],
            "ratgeom.inner_s": inc["inner"],
            "ratgeom.perp_s": inc["perp"],
            "ratgeom.hull_s": inc["in_convex_hull"],
            "candidates.enumerate_s": self.self_time["candidates"],
            "engine.tree_s": inc["build_tree"],
            "engine.stratum_report_s": inc["stratum_report"],
            "report.to_text_s": inc["to_text"],
            "report.to_json_s": inc["to_json_text"],
            "oracle.naive_s": inc["naive_candidates"],
            "oracle.compare.engine_s": self.compare_engine_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out
