"""Per-layer attribution measured from outside the program.

For the traced pass the harness replaces each public entry point listed in
:data:`LAYER_ENTRYPOINTS` with a wrapper that records a span (key, start,
end, parent, op id) in memory.  A layer's time is its spans' *self* time:
duration minus the part covered by child spans.  Nothing under ``src/`` is
edited; an entry point that no longer resolves is reported in
``SpanRecorder.missing`` and its metrics read 0, so a refactor of the
program keeps the benchmark runnable.

Spans are kept per thread.  Only the thread that installed the recorder
(the load generator) contributes to self times; spans of other threads —
the serve tier's fan-out pool — are kept as totals
(``serve.transport.roundtrip``).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import Counter
from time import perf_counter

# span fields
KEY, START, END, PARENT, OP = range(5)

#: Key of the span the harness opens around each op.
OP_KEY = "harness.op"
#: Key of the child span a wrapper opens around its own counting, so that
#: probe time is charged to the harness and not to the layer it observes.
PROBE_KEY = "harness.probe"


# --------------------------------------------------------------------------
# probes: counts taken at the same boundaries as the spans
# --------------------------------------------------------------------------
# A probe is called with the wrapped call's (args, kwargs) before the call
# and returns ``after(result) -> {counter: increment}``.


def _probe_apply(args, kwargs):
    events = args[1] if len(args) > 1 else kwargs.get("events", ())
    n = len(events) if hasattr(events, "__len__") else 0
    return lambda result: {"events": n}


def _probe_decide(args, kwargs):
    def after(decision):
        return {
            "due": int(bool(decision.due)),
            "skipped_clean": int(decision.reason == "clean"),
        }

    return after


def _probe_prune(args, kwargs):
    tree = args[0]

    def after(pruning):
        return {"influencers": len(pruning.influencers), "objects": len(tree.db)}

    return after


def _probe_arena(args, kwargs):
    arena, requests, n = args[0], args[1], args[2]
    before = arena.table_builds

    def after(result):
        return {
            "paths_drawn": int(n) * len(requests),
            "table_builds": arena.table_builds - before,
        }

    return after


#: ``(layer, stem, target, probe)`` — the public entry points the harness
#: wraps.  ``target`` is ``"module:attribute.path"``.  Several targets may
#: share one ``layer.stem`` key; their spans are pooled.
LAYER_ENTRYPOINTS = (
    ("markov.adaptation", "adapt", "repro.markov.adaptation:adapt_model", None),
    ("markov.compiled", "compile", "repro.markov.compiled:compile_model", None),
    ("markov.compiled", "sample", "repro.markov.compiled:CompiledModel.sample_paths", None),
    ("markov.arena", "sample", "repro.markov.arena:sample_paths_arena", _probe_arena),
    ("trajectory.database", "mutate", "repro.trajectory.database:TrajectoryDatabase.add_object", None),
    ("trajectory.database", "mutate", "repro.trajectory.database:TrajectoryDatabase.add_observation", None),
    ("trajectory.database", "mutate", "repro.trajectory.database:TrajectoryDatabase.remove_object", None),
    ("trajectory.diamonds", "compute", "repro.trajectory.diamonds:compute_diamonds", None),
    ("spatial.ust_tree", "build", "repro.spatial.ust_tree:USTTree.__init__", None),
    ("spatial.ust_tree", "update", "repro.spatial.ust_tree:USTTree.update_object", None),
    ("spatial.ust_tree", "prune", "repro.spatial.ust_tree:USTTree.prune", _probe_prune),
    ("stream.ingest", "apply", "repro.stream.ingest:ObservationStream.apply", _probe_apply),
    ("stream.scheduler", "decide", "repro.stream.scheduler:SubscriptionScheduler.decide", _probe_decide),
    ("stream.monitor", "tick_self", "repro.stream.monitor:ContinuousMonitor.tick", None),
    ("core.evaluator", "explain", "repro.core.evaluator:QueryEngine.explain", None),
    ("core.evaluator", "evaluate_self", "repro.core.evaluator:QueryEngine.evaluate", None),
    ("core.evaluator", "evaluate_self", "repro.core.evaluator:QueryEngine.evaluate_many", None),
    ("core.evaluator", "distance", "repro.core.evaluator:QueryEngine.distance_tensor", None),
    ("core.evaluator", "prefetch", "repro.core.evaluator:QueryEngine.prefetch_worlds", None),
    ("core.estimators", "estimate", "repro.core.estimators:Estimator.run", None),
    ("core.worlds", "lookup", "repro.core.worlds:WorldCache.states_for", None),
    ("core.worlds", "lookup", "repro.core.worlds:WorldCache.states_for_many", None),
    ("serve.coordinator", "tick_self", "repro.serve.coordinator:ServeCoordinator.tick", None),
    ("serve.transport", "wait", "repro.serve.transport:ProcessTransport.broadcast", None),
    ("serve.transport", "roundtrip", "repro.serve.transport:ProcessTransport.request", None),
)


class _ThreadLog:
    __slots__ = ("spans", "stack")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []


class SpanRecorder:
    """Installs the wrappers, holds the spans, computes self times."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op_id = -1
        self._local = threading.local()
        self._main = self._local.log = _ThreadLog()
        self._other_logs: list[_ThreadLog] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            self._other_logs.append(log)  # list.append is atomic
        return log

    def begin(self, key: str) -> list:
        log = self._log()
        stack = log.stack
        span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(log.spans))
        log.spans.append(span)
        span[START] = perf_counter()
        return span

    def end(self, span: list) -> None:
        """Close the innermost open span of the calling thread."""
        span[END] = perf_counter()
        self._log().stack.pop()

    def _wrap(self, fn, key: str, probe):
        counts = self.counts

        def traced(*args, **kwargs):
            after = None
            if probe is not None:
                try:
                    after = probe(args, kwargs)
                except Exception:  # a changed signature must not fail the run
                    counts[key + ".probe_errors"] += 1
            span = self.begin(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[key + ".raised"] += 1
                self.end(span)
                raise
            if after is not None:
                probe_span = self.begin(PROBE_KEY)
                try:
                    for name, inc in after(result).items():
                        counts[f"{key}.{name}"] += inc
                except Exception:
                    counts[key + ".probe_errors"] += 1
                self.end(probe_span)
            self.end(span)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every resolvable entry point; ``uninstall`` restores them."""
        for layer, stem, target, probe in LAYER_ENTRYPOINTS:
            key = f"{layer}.{stem}"
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(original, key, probe)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                # An override in a subclass (the serve tier's engine) does the
                # same job for the same layer.
                for sub in _subclasses(owner):
                    override = vars(sub).get(attr)
                    if callable(override):
                        self._set(sub, attr, self._wrap(override, key, probe))
            else:
                # ``from .adaptation import adapt_model`` copies the function
                # into the importer's namespace; patch every such copy.
                for name, module in list(sys.modules.items()):
                    if name.split(".")[0] != module_name.split(".")[0] or module is None:
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, alias, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counts (wrappers stay installed)."""
        self._main.spans.clear()
        for log in self._other_logs:
            log.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Self time, inclusive time and call count per key.

        ``self_s``/``calls`` come from the installing thread only;
        ``incl_s`` of a key nested in itself (an override calling its base)
        counts the outermost span once.
        """
        spans = self._main.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(spans):
            row = out.setdefault(span[KEY], {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
            duration = span[END] - span[START]
            row["self_s"] += duration - child_time[i]
            if span[PARENT] < 0 or spans[span[PARENT]][KEY] != span[KEY]:
                row["incl_s"] += duration
                row["calls"] += 1
        for log in self._other_logs:
            for span in log.spans:
                row = out.setdefault(span[KEY], {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
                row["incl_s"] += span[END] - span[START]
                row["calls"] += 1
        return out

    def children(self, key: str, parent_key: str) -> list[float]:
        """Durations of the ``key`` spans whose direct parent is a ``parent_key`` span."""
        spans = self._main.spans
        return [
            s[END] - s[START]
            for s in spans
            if s[KEY] == key and s[PARENT] >= 0 and spans[s[PARENT]][KEY] == parent_key
        ]

    def dump(self, path) -> None:
        """Write every span as one JSON line (thread 0 is the load generator)."""
        with open(path, "w") as fh:
            for thread, log in enumerate([self._main, *self._other_logs]):
                for i, span in enumerate(log.spans):
                    fh.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "id": i,
                                "name": span[KEY],
                                "start": span[START],
                                "end": span[END],
                                "parent": span[PARENT],
                                "op": span[OP],
                            }
                        )
                        + "\n"
                    )


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
