"""Per-layer tracing of the tunnelmeet pipeline from outside the package.

The tracer replaces public names at the points where one package module
calls another (for example the ``graph_rv`` name that ``geometry``
imports) and a few methods (``Route.steps``, ``WalkSchedule.pieces``,
``FiniteGraph.traverse``).  Nothing under ``src/`` changes; ``uninstall``
puts every original back.

Two kinds of boundary are recorded:

* coarse calls (one per operation or per cell) become spans
  ``(op, span, parent, name, start, end)`` kept in memory and written out
  when the run ends;
* fine boundaries (every ``traverse`` call, every ``next()`` on a wrapped
  iterator) are far too many to keep, so each one only adds its count and
  its self time to its layer and its duration to the enclosing frame.

A layer's self time is its duration minus the time its child frames
cover.  Everything runs in one thread and no layer queues, so there is no
waiting time to report.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

_perf = time.perf_counter


def route_len(route) -> int:
    """Step count of a route: ``.length`` where a route has one, else
    ``len()`` (``len(Route)`` overflows past 2**63 and may be replaced)."""
    n = getattr(route, "length", None)
    return len(route) if n is None else n


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.extra = defaultdict(int)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._undo: list[tuple] = []
        # frame: [time covered by children, id of the nearest recorded span,
        # own span id (None when not recorded), parent span id]
        self._stack = [[0.0, None, None, None]]
        self._next_span = 0

    # -- frames ------------------------------------------------------------

    def _enter(self, record: bool):
        parent = self._stack[-1]
        sid = None
        if record:
            sid = self._next_span
            self._next_span += 1
        frame = [0.0, parent[1] if sid is None else sid, sid, parent[1]]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        d = t1 - t0
        self.busy[name] += d - frame[0]
        self.inclusive[name] += d
        self._stack[-1][0] += d
        if frame[2] is not None:
            self.spans.append((self.op_id, frame[2], frame[3], name, t0, t1))

    def measure(self, fn, *args):
        """Run bench-internal work (a count) as a child frame, so the
        layer it sits in is not charged for it."""
        frame = self._enter(False)
        t0 = _perf()
        try:
            return fn(*args)
        finally:
            self._leave(frame, "bench.internal", t0, _perf())

    def run_op(self, thunk):
        """One benchmark operation as a root span; spans inside it share
        its id."""
        self.op_id += 1
        self.calls["bench.op"] += 1
        frame = self._enter(True)
        t0 = _perf()
        try:
            return thunk()
        finally:
            self._leave(frame, "bench.op", t0, _perf())

    # -- wrappers ----------------------------------------------------------

    def _call(self, name, fn, record, after=None, error=None):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            frame = tr._enter(record)
            tr.calls[name] += 1
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tr._leave(frame, name, t0, _perf())
                if error is not None:
                    error(tr, exc)
                raise
            tr._leave(frame, name, t0, _perf())
            if after is not None:
                after(tr, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _iter(self, name, fn):
        tr = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return tr._traced_iter(name, it) if tr.active else it

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_iter(self, name, it):
        nxt = iter(it).__next__
        stack = self._stack
        busy, inclusive, calls = self.busy, self.inclusive, self.calls
        while True:
            frame = [0.0, stack[-1][1], None, None]
            stack.append(frame)
            t0 = _perf()
            try:
                item = nxt()
            except StopIteration:
                return
            finally:
                d = _perf() - t0
                stack.pop()
                busy[name] += d - frame[0]
                inclusive[name] += d
                stack[-1][0] += d
            calls[name] += 1
            yield item

    # -- installation ------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by
        ``make(original)``; a name that no longer exists is recorded as
        absent instead of failing the run."""
        try:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module}.{attr}")
            return
        setattr(owner, last, make(original))
        self._undo.append((owner, last, original))

    def install(self, points=None) -> None:
        for module, attr, make in points or wrap_points(self):
            self._patch(module, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, last, original = self._undo.pop()
            setattr(owner, last, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "span": sid, "parent": parent, "name": name,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict:
        c, b, x = self.calls, self.busy, self.extra
        cells = c["adversary.detect_meeting_graph"] + c["adversary.detect_meeting_planar"]
        n_sum = x["tunnel_n_sum"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "enumeration.phase_stream.phases": (c["enumeration.phase_stream"], "count"),
            "enumeration.phase_stream.busy_s": (b["enumeration.phase_stream"], "s"),
            "graph_model.traverse.calls": (c["graph_model.traverse"], "count"),
            "graph_model.traverse.busy_s": (b["graph_model.traverse"], "s"),
            "routes.steps_yielded": (c["routes.steps"], "count"),
            "routes.steps.busy_s": (b["routes.steps"], "s"),
            "routes.route_steps": (x["route_steps"], "count"),
            "rendezvous.graph_rv.calls": (c["rendezvous.graph_rv"], "count"),
            "rendezvous.graph_rv.busy_s": (b["rendezvous.graph_rv"], "s"),
            "rendezvous.graph_rv.over_budget": (x["over_budget"], "count"),
            "rendezvous.tunnel_check.calls": (c["rendezvous.tunnel_check"], "count"),
            "rendezvous.tunnel_check.busy_s": (b["rendezvous.tunnel_check"], "s"),
            "rendezvous.tunnel_check.n_sum": (n_sum, "count"),
            "rendezvous.tunnel_check.s_per_step": (
                ratio(self.inclusive["rendezvous.tunnel_check"], n_sum), "s/step"),
            "adversary.detect_meeting_graph.calls": (c["adversary.detect_meeting_graph"], "count"),
            "adversary.detect_meeting_graph.busy_s": (b["adversary.detect_meeting_graph"], "s"),
            "adversary.detect_meeting_planar.calls": (c["adversary.detect_meeting_planar"], "count"),
            "adversary.detect_meeting_planar.busy_s": (b["adversary.detect_meeting_planar"], "s"),
            "adversary.verify_rendezvous.busy_s": (b["adversary.verify_rendezvous"], "s"),
            "adversary.cells": (cells, "count"),
            "adversary.pieces_yielded": (c["adversary.pieces"], "count"),
            "adversary.pieces_per_cell": (ratio(c["adversary.pieces"], cells), "pieces/cell"),
            "adversary.met_ratio": (ratio(x["met"], cells), "ratio"),
            "geometry.geometric_rv.calls": (c["geometry.geometric_rv"], "count"),
            "geometry.geometric_rv.busy_s": (b["geometry.geometric_rv"], "s"),
            "geometry.planar_segments": (x["planar_segments"], "count"),
            "geometry.approx_rendezvous.busy_s": (b["geometry.approx_rendezvous"], "s"),
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.main.busy_s": (b["cli.main"], "s"),
            "cli.report_bytes": (x["report_bytes"], "count"),
            "bench.ops": (c["bench.op"], "count"),
            "trace.spans": (len(self.spans), "count"),
            "trace.absent_wrappers": (len(self.absent), "count"),
        }


# ---------------------------------------------------------------------------
# Hooks that turn a call's result into counts
# ---------------------------------------------------------------------------

def _built(tr, args, route):
    tr.extra["route_steps"] += route_len(route)


def _over_budget(tr, exc):
    if type(exc).__name__ == "StepBudgetExceeded":
        tr.extra["over_budget"] += 1


def _tunnel(tr, args, cert):
    # steps the scan read: the certificate's n, or the whole shorter route
    tr.extra["tunnel_n_sum"] += (
        cert.n if cert is not None else min(route_len(args[0]), route_len(args[1]))
    )


def _verdict(tr, args, verdict):
    tr.extra["met"] += bool(verdict.met)


def _rendered(tr, args, planar):
    tr.extra["planar_segments"] += tr.measure(lambda: sum(1 for _ in planar.points()) - 1)


def _report(tr, args, rc):
    argv = list(args[0]) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        with open(path, "rb") as fh:
            tr.extra["report_bytes"] += len(fh.read())


def wrap_points(tr: Tracer) -> list:
    """(module, attribute, wrapper factory) for every traced boundary."""

    def span(name, after=None, error=None):
        return lambda fn: tr._call(name, fn, True, after, error)

    def fine(name):
        return lambda fn: tr._call(name, fn, False)

    def iterator(name):
        return lambda fn: tr._iter(name, fn)

    graph_rv = span("rendezvous.graph_rv", _built, _over_budget)
    tunnel = span("rendezvous.tunnel_check", _tunnel)
    verify = span("adversary.verify_rendezvous")
    geometric = span("geometry.geometric_rv", _rendered)
    pkg = "tunnelmeet."
    return [
        (pkg + "rendezvous", "phase_stream", iterator("enumeration.phase_stream")),
        (pkg + "graph_model", "FiniteGraph.traverse", fine("graph_model.traverse")),
        (pkg + "routes", "Route.steps", iterator("routes.steps")),
        (pkg + "adversary", "WalkSchedule.pieces", iterator("adversary.pieces")),
        (pkg + "rendezvous", "graph_rv", graph_rv),
        (pkg + "geometry", "graph_rv", graph_rv),
        (pkg + "cli", "graph_rv", graph_rv),
        (pkg + "rendezvous", "tunnel_check", tunnel),
        (pkg + "cli", "tunnel_check", tunnel),
        (pkg + "adversary", "detect_meeting_graph", span("adversary.detect_meeting_graph", _verdict)),
        (pkg + "adversary", "detect_meeting_planar", span("adversary.detect_meeting_planar", _verdict)),
        (pkg + "adversary", "verify_rendezvous", verify),
        (pkg + "cli", "verify_rendezvous", verify),
        (pkg + "geometry", "geometric_rv", geometric),
        (pkg + "cli", "geometric_rv", geometric),
        (pkg + "cli", "approx_rendezvous", span("geometry.approx_rendezvous")),
        (pkg + "cli", "main", span("cli.main", _report)),
    ]
