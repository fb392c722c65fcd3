"""Route construction for graph rendezvous, and the tunnel oracle.

The agent builds its route in phases, one hypothesis quadruple per
phase.  Every phase starts and ends at the agent's start node.  When the
current quadruple names the agent's own label and the hypothesized port
sequence checks out (the walk succeeds and the observed entry ports
match the reverse sequence), the agent extends its route with a
simulation of the other agent's first ``k-1`` phases and a back-and-
forth that forces the two routes to form a tunnel for that hypothesis.
That simulation is a prefix of the partner's own route.

An agent's route depends only on its start, its label and the world, so
``RouteBuilder`` builds every route of one world from shared parts: one
decoded phase table, one walk per ``(start, ports)`` hypothesis and one
phase history per ``(start, label)``, in which a simulation is a lookup.
Both agents of a run are built by one builder; ``graph_rv`` is the
one-shot form.

Two routes form a tunnel when a prefix of one, read backward with every
traversal reversed, is a prefix of the other; a tunnel certificate is a
sufficient condition for rendezvous under any adversary schedules.

``tunnel_check`` decides that relation exactly as a border problem over
interned directed steps: the smallest ``n`` for which route one's first
``n`` steps equal the last ``n`` of route two's reversed window, found by
Knuth-Morris-Pratt matching in windows of 64, 256, 1024, ... steps.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .enumeration import phase_stream
from .graph_model import NodeHandle, PortLabeledGraph
from .routes import (
    Route,
    StepBudgetExceeded,
    _StepIds,
    _cat,
    _leaf,
    _rev,
)

DEFAULT_STEP_BUDGET = 10**7


@dataclass(frozen=True)
class Limits:
    """Construction limits: how many phases to run (none when 0 or less)
    and how long the route may get before the builder gives up."""

    phase_cap: int
    step_budget: int = DEFAULT_STEP_BUDGET


@dataclass
class TunnelCertificate:
    """Witness that two routes form a tunnel: the first ``n`` steps of
    route one, reversed step-by-step, are the first ``n`` steps of route
    two."""

    n: int


class RouteBuilder:
    """Every route of one world, built once: ``route(v, label)`` for any
    number of agents, each up to ``limits.phase_cap`` phases.

    Phase ``k``'s quadruple, a hypothesis walk from a start node and the
    rope of a ``(start, label)`` run after ``k`` phases each depend only on
    the world, so each is computed once per builder: ``quads[k]`` is drawn
    from one ``phase_stream``, ``walks`` maps ``(v, ports)`` to the walk,
    its reversal, its end node and its entry ports read backward (None when
    a port is missing on the way), and ``runs[v, label][k]`` is the rope after
    ``k`` phases.  A run only appends a finished phase within the budget,
    so after a ``StepBudgetExceeded`` every run is still consistent and the
    builder can be asked again.
    """

    def __init__(self, g: PortLabeledGraph, limits: Limits):
        self.g = g
        self.limits = limits
        self.quads = [None]
        self._stream = phase_stream()
        self.walks: dict = {}
        self.runs: dict = {}

    def route(self, v: NodeHandle, label: int) -> Route:
        """Route of the recursion's first ``limits.phase_cap`` phases from
        ``v``, with ``(k, length before phase k)`` marks."""
        if label < 1:
            raise ValueError("labels are positive integers")
        cap = max(self.limits.phase_cap, 0)
        ropes = self._ropes(v, label, cap)
        marks = [(k, ropes[k - 1].length) for k in range(1, cap + 1)]
        return Route(v, ropes[cap], marks)

    def _ropes(self, v: NodeHandle, label: int, phases: int) -> list:
        """The run's ropes, extended until it holds ``phases`` phases.
        Phase counts strictly decrease along the recursion, so a run being
        extended is asked only for phases it holds."""
        ropes = self.runs.setdefault((v, label), [_leaf(())])
        quads = self.quads
        while len(ropes) <= phases:
            k = len(ropes)
            while len(quads) <= k:
                quads.append(next(self._stream)[1])
            ropes.append(self._phase(v, label, k, quads[k], ropes[-1]))
        return ropes

    def _walk(self, v: NodeHandle, ports: tuple) -> tuple:
        walk = self.walks.get((v, ports))
        if walk is None:
            g = self.g
            walked = []
            cur = v
            for port in ports:
                if not g.is_port(cur, port):
                    break
                step = g.traverse(cur, port)
                walked.append(step)
                cur = step.v
            entries = None
            if len(walked) == len(ports):
                entries = tuple(step.in_port for step in reversed(walked))
            leaf = _leaf(tuple(walked))
            walk = self.walks[v, ports] = (leaf, _rev(leaf), cur, entries)
        return walk

    def _phase(self, v: NodeHandle, label: int, k: int, quad, root):
        if label == quad.i:
            s1, s2, other = quad.s_prime, quad.s_dprime, quad.j
        elif label == quad.j:
            s1, s2, other = quad.s_dprime, quad.s_prime, quad.i
        else:
            return root
        walk, back, end, entries = self._walk(v, s1)
        hist = root
        root = _cat(root, walk)
        if s2 == entries:
            sim = self._ropes(end, other, k - 1)[k - 1]
            root = _cat(root, sim, back, _rev(hist), walk, _rev(sim))
        root = _cat(root, back)
        length = root.length
        if length > self.limits.step_budget:
            raise StepBudgetExceeded(
                f"route for label {label} exceeds {self.limits.step_budget} "
                f"steps at phase {k}",
                length,
                k,
                label,
            )
        return root


def graph_rv(
    g: PortLabeledGraph, v: NodeHandle, label: int, limits: Limits
) -> Route:
    """One agent's route, ``RouteBuilder(g, limits).route(v, label)``: the
    recursion's first ``limits.phase_cap`` phases, standing in for the
    algorithm's open-ended run, with ``(k, length before phase k)`` marks.
    A smaller cap gives the route the agent simulates for its partner, a
    prefix of the longer one.  Callers that build both agents use one
    ``RouteBuilder``.

    >>> from tunnelmeet.graph_model import build_finite_graph
    >>> k2 = build_finite_graph({"nodes": ["A", "B"],
    ...     "edges": [{"u": "A", "pu": 1, "v": "B", "pv": 1, "len": 1}]})
    >>> r = graph_rv(k2, "A", 1, Limits(3))
    >>> r.length, r.phase_marks
    (6, [(1, 0), (2, 4), (3, 6)])
    """
    return RouteBuilder(g, limits).route(v, label)


#: the scan reads windows of this many steps, then four times as many, ...
_FIRST_WINDOW = 64


def tunnel_check(r1: Route, r2: Route) -> TunnelCertificate | None:
    """Smallest-``n`` tunnel certificate for two routes, if any.

    Let ``x`` hold the ids of route one's directed steps ``(u, out_port)``
    and ``z`` those of route two's steps reversed, ``(v, in_port)``.  For a
    window of ``m`` steps let ``w = z[m-1], ..., z[0]``.  A tunnel of
    length ``n <= m`` is ``x[:n] == w[m-n:]``: a border between a prefix
    of ``x`` and a suffix of ``w``.  Knuth-Morris-Pratt matching of ``w``
    against ``x`` ends on the longest such ``n``, and the prefix function
    chain below it holds every other, the last nonzero one being the
    smallest.  The scan is exact: no hashing, no verification step.

    The scan reads windows of 64, 256, 1024, ... steps, the last one
    ``min(r1.length, r2.length)``, and stops at the first window that holds
    a tunnel, so short tunnels stay cheap.  The prefix function only grows
    with the window, so reading ``L`` steps costs about ``2.3 L`` loop
    iterations.  ``_StepIds`` reads ``x`` and ``z`` off the rope, one
    Python step per DAG node and leaf step.
    """
    limit = min(r1.length, r2.length)
    table: dict = {}
    one, two = _StepIds(r1, table), _StepIds(r2, table, in_end=True)
    x, z = one.ids, two.ids
    pi = array("i", [0])  # pi[i]: longest proper border of x[:i+1]
    m = 0
    while m < limit:
        m = min(4 * m or _FIRST_WINDOW, limit)
        one.fill(m)
        two.fill(m)
        for i in range(len(pi), m):
            c = x[i]
            k = pi[i - 1]
            while k and x[k] != c:
                k = pi[k - 1]
            if x[k] == c:
                k += 1
            pi.append(k)
        n = 0
        for c in z[m - 1 :: -1]:
            while n and x[n] != c:
                n = pi[n - 1]
            if x[n] == c:
                n += 1
        while n and pi[n - 1]:
            n = pi[n - 1]
        if n:
            return TunnelCertificate(n)
    return None
