"""Route construction for graph rendezvous, and the tunnel oracle.

The agent builds its route in phases, one hypothesis quadruple per
phase.  Every phase starts and ends at the agent's start node.  When the
current quadruple names the agent's own label and the hypothesized port
sequence checks out (the walk succeeds and the observed entry ports
match the reverse sequence), the agent extends its route with a
simulation of the other agent's first ``k-1`` phases and a back-and-
forth that forces the two routes to form a tunnel for that hypothesis.
That simulation is a prefix of the partner's own route, so the builder
keeps one phase history per ``(start, label)`` and looks it up there.

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


class _Builder:
    """Per ``(start, label)``, a ``phase_stream`` iterator and ``ropes[k]``,
    the rope after ``k`` phases.  Phase counts strictly decrease along the
    recursion, so a run being extended is asked only for phases it holds."""

    def __init__(self, g: PortLabeledGraph, limits: Limits):
        self.g = g
        self.limits = limits
        self.runs: dict = {}

    def ropes(self, v: NodeHandle, label: int, phases: int) -> list:
        """The run's ropes, extended until it holds ``phases`` phases."""
        run = self.runs.get((v, label))
        if run is None:
            run = self.runs[v, label] = (phase_stream(), [_leaf(())])
        stream, ropes = run
        while len(ropes) <= phases:
            k, quad = next(stream)
            ropes.append(self._phase(v, label, k, quad, ropes[-1]))
        return ropes

    def _phase(self, v: NodeHandle, label: int, k: int, quad, root):
        g = self.g
        if label == quad.i:
            s1, s2, other = quad.s_prime, quad.s_dprime, quad.j
        elif label == quad.j:
            s1, s2, other = quad.s_dprime, quad.s_prime, quad.i
        else:
            return root
        walked = []
        entries = []
        cur = v
        for port in s1:
            if not g.is_port(cur, port):
                break
            step = g.traverse(cur, port)
            walked.append(step)
            entries.append(step.in_port)
            cur = step.v
        walk = _leaf(tuple(walked))
        hist = root
        root = _cat(root, walk)
        if len(walked) == len(s1) and s2 == tuple(reversed(entries)):
            sim = self.ropes(cur, other, k - 1)[k - 1]
            root = _cat(root, sim, _rev(walk), _rev(hist), walk, _rev(sim))
        root = _cat(root, _rev(walk))
        length = root.length
        if length > self.limits.step_budget:
            raise StepBudgetExceeded(
                f"route for label {label} exceeds {self.limits.step_budget} "
                f"steps at phase {k}",
                length,
                k,
            )
        return root


def graph_rv(
    g: PortLabeledGraph, v: NodeHandle, label: int, limits: Limits
) -> Route:
    """Route of the recursion's first ``limits.phase_cap`` phases, standing
    in for the algorithm's open-ended run, with ``(k, length before phase
    k)`` marks.  A smaller cap gives the route the agent simulates for its
    partner, a prefix of the longer one.

    >>> from tunnelmeet.graph_model import build_finite_graph
    >>> k2 = build_finite_graph({"nodes": ["A", "B"],
    ...     "edges": [{"u": "A", "pu": 1, "v": "B", "pv": 1, "len": 1}]})
    >>> r = graph_rv(k2, "A", 1, Limits(3))
    >>> r.length, r.phase_marks
    (6, [(1, 0), (2, 4), (3, 6)])
    """
    if label < 1:
        raise ValueError("labels are positive integers")
    cap = max(limits.phase_cap, 0)
    ropes = _Builder(g, limits).ropes(v, label, cap)
    marks = [(k, ropes[k - 1].length) for k in range(1, cap + 1)]
    return Route(v, ropes[cap], marks)


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
