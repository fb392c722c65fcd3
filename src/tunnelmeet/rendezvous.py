"""Route construction for graph rendezvous, and the tunnel oracle.

The agent builds its route in phases, one hypothesis quadruple per
phase.  Every phase starts and ends at the agent's start node.  When the
current quadruple names the agent's own label and the hypothesized port
sequence checks out (the walk succeeds and the observed entry ports
match the reverse sequence), the agent extends its route with a
simulation of the other agent's first ``k-1`` phases and a back-and-
forth that forces the two routes to form a tunnel for that hypothesis.

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
    """Construction limits: how many phases to run and how long the
    materialized route may get before the builder gives up."""

    phase_cap: int
    step_budget: int = DEFAULT_STEP_BUDGET


@dataclass
class TunnelCertificate:
    """Witness that two routes form a tunnel: the first ``n`` steps of
    route one, reversed step-by-step, are the first ``n`` steps of route
    two."""

    n: int


class _Builder:
    def __init__(self, g: PortLabeledGraph, limits: Limits):
        self.g = g
        self.limits = limits
        self.memo: dict = {}

    def build(self, v: NodeHandle, label: int, cap: int, record_marks: bool):
        """Route rope for the first ``cap`` phases of the recursion."""
        g = self.g
        root = _leaf(())
        marks: list[tuple[int, int]] = []
        if cap <= 0:
            return root, marks
        for k, quad in phase_stream():
            if k > cap:
                break
            if record_marks:
                marks.append((k, root.length))
            if label == quad.i:
                s1, s2, other = quad.s_prime, quad.s_dprime, quad.j
            elif label == quad.j:
                s1, s2, other = quad.s_dprime, quad.s_prime, quad.i
            else:
                continue
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
                sim = self._sim(cur, other, k - 1)
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
        return root, marks

    def _sim(self, w: NodeHandle, label: int, phases: int):
        key = (w, label, phases)
        cached = self.memo.get(key)
        if cached is None:
            cached, _ = self.build(w, label, phases, record_marks=False)
            self.memo[key] = cached
        return cached


def graph_rv(
    g: PortLabeledGraph,
    v: NodeHandle,
    label: int,
    limits: Limits,
    phases: int | None = None,
) -> Route:
    """Route of the recursion's first ``phases`` phases, capped by
    ``limits.phase_cap``.

    With ``phases`` left out the count is ``limits.phase_cap`` (standing in
    for the algorithm's open-ended run).  A smaller count gives the route
    the agent simulates for its partner, which equals the corresponding
    prefix of the full route for the same start and label.
    """
    if label < 1:
        raise ValueError("labels are positive integers")
    cap = limits.phase_cap if phases is None else min(phases, limits.phase_cap)
    builder = _Builder(g, limits)
    root, marks = builder.build(v, label, cap, record_marks=True)
    return Route(v, root, marks)


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
