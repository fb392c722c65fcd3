"""Route construction for graph rendezvous, and the tunnel oracle.

The agent builds its route in phases, one hypothesis quadruple per
phase.  Every phase starts and ends at the agent's start node.  When the
current quadruple names the agent's own label and the hypothesized port
sequence checks out (the walk succeeds and the observed entry ports
match the reverse sequence), the agent extends its route with a
simulation of the other agent's first ``k-1`` phases and a back-and-
forth that forces the two routes to form a tunnel for that hypothesis.
That simulation is a prefix of the partner's own route.

Phase ``k``'s hypothesis is ``phi(k)``, a function of ``k`` alone, so
every builder in the process reads one phase table,
``enumeration.PHASES``, decoded once as runs reach each phase.  An
agent's route depends only on its start, its label and the world, so
``RouteBuilder`` builds every route of one world from shared parts: one
walk per ``(start, ports)`` hypothesis and one phase history per
``(start, label)``, in which a simulation is a lookup.  Both agents of a
run are built by one builder; ``graph_rv`` is the one-shot form.

Two routes form a tunnel when a prefix of one, read backward with every
traversal reversed, is a prefix of the other; a tunnel certificate is a
sufficient condition for rendezvous under any adversary schedules.

``tunnel_check`` decides that relation exactly as a border problem over
interned directed steps: the smallest ``n`` for which route one's first
``n`` steps equal route two's first ``n`` steps reversed, read in windows
of 64, 256, 1024, ... steps.  Each window is decoded into two ``str``s,
one code point per step id, and searched with ``str.find`` in C; a
window whose search needs more than a few exact candidate checks
(periodic input), or whose ids do not decode, is finished by
Knuth-Morris-Pratt, so the scan stays linear.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .enumeration import PHASES
from .graph_model import NodeHandle, PortLabeledGraph
from .routes import Route, StepBudgetExceeded, _StepIds, _cat, _leaf

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

    Phase ``k``'s quadruple comes from ``PHASES``, the process's phase
    table, which draws phase ``k`` only when a run reaches it.  A
    hypothesis walk from a start node and the rope of a ``(start, label)``
    run after ``k`` phases each depend only on the world, so each is
    computed once per builder: ``walks`` maps ``(v, seq)``, ``seq`` the id
    of an interned port sequence in ``PHASES.seqs``, to the walk's two
    ``_cat`` kids ``(leaf, False)`` and ``(leaf, True)``, its end node and
    its entry ports read backward (None when a port is missing on the
    way), and ``runs[v, label][k]`` is the rope after ``k`` phases, the
    same rope as after ``k - 1`` when phase ``k`` does not name the label.
    A phase that grows the rope adds exactly one rope node, a single
    ``_cat``.  A run appends a phase only within the budget, so after a
    ``StepBudgetExceeded`` the builder can be asked again.
    """

    def __init__(self, g: PortLabeledGraph, limits: Limits):
        self.g = g
        self.limits = limits
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
        table, walks, budget = PHASES, self.walks, self.limits.step_budget
        i, j, seqs = table.i, table.j, table.seqs
        for k in range(len(ropes), phases + 1):
            if k >= len(i):
                table.draw(k)
            root = ropes[-1]
            if label == i[k]:
                s1, s2, other = table.s_prime[k], table.s_dprime[k], j[k]
            elif label == j[k]:
                s1, s2, other = table.s_dprime[k], table.s_prime[k], i[k]
            else:
                ropes.append(root)
                continue
            walk, back, end, entries = walks.get((v, s1)) or self._walk(v, s1)
            if seqs[s2] == entries:
                sim = self._ropes(end, other, k - 1)[k - 1]
                root = _cat(
                    (root, False), walk, (sim, False), back, (root, True), walk, (sim, True), back
                )
            elif walk[0].length:  # a walk that fails at once adds nothing
                root = _cat((root, False), walk, back)
            if root.length > budget:
                raise StepBudgetExceeded(
                    f"route for label {label} exceeds {budget} steps at phase {k}",
                    root.length,
                    k,
                    label,
                )
            ropes.append(root)
        return ropes

    def _walk(self, v: NodeHandle, seq: int) -> tuple:
        """The walk of port sequence ``PHASES.seqs[seq]`` from ``v``, kept in
        ``walks``."""
        g = self.g
        ports = PHASES.seqs[seq]
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
        walk = self.walks[v, seq] = ((leaf, False), (leaf, True), cur, entries)
        return walk


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
#: exact candidate checks a window's string search may make before the
#: window is handed to Knuth-Morris-Pratt
_CHECKS = 8
#: ids are native-endian ints of an ``array("i")``
_UTF32 = f"utf-32-{sys.byteorder[0]}e"


def tunnel_check(r1: Route, r2: Route) -> TunnelCertificate | None:
    """Smallest-``n`` tunnel certificate for two routes, if any.

    Let ``x`` hold the ids of route one's directed steps ``(u, out_port)``
    and ``z`` those of route two's steps reversed, ``(v, in_port)``.  A
    tunnel of length ``n`` is ``x[:n] == z[n-1::-1]``.  The scan reads
    windows of 64, 256, 1024, ... steps, the last one ``min(r1.length,
    r2.length)``, and stops at the first window that holds a tunnel, so
    short tunnels stay cheap; ``_StepIds`` reads ``x`` and ``z`` off the
    rope as far as the window, one Python step per DAG node and leaf step.
    Each window is decided exactly, with no hashing, by ``_search`` (a
    string search in C) or, when that gives up, by ``_kmp``; see
    ``_smallest_tunnel``.
    """
    table: dict = {}
    one, two = _StepIds(r1, table), _StepIds(r2, table, in_end=True)

    def fill(m: int) -> None:
        one.fill(m)
        two.fill(m)

    n = _smallest_tunnel(one.ids, two.ids, min(r1.length, r2.length), fill)
    return TunnelCertificate(n) if n else None


def _smallest_tunnel(x: array, z: array, limit: int, fill) -> int:
    """The smallest ``n <= limit`` with ``x[:n] == z[n-1::-1]``, or 0.

    A window of ``m`` steps decides every ``n`` up to ``m``; ``fill(m)``
    first extends ``x`` and ``z`` to ``m`` ids.  A window costs a bounded
    number of linear string passes, at most ``_CHECKS`` exact checks among
    them, plus one Knuth-Morris-Pratt pass over its ``m`` steps when the
    string search gives up; the windows grow fourfold, so the whole scan
    is linear in the steps read.  The prefix function ``pi`` of ``x``
    grows across the windows that fall back to KMP.
    """
    pi = array("i", [0])  # pi[i]: longest proper border of x[:i+1]
    lo = 0  # every n <= lo is ruled out
    while lo < limit:
        m = min(4 * lo or _FIRST_WINDOW, limit)
        fill(m)
        n = _search(x, z, lo, m)
        if n is None:
            n = _kmp(x, z, pi, m)
        if n:
            return n
        lo = m
    return 0


def _search(x: array, z: array, lo: int, m: int) -> int | None:
    """The window's smallest tunnel ``n`` in ``(lo, m]``, 0 if it has none,
    or None when ``_CHECKS`` exact checks did not settle it or an id is
    0x110000 or more (each id decodes as its code point, surrogates too).

    With ``R = x[m-1::-1]`` and ``Z = z[:m]`` as ``str``, a tunnel ``n`` is
    ``Z[:n] == R[m-n:]``, route one's first ``n`` steps reversed.  No
    tunnel is ``lo`` steps or shorter, so each one puts ``R[m-lo-1:]``,
    route one's first ``lo + 1`` steps reversed, in ``Z`` at ``n - lo - 1``:
    ``Z.find``, which is linear, lists the candidates shortest first, and
    the first exact hit is the smallest tunnel.
    """
    try:
        with memoryview(x) as xs, memoryview(z) as zs:
            R = str(xs[:m], _UTF32, "surrogatepass")[::-1]
            Z = str(zs[:m], _UTF32, "surrogatepass")
    except UnicodeDecodeError:
        return None
    head = R[m - lo - 1 :]
    checks = 0
    p = Z.find(head)
    while p >= 0:
        if checks == _CHECKS:
            return None
        checks += 1
        n = p + lo + 1
        if _occurs(R, Z[:n], m - n):
            return n
        p = Z.find(head, p + 1)
    return 0


def _occurs(text: str, part: str, at: int) -> bool:
    """Whether ``part`` occurs in ``text`` at ``at``: the string search's
    one exact check, a comparison in C."""
    return text.startswith(part, at)


def _kmp(x: array, z: array, pi: array, m: int) -> int:
    """The window's smallest tunnel by Knuth-Morris-Pratt, 0 if none.

    Matching ``w = z[m-1::-1]`` against ``x`` ends on the longest ``n``
    with ``x[:n] == w[m-n:]``, and the prefix function chain below it
    holds every other, the last nonzero one being the smallest.  ``pi``
    is first extended to ``m``."""
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
    return n
