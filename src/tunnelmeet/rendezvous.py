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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .enumeration import phase_stream
from .graph_model import NodeHandle, PortLabeledGraph
from .routes import (
    Route,
    StepBudgetExceeded,
    _cat,
    _leaf,
    _node_len,
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
    _r1: Route = field(repr=False)

    @property
    def meeting_path(self) -> tuple:
        """The shared prefix (as traversals of route one)."""
        out = []
        for step in self._r1.steps():
            if len(out) == self.n:
                break
            out.append(step)
        return tuple(out)


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
                marks.append((k, _node_len(root)))
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
            if _node_len(root) > self.limits.step_budget:
                raise StepBudgetExceeded(
                    f"route for label {label} exceeds {self.limits.step_budget} "
                    f"steps at phase {k}"
                )
        return root, marks

    def _sim(self, w: NodeHandle, label: int, phases: int):
        key = (w, label, phases)
        cached = self.memo.get(key)
        if cached is None:
            cached, _ = self.build(w, label, phases, record_marks=False)
            self.memo[key] = cached
        return cached


def graph_rv_rec(
    g: PortLabeledGraph,
    v: NodeHandle,
    label: int,
    p: int,
    mode: bool,
    limits: Limits,
) -> Route:
    """Route of the recursion's first phases.

    In main mode the phase count is ``limits.phase_cap`` (standing in for
    the algorithm's open-ended run); in simulation mode it is ``p``.  The
    simulation-mode result equals the corresponding prefix of the main-
    mode route for the same start and label.
    """
    if label < 1:
        raise ValueError("labels are positive integers")
    cap = limits.phase_cap if mode else min(p, limits.phase_cap)
    builder = _Builder(g, limits)
    root, marks = builder.build(v, label, cap, record_marks=True)
    return Route(v, root, marks)


def graph_rv(g: PortLabeledGraph, v: NodeHandle, label: int, limits: Limits) -> Route:
    """Main-mode route construction (phase cap taken from ``limits``)."""
    return graph_rv_rec(g, v, label, 0, True, limits)


_HASH_MOD_A = (1 << 61) - 1
_HASH_MOD_B = (1 << 31) - 1
_HASH_BASE_A = 1_000_003
_HASH_BASE_B = 40_009


def tunnel_check(r1: Route, r2: Route) -> TunnelCertificate | None:
    """Smallest-``n`` tunnel certificate for two routes, if any.

    The scan keeps rolling hashes of route one's prefix and of route
    two's reversed prefix (steps flipped); candidate lengths are verified
    exactly before a certificate is returned.
    """
    limit = min(r1.length, r2.length)
    if limit == 0:
        return None
    ids: dict = {}
    x_ids = array("i")
    z_ids = array("i")
    it1 = r1.steps()
    it2 = r2.steps()
    hx_a = hx_b = 0
    rz_a = rz_b = 0
    pow_a = pow_b = 1
    for n in range(1, limit + 1):
        s1 = next(it1)
        s2 = next(it2)
        # a directed step is determined by (node, out port)
        k1 = (s1.u, s1.out_port)
        k2 = (s2.v, s2.in_port)  # the reversal of step s2
        i1 = ids.setdefault(k1, len(ids))
        i2 = ids.setdefault(k2, len(ids))
        x_ids.append(i1)
        z_ids.append(i2)
        hx_a = (hx_a * _HASH_BASE_A + i1 + 1) % _HASH_MOD_A
        hx_b = (hx_b * _HASH_BASE_B + i1 + 1) % _HASH_MOD_B
        rz_a = (rz_a + (i2 + 1) * pow_a) % _HASH_MOD_A
        rz_b = (rz_b + (i2 + 1) * pow_b) % _HASH_MOD_B
        pow_a = (pow_a * _HASH_BASE_A) % _HASH_MOD_A
        pow_b = (pow_b * _HASH_BASE_B) % _HASH_MOD_B
        if hx_a == rz_a and hx_b == rz_b:
            if x_ids[:n] == z_ids[n - 1 :: -1]:
                return TunnelCertificate(n, r1)
    return None
