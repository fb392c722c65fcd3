"""Adversarial walk schedules and exact meeting detection.

The adversary controls *when* an agent is where on its route: any
piecewise-linear, continuous time parameterization that covers every
route segment is a valid walk.  Five named strategies give reproducible
adversarial coverage, including the alternating schedule used by the
negative construction (at most one agent moves at any time).

Meetings are decided exactly: the two schedules' breakpoints and the
route step boundaries cut time into cells inside which both positions
are affine, so the earliest coincidence is the root of a linear system
in exact rational arithmetic.  Graph meetings count a shared node or a
shared point inside an undirected edge; planar verdicts additionally
carry the exact minimum of the squared distance over the horizon.

Oracles that the verdict path does not call, kept so that tests can
check the sweep independently: ``WalkSchedule.position_at``,
``breakpoints`` and ``end_time`` (the schedule read directly, which the
fine-grid numpy sampler uses), ``graph_point_at`` and ``planar_point_at``
(positions by arc length), and ``validate_schedule`` (the streaming
checker run to the end, plus coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator

_ZERO = Fraction(0)


class ScheduleMismatch(Exception):
    """A schedule violates its route (time order, continuity, coverage)."""


STRATEGIES = (
    "unit_speed",
    "alternating-first",
    "alternating-second",
    "random_speeds",
    "jitter",
    "frozen_prefix",
)

#: (cell name, strategy for agent 1, strategy for agent 2)
DEFAULT_SUITE = (
    ("unit_speed", "unit_speed", "unit_speed"),
    ("alternating", "alternating-first", "alternating-second"),
    ("random_speeds", "random_speeds", "random_speeds"),
    ("jitter", "jitter", "jitter"),
    ("frozen_prefix", "frozen_prefix", "unit_speed"),
)


def suite_from_names(names) -> tuple:
    """Rows of the default suite selected by name, in suite order."""
    wanted = set(names)
    unknown = wanted - {row[0] for row in DEFAULT_SUITE}
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")
    return tuple(row for row in DEFAULT_SUITE if row[0] in wanted)


@dataclass
class WalkSchedule:
    """Piecewise-linear walk on a route.

    A route is anything with a step count ``length`` and a ``steps()``
    iterator whose steps carry their arc ``length``: a graph ``Route``,
    or a planar route viewed over one.  ``pieces()`` yields
    ``(t0, t1, step_index, a0, a1)``: during ``[t0, t1]`` the arc position
    moves affinely from ``a0`` to ``a1``, staying within step
    ``step_index``.  Pieces are generated lazily so that long routes cost
    nothing until simulated.
    """

    route: object
    strategy: str
    seed: int

    def pieces(self) -> Iterator[tuple]:
        rng = Random(f"{self.strategy}:{self.seed}")
        t = _ZERO
        arc = _ZERO
        strat = self.strategy
        if strat == "frozen_prefix":
            hold = Fraction(rng.randint(1, 8))
            yield (t, hold, 0, arc, arc)
            t = hold
        for m, step in enumerate(self.route.steps()):
            length = step.length
            if strat in ("unit_speed", "frozen_prefix"):
                yield (t, t + length, m, arc, arc + length)
                t += length
            elif strat == "alternating-first":
                yield (t, t + 1, m, arc, arc + length)
                yield (t + 1, t + 2, m, arc + length, arc + length)
                t += 2
            elif strat == "alternating-second":
                yield (t, t + 1, m, arc, arc)
                yield (t + 1, t + 2, m, arc, arc + length)
                t += 2
            elif strat == "random_speeds":
                d = Fraction(rng.randint(1, 8), rng.randint(1, 8))
                yield (t, t + d, m, arc, arc + length)
                t += d
            elif strat == "jitter":
                d1 = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                d2 = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                d3 = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                fwd = arc + Fraction(3, 4) * length
                back = arc + Fraction(1, 4) * length
                yield (t, t + d1, m, arc, fwd)
                yield (t + d1, t + d1 + d2, m, fwd, back)
                yield (t + d1 + d2, t + d1 + d2 + d3, m, back, arc + length)
                t += d1 + d2 + d3
            else:
                raise ValueError(f"unknown strategy {self.strategy!r}")
            arc += length

    def breakpoints(self) -> list[tuple[Fraction, Fraction]]:
        """Explicit (time, arc position) breakpoints (materializes)."""
        out: list[tuple[Fraction, Fraction]] = []
        for t0, t1, _, a0, a1 in self.pieces():
            if not out:
                out.append((t0, a0))
            out.append((t1, a1))
        return out

    def end_time(self) -> Fraction:
        t = _ZERO
        for _, t1, _, _, _ in self.pieces():
            t = t1
        return t

    def position_at(self, t: Fraction) -> Fraction:
        """Arc position at time t (exact)."""
        last = _ZERO
        for t0, t1, _, a0, a1 in self.pieces():
            if t < t0:
                break
            if t <= t1:
                if t1 == t0:
                    return a1
                return a0 + (a1 - a0) * (t - t0) / (t1 - t0)
            last = a1
        return last


def make_schedule(strategy: str, route, seed: int = 0) -> WalkSchedule:
    """Deterministic schedule of the named strategy over the route."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return WalkSchedule(route, strategy, seed)


def _checked_pieces(route, schedule: WalkSchedule):
    """Stream ``(t0, t1, m, a0, a1, step, lo)``: each schedule piece with
    its route step and that step's start arc ``lo``.

    The walk invariants are enforced as the pieces stream, so that a
    violation surfaces before it can corrupt a verdict: the walk starts
    at time 0 and position 0, is continuous, time never decreases, the
    step index never decreases, and the position stays inside the step's
    arc interval.  A route without steps has one position, its start: a
    piece on it names step 0, has the arc interval [0, 0] and step None.
    """
    n_steps = route.length
    steps = route.steps()
    step = None
    cur = -1  # index of `step`
    lo = hi = _ZERO
    prev_t = prev_a = None
    for t0, t1, m, a0, a1 in schedule.pieces():
        if prev_t is None:
            if t0 != 0 or a0 != 0:
                raise ScheduleMismatch("walk must start at time 0, position 0")
        elif t0 != prev_t or a0 != prev_a:
            raise ScheduleMismatch("discontinuous schedule pieces")
        if t1 < t0 or (t1 == t0 and a1 != a0):
            raise ScheduleMismatch("time must not decrease")
        if not 0 <= m < max(n_steps, 1):
            raise ScheduleMismatch(f"piece names step {m} outside the route")
        if m < cur:
            raise ScheduleMismatch(f"step index decreases to {m}")
        while cur < m:
            step = next(steps, None)
            lo = hi
            hi = lo if step is None else lo + step.length
            cur += 1
        if min(a0, a1) < lo or max(a0, a1) > hi:
            raise ScheduleMismatch(f"position leaves step {m} arc interval")
        prev_t, prev_a = t1, a1
        yield t0, t1, m, a0, a1, step, lo


def validate_schedule(route, schedule: WalkSchedule) -> None:
    """Check the walk invariants of ``_checked_pieces`` over the whole
    schedule, and that the walk covers every step of the route.

    Raises ScheduleMismatch on the first violation.
    """
    covered = -1
    a1 = hi = None
    for _, _, m, _, a1, step, lo in _checked_pieces(route, schedule):
        hi = lo if step is None else lo + step.length
        if step is not None and a1 == hi:
            covered = m
    if a1 is None:
        if route.length:
            raise ScheduleMismatch("empty schedule for a non-empty route")
        return
    if covered != route.length - 1 or a1 != hi:
        raise ScheduleMismatch("walk does not cover the whole route")


# ---------------------------------------------------------------------------
# Meeting detection
# ---------------------------------------------------------------------------

@dataclass
class MeetingVerdict:
    """Outcome of a simulated schedule pair.

    ``location`` is ``("node", handle)`` / ``("edge", edge_id, offset)``
    for graphs, or an exact point for planar runs.  ``min_distance_sq``
    is the exact squared minimum gap over the horizon (planar only).
    """

    met: bool
    time: Fraction | None = None
    location: object = None
    min_distance_sq: Fraction | None = None


class _GraphPiece:
    """A schedule piece located on one edge, offsets canonicalized."""

    __slots__ = ("t0", "t1", "o0", "o1", "length", "edge", "node_lo", "node_hi")

    def __init__(self, t0, t1, o0, o1, length, edge, node_lo, node_hi):
        self.t0 = t0
        self.t1 = t1
        self.o0 = o0
        self.o1 = o1
        self.length = length
        self.edge = edge
        self.node_lo = node_lo  # node at canonical offset 0
        self.node_hi = node_hi  # node at canonical offset `length`

    def affine(self, lo, hi):
        """(slope, value at lo) of the offset over [lo, hi] within the piece."""
        if self.t1 == self.t0:
            return _ZERO, self.o1
        slope = (self.o1 - self.o0) / (self.t1 - self.t0)
        return slope, self.o0 + slope * (lo - self.t0)

    def point(self, t):
        if self.t1 == self.t0:
            off = self.o1
        else:
            off = self.o0 + (self.o1 - self.o0) * (t - self.t0) / (self.t1 - self.t0)
        if off == 0:
            return ("node", self.node_lo)
        if off == self.length:
            return ("node", self.node_hi)
        return ("edge", self.edge, off)

    def node_offset(self, node):
        """Canonical offset of a node handle on this piece's edge, or None."""
        if node == self.node_lo:
            return _ZERO
        if node == self.node_hi:
            return self.length
        return None


def _graph_pieces(route, schedule: WalkSchedule, canon: dict):
    for t0, t1, m, a0, a1, tr, lo in _checked_pieces(route, schedule):
        if tr is None:  # parked at the start of an empty route
            yield _GraphPiece(t0, t1, _ZERO, _ZERO, _ZERO, None, route.start, route.start)
            continue
        length = tr.length
        fwd = canon.setdefault(tr.edge_id, (tr.u, tr.out_port))
        if (tr.u, tr.out_port) == fwd:
            o0, o1 = a0 - lo, a1 - lo
            node_lo, node_hi = tr.u, tr.v
        else:
            o0, o1 = length - (a0 - lo), length - (a1 - lo)
            node_lo, node_hi = tr.v, tr.u
        yield _GraphPiece(t0, t1, o0, o1, length, tr.edge_id, node_lo, node_hi)


def _graph_cell(p1: _GraphPiece, p2: _GraphPiece, t0, t1):
    """Earliest meeting inside one refined cell, or None."""
    loc1 = p1.point(t0)
    loc2 = p2.point(t0)
    if loc1 == loc2:
        return t0, loc1
    s1, o1 = p1.affine(t0, t1)
    s2, o2 = p2.affine(t0, t1)
    if p1.edge == p2.edge:
        ds = s1 - s2
        if ds == 0:
            return None  # constant nonzero gap on the shared edge
        t = t0 + (o2 - o1) / ds
        if t0 <= t <= t1:
            return t, p1.point(t)
        return None
    # Different edges: a mid-cell meeting needs one agent parked exactly
    # on a node of the other's edge (a moving affine offset touches a
    # node value only at cell boundaries, which the t0 check covers).
    for parked, ps, moving, ms, mo in ((p1, s1, p2, s2, o2), (p2, s2, p1, s1, o1)):
        if ps != 0 or ms == 0:
            continue
        loc = parked.point(t0)
        if loc[0] != "node":
            continue
        target = moving.node_offset(loc[1])
        if target is None:
            continue
        t = t0 + (target - mo) / ms
        if t0 <= t <= t1:
            return t, loc
    # both moving onto a shared node exactly at the cell end (relevant at
    # the horizon's final instant; interior cell ends re-check as next t0)
    loc1 = p1.point(t1)
    if loc1 == p2.point(t1):
        return t1, loc1
    return None


def _sweep(pieces1, pieces2, cell_fn):
    """Merge two contiguous piece streams; run cell_fn over refined cells.

    Returns the first non-None cell result; the horizon is the earlier
    stream end.
    """
    p1 = next(pieces1, None)
    p2 = next(pieces2, None)
    while p1 is not None and p2 is not None:
        t0 = max(p1.t0, p2.t0)
        t1 = min(p1.t1, p2.t1)
        if t0 <= t1:
            hit = cell_fn(p1, p2, t0, t1)
            if hit is not None:
                return hit
        if p1.t1 <= p2.t1:
            p1 = next(pieces1, None)
        else:
            p2 = next(pieces2, None)
    return None


def detect_meeting_graph(g, r1, r2, w1: WalkSchedule, w2: WalkSchedule) -> MeetingVerdict:
    """Earliest exact meeting of two scheduled walks on a graph.

    Agents meet when they occupy the same node or the same point inside
    the same undirected edge.  The scan stops at the common horizon (the
    earlier schedule end); the graph case reports met/not met only.
    """
    if getattr(w1, "route", r1) is not r1 or getattr(w2, "route", r2) is not r2:
        raise ScheduleMismatch("schedule was built for a different route")
    canon: dict = {}
    hit = _sweep(
        _graph_pieces(r1, w1, canon), _graph_pieces(r2, w2, canon), _graph_cell
    )
    if hit is None:
        return MeetingVerdict(False)
    return MeetingVerdict(True, hit[0], hit[1])


# ---------------------------------------------------------------------------
# Planar detection
# ---------------------------------------------------------------------------

class _PlanarPiece:
    __slots__ = ("t0", "t1", "x0", "y0", "vx", "vy")

    def __init__(self, t0, t1, x0, y0, vx, vy):
        self.t0 = t0
        self.t1 = t1
        self.x0 = x0  # position at t0
        self.y0 = y0
        self.vx = vx  # velocity (per unit time)
        self.vy = vy

    def point(self, t):
        dt = t - self.t0
        return (self.x0 + self.vx * dt, self.y0 + self.vy * dt)


def _planar_pieces(route, schedule: WalkSchedule):
    for t0, t1, m, a0, a1, step, lo in _checked_pieces(route, schedule):
        if step is None:  # parked at the start of an empty route
            yield _PlanarPiece(t0, t1, *route.start, _ZERO, _ZERO)
            continue
        (sx, sy), (ex, ey), _ = route.embed(step)
        tau0 = (a0 - lo) / step.length
        tau1 = (a1 - lo) / step.length
        x0 = sx + tau0 * (ex - sx)
        y0 = sy + tau0 * (ey - sy)
        if t1 == t0:
            vx = vy = _ZERO
        else:
            rate = (tau1 - tau0) / (t1 - t0)
            vx = rate * (ex - sx)
            vy = rate * (ey - sy)
        yield _PlanarPiece(t0, t1, x0, y0, vx, vy)


def detect_meeting_planar(r1, r2, w1: WalkSchedule, w2: WalkSchedule) -> MeetingVerdict:
    """Earliest exact coincidence of two planar walks, plus the exact
    minimum squared distance over the common horizon when they never
    coincide."""
    best_sq: list = [None]

    def cell(p1: _PlanarPiece, p2: _PlanarPiece, t0, t1):
        # relative motion at cell start
        x1, y1 = p1.point(t0)
        x2, y2 = p2.point(t0)
        bx, by = x1 - x2, y1 - y2
        ax, ay = p1.vx - p2.vx, p1.vy - p2.vy
        # meeting: bx + ax*dt = 0 and by + ay*dt = 0 for dt in [0, t1-t0]
        span = t1 - t0
        if ax == 0 and ay == 0:
            if bx == 0 and by == 0:
                return t0, (x1, y1)
            _track_min(best_sq, bx * bx + by * by)
            return None
        if ax != 0:
            dt = -bx / ax
            consistent = by + ay * dt == 0
        else:
            dt = -by / ay
            consistent = bx + ax * dt == 0
        if consistent and 0 <= dt <= span:
            t = t0 + dt
            return t, p1.point(t)
        # squared gap is quadratic in dt; minimum at the vertex or ends
        a2 = ax * ax + ay * ay
        for dt_c in (_ZERO, span, -(ax * bx + ay * by) / a2):
            if 0 <= dt_c <= span:
                gx = bx + ax * dt_c
                gy = by + ay * dt_c
                _track_min(best_sq, gx * gx + gy * gy)
        return None

    hit = _sweep(_planar_pieces(r1, w1), _planar_pieces(r2, w2), cell)
    if hit is not None:
        return MeetingVerdict(True, hit[0], hit[1], min_distance_sq=_ZERO)
    return MeetingVerdict(False, min_distance_sq=best_sq[0])


def _track_min(holder, value):
    if holder[0] is None or value < holder[0]:
        holder[0] = value


# ---------------------------------------------------------------------------
# Positions for independent cross-checks
# ---------------------------------------------------------------------------

def graph_point_at(route, arc: Fraction):
    """Canonical geometric point at a given arc position on a graph route.

    Self-contained representation (no shared orientation table): a node
    handle, or the edge id with the offset from both endpoints.
    """
    cum = _ZERO
    last = None
    for step in route.steps():
        nxt = cum + step.length
        if arc <= nxt:
            off = arc - cum
            if off == 0:
                return ("node", step.u)
            if off == step.length:
                return ("node", step.v)
            return ("edge", step.edge_id, frozenset({(step.u, off), (step.v, step.length - off)}))
        cum = nxt
        last = step
    if last is None:
        return ("node", route.start)
    return ("node", last.v)


def planar_point_at(route, arc: Fraction):
    """Exact planar point at a given arc position (terrain steps have
    length 1, so step m spans the arc interval [m, m + 1])."""
    m = int(arc)
    if m >= route.length:
        return route.end
    seg = route.embed(route.step_at(m))
    tau = arc - m
    return (
        seg.start[0] + tau * (seg.end[0] - seg.start[0]),
        seg.start[1] + tau * (seg.end[1] - seg.start[1]),
    )


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

def verify_rendezvous(world, r1, r2, suite=DEFAULT_SUITE, seeds=(0,)) -> dict:
    """Run every (strategy pair, seed) cell and aggregate the verdicts.

    ``world`` is a graph for graph routes and a terrain (or None) for
    planar routes.  Results are independent of evaluation order; the
    report is reproducible from the seeds.
    """
    planar = hasattr(r1, "embed")
    cells = []
    all_met = True
    for name, strat1, strat2 in suite:
        for seed in seeds:
            w1 = make_schedule(strat1, r1, seed)
            w2 = make_schedule(strat2, r2, seed + 10007)
            if planar:
                verdict = detect_meeting_planar(r1, r2, w1, w2)
            else:
                verdict = detect_meeting_graph(world, r1, r2, w1, w2)
            cells.append(
                {
                    "strategy": name,
                    "seed": seed,
                    "verdict": verdict,
                }
            )
            all_met = all_met and verdict.met
    return {
        "cells": cells,
        "all_met": all_met,
        "vacuous": not cells,
    }
