"""Adversarial walk schedules and exact meeting detection.

The adversary controls *when* an agent is where on its route: any
piecewise-linear, continuous time parameterization that covers every
route segment is a valid walk.  Five named strategies give reproducible
adversarial coverage, including the alternating schedule used by the
negative construction (at most one agent moves at any time).

Meetings are decided exactly: the two schedules' breakpoints and the
route step boundaries cut time into cells inside which both positions
are affine, so the earliest coincidence is the root of a linear system.
Graph meetings count a shared node or a shared point inside an
undirected edge.  A piece stays inside one step, so an agent is on a
node only at a piece end: agents on different edges can meet only at a
cell's ends, and only agents on one edge need the linear solve.  Planar
verdicts additionally carry the exact minimum of the squared distance
over the horizon.

The sweep runs on an integer lattice.  Let D be the lcm of the
step-length denominators of both routes (1 on a terrain, whose steps
have length 1).  Every schedule time is a multiple of 1/T with
T = 840 * D, and every arc position a multiple of 1/A with A = 4 * D:
``random_speeds`` spends a/b per step with a, b <= 8 (a multiple of
1/840 = 1/lcm(1..8)), ``jitter`` a/b with a, b <= 4 (1/12),
``alternating`` whole units, and ``unit_speed`` and ``frozen_prefix`` a
step's length after an integer hold; arcs are sums of lengths plus 1/4
or 3/4 of one.  A ``WalkSchedule`` is generated on that lattice as ints,
in one walk of its route, and the sweep reads nothing else.  Cells are
decided by integer sign tests and cross-multiplication, and
``Fraction``s are built only for a verdict's time, location and
``min_distance_sq``.

Oracles that the verdict path does not call, kept so that tests can
check the sweep independently: ``position_at``, ``breakpoints`` and
``end_time`` (the schedule read in ``Fraction``s at the route's own
scale, which the fine-grid numpy sampler uses), ``graph_point_at`` and
``planar_point_at`` (positions by arc length), and ``validate_schedule``
(the streaming checker run to the end, plus coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random
from typing import Iterator


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


@dataclass
class WalkSchedule:
    """Piecewise-linear walk on a route.

    A route is anything with a step count ``length``, a ``steps()``
    iterator whose steps carry their arc ``length``, and ``length_den``,
    the lcm of those lengths' denominators: a graph ``Route``, or a
    planar route viewed over one.  A piece ``(t0, t1, step_index, a0,
    a1)`` says that during ``[t0, t1]`` the arc position moves affinely
    from ``a0`` to ``a1``, staying within step ``step_index``.  Pieces are
    generated lazily, on the lattice of the module docstring, by
    ``lattice_pieces``; ``breakpoints()`` is their ``Fraction`` view.
    """

    route: object
    strategy: str
    seed: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def lattice_pieces(self, tscale: int, ascale: int) -> Iterator[tuple]:
        """Pieces as ints ``(t0, t1, m, a0, a1, step, lo, hi)``: times
        scaled by ``tscale = 840 * D`` and arcs by ``ascale = 4 * D`` (D a
        multiple of the route's ``length_den``), each with its step and the
        step's scaled arc interval.  The route's steps are read once.  On
        a route without steps the agent is parked at its start, on step 0
        with step None and the interval [0, 0]: for the ``frozen_prefix``
        hold, and for the instant 0 under every other strategy."""
        strat = self.strategy
        if strat in ("random_speeds", "jitter", "frozen_prefix"):  # the others draw nothing
            rng = Random(f"{strat}:{self.seed}")
        hold = tscale * rng.randint(1, 8) if strat == "frozen_prefix" else 0
        per_arc = tscale // ascale  # time to walk one arc unit at unit speed
        t = hi = 0
        step = None
        for m, step in enumerate(self.route.steps()):
            num, den = step.length.as_integer_ratio()
            lo, hi = hi, hi + num * ascale // den
            if hold:
                yield 0, hold, 0, 0, 0, step, lo, hi
                t, hold = hold, 0
            if strat in ("unit_speed", "frozen_prefix"):
                t1 = t + (hi - lo) * per_arc
                yield t, t1, m, lo, hi, step, lo, hi
            elif strat in ("alternating-first", "alternating-second"):
                # one unit of time on the move, one parked at `turn`
                mid, t1 = t + tscale, t + 2 * tscale
                turn = hi if strat == "alternating-first" else lo
                yield t, mid, m, lo, turn, step, lo, hi
                yield mid, t1, m, turn, hi, step, lo, hi
            elif strat == "random_speeds":
                t1 = t + tscale * rng.randint(1, 8) // rng.randint(1, 8)
                yield t, t1, m, lo, hi, step, lo, hi
            else:  # jitter
                d1, d2, d3 = (tscale * rng.randint(1, 4) // rng.randint(1, 4) for _ in range(3))
                fwd, back = lo + 3 * (hi - lo) // 4, lo + (hi - lo) // 4
                ta, tb, t1 = t + d1, t + d1 + d2, t + d1 + d2 + d3
                yield t, ta, m, lo, fwd, step, lo, hi
                yield ta, tb, m, fwd, back, step, lo, hi
                yield tb, t1, m, back, hi, step, lo, hi
            t = t1
        if step is None:  # a route without steps: parked at its start
            yield 0, hold, 0, 0, 0, None, 0, 0

    def breakpoints(self) -> list[tuple[Fraction, Fraction]]:
        """Explicit (time, arc position) breakpoints (materializes), read
        off ``lattice_pieces`` at the route's own scale."""
        tscale, ascale = _lattice((self.route, self))
        out = []
        for t0, t1, _, a0, a1, _, _, _ in self.lattice_pieces(tscale, ascale):
            if not out:
                out.append((Fraction(t0, tscale), Fraction(a0, ascale)))
            out.append((Fraction(t1, tscale), Fraction(a1, ascale)))
        return out

    def end_time(self) -> Fraction:
        """Time of the last breakpoint: a schedule's time never decreases."""
        return self.breakpoints()[-1][0]

    def position_at(self, t: Fraction) -> Fraction:
        """Arc position at time t (exact), read off ``lattice_pieces`` at
        the route's own scale in ints, with one ``Fraction`` at the end."""
        tscale, ascale = _lattice((self.route, self))
        tn, td = t.numerator * tscale, t.denominator  # t on the lattice: tn / td
        last = 0
        for t0, t1, _, a0, a1, _, _, _ in self.lattice_pieces(tscale, ascale):
            if tn < t0 * td:
                break
            if tn <= t1 * td:
                if t1 == t0:
                    return Fraction(a1, ascale)
                span = (t1 - t0) * td
                return Fraction(a0 * span + (a1 - a0) * (tn - t0 * td), span * ascale)
            last = a1
        return Fraction(last, ascale)


def make_schedule(strategy: str, route, seed: int = 0) -> WalkSchedule:
    """Deterministic schedule of the named strategy over the route."""
    return WalkSchedule(route, strategy, seed)


def _lattice(*walks) -> tuple[int, int]:
    """The time and arc scales ``(840 * D, 4 * D)`` of ``(route,
    schedule)`` pairs, D being the lcm of the routes' step-length
    denominators, once each schedule is checked to be built for its
    route."""
    for route, schedule in walks:
        if schedule.route is not route:
            raise ScheduleMismatch("schedule was built for a different route")
    d = lcm(*(route.length_den for route, _ in walks))
    return 840 * d, 4 * d


def _checked_pieces(route, schedule: WalkSchedule, tscale: int, ascale: int):
    """Stream ``(t0, t1, m, o0, o1, step, length)`` on the lattice: each
    piece of the schedule's ``lattice_pieces``, with its times scaled by
    ``tscale``, its arc positions as offsets into step ``m`` scaled by
    ``ascale``, the route step and that step's scaled arc ``length``, all
    ints.

    The walk invariants are enforced as the pieces stream, so that a
    violation surfaces before it can corrupt a verdict: the walk starts
    at time 0 and position 0, is continuous, time never decreases, the
    step index never decreases, and the position stays inside the step's
    arc interval.
    """
    n_steps = max(route.length, 1)
    prev_t, prev_a, prev_m = None, None, -1
    for t0, t1, m, a0, a1, step, lo, hi in schedule.lattice_pieces(tscale, ascale):
        if prev_t is None:
            if t0 != 0 or a0 != 0:
                raise ScheduleMismatch("walk must start at time 0, position 0")
        elif t0 != prev_t or a0 != prev_a:
            raise ScheduleMismatch("discontinuous schedule pieces")
        if t1 < t0 or (t1 == t0 and a1 != a0):
            raise ScheduleMismatch("time must not decrease")
        if not 0 <= m < n_steps:
            raise ScheduleMismatch(f"piece names step {m} outside the route")
        if m < prev_m:
            raise ScheduleMismatch(f"step index decreases to {m}")
        if not (lo <= a0 <= hi and lo <= a1 <= hi):
            raise ScheduleMismatch(f"position leaves step {m} arc interval")
        prev_t, prev_a, prev_m = t1, a1, m
        yield t0, t1, m, a0 - lo, a1 - lo, step, hi - lo


def validate_schedule(route, schedule: WalkSchedule) -> None:
    """Check that the schedule was built for the route, the walk
    invariants of ``_checked_pieces`` over the whole schedule, and that
    the walk covers every step of the route.

    Raises ScheduleMismatch on the first violation.
    """
    scales = _lattice((route, schedule))
    covered = -1
    o1 = length = None
    for _, _, m, _, o1, step, length in _checked_pieces(route, schedule, *scales):
        if step is not None and o1 == length:
            covered = m
    if o1 is None:
        if route.length:
            raise ScheduleMismatch("empty schedule for a non-empty route")
        return
    if covered != route.length - 1 or o1 != length:
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
    """A schedule piece located on one edge, offsets canonicalized.

    On the lattice the offset at time t is ``(slope * t + base) / dur``
    over ``[t0, t1]``; ``length`` is the edge's scaled length.
    """

    __slots__ = ("t0", "t1", "slope", "base", "dur", "length", "edge", "node_lo", "node_hi")

    def __init__(self, t0, t1, o0, o1, length, edge, node_lo, node_hi):
        self.t0 = t0
        self.t1 = t1
        self.dur = dur = t1 - t0 or 1  # a zero-duration piece does not move
        self.slope = o1 - o0
        self.base = o0 * dur - self.slope * t0
        self.length = length
        self.edge = edge
        self.node_lo = node_lo  # node at canonical offset 0
        self.node_hi = node_hi  # node at canonical offset `length`

    def node_at(self, n, d):
        """The node at offset ``n / d``, or None inside the edge."""
        if n == 0:
            return self.node_lo
        if n == self.length * d:
            return self.node_hi
        return None


def _graph_pieces(route, schedule: WalkSchedule, canon: dict, tscale: int, ascale: int):
    for t0, t1, _, o0, o1, tr, length in _checked_pieces(route, schedule, tscale, ascale):
        if tr is None:  # parked at the start of an empty route
            yield _GraphPiece(t0, t1, 0, 0, 0, None, route.start, route.start)
            continue
        fwd = canon.setdefault(tr.edge_id, (tr.u, tr.out_port))
        if (tr.u, tr.out_port) == fwd:
            yield _GraphPiece(t0, t1, o0, o1, length, tr.edge_id, tr.u, tr.v)
        else:
            yield _GraphPiece(t0, t1, length - o0, length - o1, length, tr.edge_id, tr.v, tr.u)


def _same_point(p1, n1, d1, p2, n2, d2) -> bool:
    """Whether offset ``n1 / d1`` on p1's edge and ``n2 / d2`` on p2's
    are one point of the graph."""
    v1 = p1.node_at(n1, d1)
    v2 = p2.node_at(n2, d2)
    if v1 is not None or v2 is not None:
        return v1 == v2
    return p1.edge == p2.edge and n1 * d2 == n2 * d1


def _graph_cell(p1: _GraphPiece, p2: _GraphPiece, c0, c1):
    """Earliest meeting inside one refined cell, or None.

    A meeting is ``(tn, td, p, n, d)``: at lattice time ``tn / td``, the
    point at offset ``n / d`` on piece p's edge.
    """
    n1, d1 = p1.slope * c0 + p1.base, p1.dur
    n2, d2 = p2.slope * c0 + p2.base, p2.dur
    if _same_point(p1, n1, d1, p2, n2, d2):
        return c0, 1, p1, n1, d1
    if p1.edge == p2.edge:
        # the offsets' difference is (k * t + e) / (d1 * d2)
        k = p1.slope * d2 - p2.slope * d1
        if k == 0:
            return None  # constant nonzero gap on the shared edge
        e = p1.base * d2 - p2.base * d1
        if k < 0:
            k, e = -k, -e
        if c0 * k <= -e <= c1 * k:
            return -e, k, p1, p1.base * k - p1.slope * e, k * d1
        return None
    # Different edges meet only at a node.  An affine piece inside its step
    # is on a node throughout (parked) or only at its ends, so such a
    # meeting is at c0 (checked above) or at c1, which the next cell
    # re-checks as its c0 except at the horizon's final instant.
    n1 = p1.slope * c1 + p1.base
    if _same_point(p1, n1, d1, p2, p2.slope * c1 + p2.base, d2):
        return c1, 1, p1, n1, d1
    return None


def _sweep(pieces1, pieces2, cell_fn):
    """Merge two contiguous piece streams; run cell_fn over refined cells.

    Returns the first non-None cell result; the horizon is the earlier
    stream end.  Both streams start at time 0 and are contiguous
    (``_checked_pieces``), so every merged cell is non-empty.
    """
    p1 = next(pieces1, None)
    p2 = next(pieces2, None)
    while p1 is not None and p2 is not None:
        hit = cell_fn(p1, p2, max(p1.t0, p2.t0), min(p1.t1, p2.t1))
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
    earlier schedule end); the graph case reports met/not met only.  The
    graph ``g`` is not read: the routes' steps carry all the sweep needs.
    """
    tscale, ascale = _lattice((r1, w1), (r2, w2))
    canon: dict = {}
    hit = _sweep(
        _graph_pieces(r1, w1, canon, tscale, ascale),
        _graph_pieces(r2, w2, canon, tscale, ascale),
        _graph_cell,
    )
    if hit is None:
        return MeetingVerdict(False)
    tn, td, p, n, d = hit
    node = p.node_at(n, d)
    loc = ("edge", p.edge, Fraction(n, d * ascale)) if node is None else ("node", node)
    return MeetingVerdict(True, Fraction(tn, td * tscale), loc)


# ---------------------------------------------------------------------------
# Planar detection
# ---------------------------------------------------------------------------

class _PlanarPiece:
    """On the lattice the position at time t is
    ``((x0 + vx * (t - t0)) / den, (y0 + vy * (t - t0)) / den)``."""

    __slots__ = ("t0", "t1", "x0", "y0", "vx", "vy", "den")

    def __init__(self, t0, t1, x0, y0, vx, vy, den):
        self.t0 = t0
        self.t1 = t1
        self.x0 = x0  # position at t0
        self.y0 = y0
        self.vx = vx  # velocity per lattice time unit
        self.vy = vy
        self.den = den

    def point(self, tn, td):
        """The exact point at lattice time ``tn / td``."""
        dt = tn - self.t0 * td
        den = self.den * td
        return (
            Fraction(self.x0 * td + self.vx * dt, den),
            Fraction(self.y0 * td + self.vy * dt, den),
        )


def _scaled_segment(start, end):
    """``(sx, sy, dx, dy, q)``: a segment's start and direction as ints
    over the lcm ``q`` of its coordinates' denominators."""
    (a, da), (b, db), (c, dc), (d, dd) = (x.as_integer_ratio() for x in (*start, *end))
    q = lcm(da, db, dc, dd)
    sx, sy = a * (q // da), b * (q // db)
    return sx, sy, c * (q // dc) - sx, d * (q // dd) - sy, q


def _planar_pieces(route, schedule: WalkSchedule, tscale: int, ascale: int):
    step = seg = None
    for t0, t1, _, o0, o1, tr, length in _checked_pieces(route, schedule, tscale, ascale):
        if tr is None:  # parked at the start of an empty route
            seg, length = _scaled_segment(route.start, route.start), 1
        elif tr is not step:
            seg = _scaled_segment(*route.embed(tr)[:2])
        step = tr
        sx, sy, dx, dy, q = seg
        # x(t) = sx + (o(t) / length) * dx, the offset o affine from o0 to o1
        dur = t1 - t0 or 1  # a zero-duration piece does not move
        yield _PlanarPiece(
            t0,
            t1,
            sx * length * dur + o0 * dur * dx,
            sy * length * dur + o0 * dur * dy,
            (o1 - o0) * dx,
            (o1 - o0) * dy,
            q * length * dur,
        )


def detect_meeting_planar(r1, r2, w1: WalkSchedule, w2: WalkSchedule) -> MeetingVerdict:
    """Earliest exact coincidence of two planar walks, plus the exact
    minimum squared distance over the common horizon when they never
    coincide."""
    tscale, ascale = _lattice((r1, w1), (r2, w2))
    best = [None, 1]  # least squared gap seen, as numerator and denominator

    def cell(p1: _PlanarPiece, p2: _PlanarPiece, c0, c1):
        # relative position b and velocity a at the cell start, over q1 * q2
        q1, q2 = p1.den, p2.den
        bx = (p1.x0 + p1.vx * (c0 - p1.t0)) * q2 - (p2.x0 + p2.vx * (c0 - p2.t0)) * q1
        by = (p1.y0 + p1.vy * (c0 - p1.t0)) * q2 - (p2.y0 + p2.vy * (c0 - p2.t0)) * q1
        ax = p1.vx * q2 - p2.vx * q1
        ay = p1.vy * q2 - p2.vy * q1
        span = c1 - c0
        if ax == 0 and ay == 0:
            if bx == 0 and by == 0:
                return c0, 1, p1
            num, den = bx * bx + by * by, 1
        else:
            # meeting: b + a * dt = 0 for dt in [0, span]
            cross = ax * by - ay * bx
            if cross == 0:
                n, d = (-bx, ax) if ax != 0 else (-by, ay)
                if d < 0:
                    n, d = -n, -d
                if 0 <= n <= span * d:
                    return c0 * d + n, d, p1
            # squared gap is convex in dt: least at the vertex -(a.b)/|a|^2
            # when it lies in the cell (cross^2/|a|^2 by Lagrange's
            # identity), else at the nearer end
            dot = ax * bx + ay * by
            a2 = ax * ax + ay * ay
            if dot >= 0:
                num, den = bx * bx + by * by, 1
            elif -dot >= span * a2:
                gx, gy = bx + ax * span, by + ay * span
                num, den = gx * gx + gy * gy, 1
            else:
                num, den = cross * cross, a2
        qq = q1 * q2
        den *= qq * qq
        if best[0] is None or num * best[1] < best[0] * den:
            best[0], best[1] = num, den
        return None

    hit = _sweep(
        _planar_pieces(r1, w1, tscale, ascale), _planar_pieces(r2, w2, tscale, ascale), cell
    )
    if hit is not None:
        tn, td, p = hit
        return MeetingVerdict(
            True, Fraction(tn, td * tscale), p.point(tn, td), min_distance_sq=Fraction(0)
        )
    if best[0] is None:
        return MeetingVerdict(False)
    return MeetingVerdict(False, min_distance_sq=Fraction(best[0], best[1]))


# ---------------------------------------------------------------------------
# Positions for independent cross-checks
# ---------------------------------------------------------------------------

def graph_point_at(route, arc: Fraction):
    """Canonical geometric point at a given arc position on a graph route.

    Self-contained representation (no shared orientation table): a node
    handle, or the edge id with the offset from both endpoints.
    """
    cum = Fraction(0)
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
    seg = route.embed(route.route.step_at(m))
    tau = arc - m
    return (
        seg.start[0] + tau * (seg.end[0] - seg.start[0]),
        seg.start[1] + tau * (seg.end[1] - seg.start[1]),
    )


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

def verify_rendezvous(r1, r2, suite=DEFAULT_SUITE, seeds=(0,)) -> dict:
    """Run every (strategy pair, seed) cell and aggregate the verdicts.

    Results are independent of evaluation order; the report is
    reproducible from the seeds.
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
                verdict = detect_meeting_graph(None, r1, r2, w1, w2)
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


def epsilon_verdict(report: dict, epsilon: Fraction) -> dict:
    """A ``verify_rendezvous`` report read for approximate rendezvous: the
    worst (largest) ``min_distance_sq`` of its cells, and whether it is at
    most ``epsilon`` squared, compared exactly.  A met planar cell carries
    0; a cell that saw no gap (None) adds nothing, and a report with no
    gap is not within epsilon."""
    gaps = (cell["verdict"].min_distance_sq for cell in report["cells"])
    worst = max((gap for gap in gaps if gap is not None), default=None)
    return {
        **report,
        "epsilon": epsilon,
        "worst_min_distance_sq": worst,
        "within_epsilon": worst is not None and worst <= epsilon * epsilon,
    }
