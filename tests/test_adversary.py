import hashlib
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import k2, oracle_pieces, p3, planar_route, true_quadruple
from tunnelmeet.adversary import (
    DEFAULT_SUITE,
    STRATEGIES,
    ScheduleMismatch,
    WalkSchedule,
    _checked_pieces,
    detect_meeting_graph,
    detect_meeting_planar,
    graph_point_at,
    make_schedule,
    planar_point_at,
    validate_schedule,
    verify_rendezvous,
)
from tunnelmeet.graph_model import build_finite_graph, random_connected_graph
from tunnelmeet.rendezvous import Limits, RouteBuilder, graph_rv
from tunnelmeet.routes import (
    Route,
    StepBudgetExceeded,
    concat_routes,
    reverse_route,
    route_from_steps,
)


def q(x, y=1):
    return F(x, y)


def _exactly(message):
    return f"^{re.escape(message)}$"


class _Faulty(WalkSchedule):
    """A unit-speed walk with a fault injected into its own lattice
    pieces: ``edit(pieces, tscale, ascale)`` returns the list the checker
    reads, so each faulty piece still carries the step and arc interval
    read off its route."""

    def __init__(self, route, edit):
        super().__init__(route, "unit_speed", 0)
        self.edit = edit

    def lattice_pieces(self, tscale, ascale):
        yield from self.edit(list(super().lattice_pieces(tscale, ascale)), tscale, ascale)


def _with(piece, **change):
    """A lattice piece with some of its ``t0, t1, m, a0, a1`` changed."""
    return tuple(change.get(k, x) for k, x in zip(("t0", "t1", "m", "a0", "a1"), piece)) + piece[5:]


def test_unit_speed_single_segment_breakpoints():
    g = k2()
    r = route_from_steps("A", [g.traverse("A", 1)])
    w = make_schedule("unit_speed", r, 0)
    assert w.breakpoints() == [(F(0), F(0)), (F(1), F(1))]


def test_alternating_pair_moves_one_at_a_time():
    g = p3()
    r1 = graph_rv(g, "A", 1, Limits(6))
    r2 = graph_rv(g, "B", 2, Limits(6))
    w1 = make_schedule("alternating-first", r1, 0)
    w2 = make_schedule("alternating-second", r2, 0)
    moving1, moving2 = (
        [(t0, t1) for (t0, a0), (t1, a1) in zip(bps, bps[1:]) if a0 != a1]
        for bps in (w1.breakpoints(), w2.breakpoints())
    )
    for a0, a1 in moving1:
        for b0, b1 in moving2:
            assert a1 <= b0 or b1 <= a0  # windows never overlap


def test_seeded_schedules_are_valid_walks():
    g = random_connected_graph(5, 1)
    r = graph_rv(g, g.nodes[0], 2, Limits(12))
    for strategy in ("random_speeds", "jitter", "frozen_prefix", "unit_speed"):
        for seed in range(250):
            validate_schedule(r, make_schedule(strategy, r, seed))


def test_validate_rejects_bad_schedules():
    g = k2()
    r = route_from_steps("A", [g.traverse("A", 1)])
    # never reaches the far endpoint
    with pytest.raises(ScheduleMismatch, match=_exactly("walk does not cover the whole route")):
        validate_schedule(r, _Faulty(r, lambda p, T, A: [_with(p[0], a1=A // 2)]))
    # leaves the segment interval
    with pytest.raises(ScheduleMismatch, match=_exactly("position leaves step 0 arc interval")):
        validate_schedule(r, _Faulty(r, lambda p, T, A: [_with(p[0], a1=2 * A)]))
    # discontinuous
    with pytest.raises(ScheduleMismatch, match=_exactly("discontinuous schedule pieces")):
        validate_schedule(
            r,
            _Faulty(
                r,
                lambda p, T, A: [
                    _with(p[0], a1=A // 2),
                    _with(p[0], t0=2 * T, t1=3 * T, a0=A // 4),
                ],
            ),
        )


def test_k2_head_on_meets_at_midpoint():
    g = k2()
    r1 = route_from_steps("A", [g.traverse("A", 1)])
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    v = detect_meeting_graph(
        g, r1, r2, make_schedule("unit_speed", r1, 0), make_schedule("unit_speed", r2, 0)
    )
    assert v.met and v.time == F(1, 2)
    assert v.location[0] == "edge" and v.location[2] == F(1, 2)


def test_node_meeting_with_parked_agent():
    # agent 2 frozen at its start node; agent 1 walks through that node
    g = p3()
    r1 = route_from_steps("A", [g.traverse("A", 1), g.traverse("M", 2)])
    r2 = route_from_steps("M", [g.traverse("M", 1)])
    w1 = make_schedule("unit_speed", r1, 0)
    w2 = make_schedule("alternating-second", r2, 0)  # parked during [0,1]
    v = detect_meeting_graph(g, r1, r2, w1, w2)
    assert v.met and v.time == F(1)
    assert v.location == ("node", "M")


def test_meeting_soundness_by_substitution():
    g = k2()
    k, _ = true_quadruple(g, "A", "B", 1, 2)
    r1 = graph_rv(g, "A", 1, Limits(k))
    r2 = graph_rv(g, "B", 2, Limits(k))
    for name, s1, s2 in DEFAULT_SUITE:
        for seed in range(5):
            w1 = make_schedule(s1, r1, seed)
            w2 = make_schedule(s2, r2, seed + 10007)
            v = detect_meeting_graph(g, r1, r2, w1, w2)
            assert v.met, (name, seed)
            a = graph_point_at(r1, w1.position_at(v.time))
            b = graph_point_at(r2, w2.position_at(v.time))
            assert a == b


def test_disjoint_walks_never_meet():
    g = build_finite_graph(
        {
            "nodes": ["a", "b", "c", "d"],
            "edges": [
                {"u": "a", "pu": 1, "v": "b", "pv": 1},
                {"u": "b", "pu": 2, "v": "c", "pv": 1},
                {"u": "c", "pu": 2, "v": "d", "pv": 1},
            ],
        }
    )
    r1 = route_from_steps("b", [g.traverse("b", 1)])
    r2 = route_from_steps("c", [g.traverse("c", 2)])
    report = verify_rendezvous(r1, r2, seeds=(0, 1, 2))
    assert not report["all_met"]
    assert not report["vacuous"]


def test_empty_suite_is_vacuous():
    g = k2()
    r1 = route_from_steps("A", [g.traverse("A", 1)])
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    report = verify_rendezvous(r1, r2, suite=(), seeds=())
    assert report["vacuous"] and report["all_met"] and report["cells"] == []


def test_planar_head_on_meets_at_midpoint():
    r1 = planar_route([(q(0), q(0)), (q(1), q(0))])
    r2 = planar_route([(q(1), q(0)), (q(0), q(0))])
    v = detect_meeting_planar(
        r1, r2, make_schedule("unit_speed", r1, 0), make_schedule("unit_speed", r2, 0)
    )
    assert v.met and v.time == F(1, 2)
    assert v.location == (F(1, 2), F(0))


def test_planar_parallel_segments_keep_distance():
    r1 = planar_route([(q(0), q(0)), (q(1), q(0))])
    r2 = planar_route([(q(0), q(1, 4)), (q(1), q(1, 4))])
    v = detect_meeting_planar(
        r1, r2, make_schedule("unit_speed", r1, 0), make_schedule("unit_speed", r2, 0)
    )
    assert not v.met
    assert v.min_distance_sq == F(1, 16)


def test_planar_point_substitution():
    r1 = planar_route([(q(0), q(0)), (q(1), q(1))])
    r2 = planar_route([(q(1), q(0)), (q(0), q(1))])
    w1 = make_schedule("unit_speed", r1, 0)
    w2 = make_schedule("unit_speed", r2, 0)
    v = detect_meeting_planar(r1, r2, w1, w2)
    assert v.met
    assert planar_point_at(r1, w1.position_at(v.time)) == planar_point_at(
        r2, w2.position_at(v.time)
    )


def test_detect_rejects_invalid_schedule_mid_stream():
    g = k2()
    r1 = route_from_steps("A", [g.traverse("A", 1)])
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    # jumps discontinuously after the first piece
    broken = _Faulty(
        r1,
        lambda p, T, A: [
            _with(p[0], t1=T // 2, a1=A // 4),
            _with(p[0], t0=T, t1=2 * T, a0=A // 2),
        ],
    )
    with pytest.raises(ScheduleMismatch, match=_exactly("discontinuous schedule pieces")):
        detect_meeting_graph(g, r1, r2, broken, make_schedule("unit_speed", r2, 0))


def test_both_sweeps_reject_a_schedule_of_another_route():
    g = k2()
    r1 = route_from_steps("A", [g.traverse("A", 1)])
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    other_route = _exactly("schedule was built for a different route")
    with pytest.raises(ScheduleMismatch, match=other_route):
        detect_meeting_graph(
            g, r1, r2, make_schedule("unit_speed", r2, 0), make_schedule("unit_speed", r2, 0)
        )
    p1 = planar_route([(q(0), q(0)), (q(1), q(0))])
    p2 = planar_route([(q(5), q(5)), (q(6), q(5))])
    with pytest.raises(ScheduleMismatch, match=other_route):
        detect_meeting_planar(
            p1, p2, make_schedule("unit_speed", p2, 0), make_schedule("unit_speed", p2, 0)
        )


def test_length_den_is_the_lcm_over_the_rope():
    g = build_finite_graph(
        {
            "nodes": ["a", "b", "c"],
            "edges": [
                {"u": "a", "pu": 1, "v": "b", "pv": 1, "len": "2/3"},
                {"u": "b", "pu": 2, "v": "c", "pv": 1, "len": "5/4"},
            ],
        }
    )
    ab = route_from_steps("a", [g.traverse("a", 1)])
    bc = route_from_steps("b", [g.traverse("b", 2)])
    assert ab.length_den == 3 and Route("a").length_den == 1
    r = concat_routes(ab, bc, reverse_route(bc))
    assert r.length_den == 12
    # a sweep on that lattice, checked by substitution
    rr = reverse_route(r)
    w1, w2 = make_schedule("jitter", r, 0), make_schedule("random_speeds", rr, 1)
    v = detect_meeting_graph(g, r, rr, w1, w2)
    assert v.met
    assert graph_point_at(r, w1.position_at(v.time)) == graph_point_at(rr, w2.position_at(v.time))


def test_translated_route_pair_keeps_translation_gap():
    # a route and its image under a small translation stay exactly that
    # far apart under identical schedules
    shift = F(1, 100)
    pts = [(q(0), q(0)), (q(1), q(0)), (q(1), q(1))]
    moved = [(x + shift, y) for x, y in pts]
    r1 = planar_route(pts)
    r2 = planar_route(moved)
    v = detect_meeting_planar(
        r1, r2, make_schedule("unit_speed", r1, 0), make_schedule("unit_speed", r2, 0)
    )
    assert not v.met
    assert v.min_distance_sq == shift * shift


def test_negative_regression_parallel_shifted_routes():
    # alternating traversals on almost-disjoint parallel routes: the
    # adversary avoids rendezvous over the whole horizon
    pts1 = [(q(i), q(0)) for i in range(4)]
    pts2 = [(q(i), q(1, 4)) for i in range(4)]
    r1 = planar_route(pts1)
    r2 = planar_route(pts2)
    w1 = make_schedule("alternating-first", r1, 0)
    w2 = make_schedule("alternating-second", r2, 0)
    v = detect_meeting_planar(r1, r2, w1, w2)
    assert not v.met
    assert v.min_distance_sq == F(1, 16)


def test_planar_min_distance_matches_dense_sampling():
    # independent oracle for the quadratic gap minimization: dense exact
    # sampling can only sit above the true minimum, and not by much
    rng = random.Random(61)
    for trial in range(12):
        def poly(n):
            pts = [(F(rng.randint(0, 8), 4), F(rng.randint(0, 8), 4))]
            while len(pts) < n + 1:
                nxt = (F(rng.randint(0, 8), 4), F(rng.randint(0, 8), 4))
                if nxt != pts[-1]:
                    pts.append(nxt)
            return planar_route(pts)

        r1, r2 = poly(rng.randint(1, 4)), poly(rng.randint(1, 4))
        s = rng.choice(["unit_speed", "random_speeds", "jitter"])
        w1 = make_schedule(s, r1, trial)
        w2 = make_schedule(s, r2, trial + 999)
        v = detect_meeting_planar(r1, r2, w1, w2)
        horizon = min(w1.end_time(), w2.end_time())
        samples = 2048
        best = None
        for i in range(samples + 1):
            t = horizon * i / samples
            p = planar_point_at(r1, w1.position_at(t))
            q2 = planar_point_at(r2, w2.position_at(t))
            gap = (p[0] - q2[0]) ** 2 + (p[1] - q2[1]) ** 2
            if best is None or gap < best:
                best = gap
        exact = F(0) if v.met else v.min_distance_sq
        assert exact <= best
        assert float(best - exact) <= 0.25, (trial, exact, best)


def test_report_is_reproducible():
    g = k2()
    k, _ = true_quadruple(g, "A", "B", 1, 2)
    r1 = graph_rv(g, "A", 1, Limits(k))
    r2 = graph_rv(g, "B", 2, Limits(k))
    a = verify_rendezvous(r1, r2, seeds=(0, 1, 2))
    b = verify_rendezvous(r1, r2, seeds=(0, 1, 2))
    assert a == b


def test_validate_accepts_every_schedule_on_an_empty_route():
    r = Route("A")
    for strategy in STRATEGIES:
        for seed in range(20):
            validate_schedule(r, make_schedule(strategy, r, seed))


def test_partner_meets_an_agent_parked_on_an_empty_route():
    # frozen_prefix holds the empty-route agent at its start for at least
    # one time unit, long enough for the partner to arrive there
    g = k2()
    r1 = Route("A")
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    for seed in range(5):
        w1 = make_schedule("frozen_prefix", r1, seed)
        v = detect_meeting_graph(g, r1, r2, w1, make_schedule("unit_speed", r2, seed))
        assert v.met and v.time == F(1) and v.location == ("node", "A")


def test_route_of_two_to_the_64_steps():
    g = k2()
    r = route_from_steps("A", [g.traverse("A", 1)])
    for _ in range(64):
        r = concat_routes(r, reverse_route(r))
    assert r.length == 2**64
    assert r.step_at(2**64 - 1) == g.traverse("B", 1)
    partner = route_from_steps("B", [g.traverse("B", 1)])
    v = detect_meeting_graph(
        g, r, partner, make_schedule("unit_speed", r, 0), make_schedule("unit_speed", partner, 0)
    )
    assert v.met and v.time == F(1, 2)


# ---------------------------------------------------------------------------
# Schedules generated on the integer lattice
# ---------------------------------------------------------------------------

def _thirds_and_fifths():
    """A graph with edge lengths 1/3 and 2/5 (D = 15) and a route over both
    edges, out and back, then across again."""
    g = build_finite_graph(
        {
            "nodes": ["a", "b", "c"],
            "edges": [
                {"u": "a", "pu": 1, "v": "b", "pv": 1, "len": "1/3"},
                {"u": "b", "pu": 2, "v": "c", "pv": 1, "len": "2/5"},
            ],
        }
    )
    out = route_from_steps("a", [g.traverse("a", 1), g.traverse("b", 2)])
    return g, concat_routes(out, reverse_route(out), out)


_GENERATOR_ROUTES = {
    "graph": lambda: _thirds_and_fifths()[1],
    "empty": lambda: Route("a"),
    "planar": lambda: planar_route(
        [(q(0), q(0)), (q(1), q(1, 2)), (q(-1, 3), q(2)), (q(0), q(0))]
    ),
}


@pytest.mark.parametrize("kind", sorted(_GENERATOR_ROUTES))
def test_lattice_pieces_match_the_fraction_oracle(kind):
    # every strategy, at the route's own lattice and at a sweep's finer one
    # (a partner route whose D is 7 times as large), divided by its scales
    route = _GENERATOR_ROUTES[kind]()
    d = route.length_den
    assert d == {"graph": 15, "empty": 1, "planar": 1}[kind]
    steps = list(route.steps())
    starts = [sum((st.length for st in steps[:m]), F(0)) for m in range(len(steps))]
    for strategy in STRATEGIES:
        for seed in range(50):
            w = make_schedule(strategy, route, seed)
            want = list(oracle_pieces(route, strategy, seed))
            got = w.breakpoints()
            first = (want[0][0], want[0][3])  # (t0, a0) of the first piece
            assert got == [first] + [(t1, a1) for _, t1, _, _, a1 in want], (strategy, seed)
            assert all(type(x) is F for point in got for x in point)
            assert w.end_time() == want[-1][1]
            for k in (1, 7):
                tscale, ascale = 840 * d * k, 4 * d * k
                scaled = list(w.lattice_pieces(tscale, ascale))
                assert [
                    (F(t0, tscale), F(t1, tscale), m, F(a0, ascale), F(a1, ascale))
                    for t0, t1, m, a0, a1, _, _, _ in scaled
                ] == want, (strategy, seed, k)
                for _, _, m, _, _, step, lo, hi in scaled:
                    if steps:  # the piece's step and that step's arc interval
                        assert step == steps[m]
                        assert (lo, hi) == (starts[m] * ascale, (starts[m] + step.length) * ascale)
                    else:  # the hold on a route without steps
                        assert (m, step, lo, hi) == (0, None, 0, 0)


def test_frozen_prefix_hold_names_step_zero():
    # the hold parks on the start, which is step 0's first end: the checker
    # hands the sweep that step and its interval, as it did when it read
    # the route itself; only a route without steps has no step to name
    route = _thirds_and_fifths()[1]
    first = route.step_at(0)
    tscale, ascale = 840 * 15, 4 * 15
    for seed in range(10):
        w = make_schedule("frozen_prefix", route, seed)
        t0, t1, m, a0, a1, step, lo, hi = next(w.lattice_pieces(tscale, ascale))
        assert (t0, m, a0, a1, step, lo, hi) == (0, 0, 0, 0, first, 0, ascale // 3)
        assert t1 == tscale * oracle_pieces(route, "frozen_prefix", seed).__next__()[1]
        checked = next(_checked_pieces(route, w, tscale, ascale))
        assert checked == (0, t1, 0, 0, 0, first, ascale // 3)
    empty = Route("a")
    held = next(_checked_pieces(empty, make_schedule("frozen_prefix", empty, 0), 840, 4))
    assert held[2:] == (0, 0, 0, None, 0)


def test_each_cell_reads_each_route_once(monkeypatch):
    calls = Counter()
    steps = Route.steps

    def counted(self):
        calls[id(self)] += 1
        return steps(self)

    monkeypatch.setattr(Route, "steps", counted)
    g, r1 = _thirds_and_fifths()
    r2 = reverse_route(r1)
    p1 = planar_route([(q(0), q(0)), (q(1), q(0)), (q(1), q(1))])
    p2 = planar_route([(q(1), q(1, 4)), (q(0), q(1, 4))])
    for name, s1, s2 in DEFAULT_SUITE:
        calls.clear()
        detect_meeting_graph(g, r1, r2, make_schedule(s1, r1, 3), make_schedule(s2, r2, 4))
        assert calls == {id(r1): 1, id(r2): 1}, name
        calls.clear()
        detect_meeting_planar(p1, p2, make_schedule(s1, p1, 3), make_schedule(s2, p2, 4))
        assert calls == {id(p1.route): 1, id(p2.route): 1}, name
        calls.clear()
        validate_schedule(r1, make_schedule(s1, r1, 5))
        assert calls == {id(r1): 1}, name


def test_unknown_strategy_fails_on_the_first_step():
    # rejected as the schedule is made, before its first piece, on any route
    for route in (Route("a"), _thirds_and_fifths()[1]):
        with pytest.raises(ValueError, match="unknown strategy 'sprint'"):
            WalkSchedule(route, "sprint", 0)


_FOREIGN_FAULTS = [  # (an edit of the pieces p of a unit-speed walk on P3's
    # route A-M-B of two unit steps, at time scale T and arc scale A; message)
    (lambda p, T, A: p[:1], "walk does not cover the whole route"),
    (lambda p, T, A: [], "empty schedule for a non-empty route"),
    (lambda p, T, A: [_with(p[0], t0=T, t1=2 * T)], "walk must start at time 0, position 0"),
    (lambda p, T, A: [_with(p[0], a0=A // 4)], "walk must start at time 0, position 0"),
    (lambda p, T, A: [p[0], _with(p[1], a0=3 * A // 4)], "discontinuous schedule pieces"),
    (lambda p, T, A: [p[0], _with(p[1], t1=T // 2)], "time must not decrease"),
    (lambda p, T, A: [_with(p[0], t1=0)], "time must not decrease"),
    (lambda p, T, A: [_with(p[0], m=2)], "piece names step 2 outside the route"),
    (lambda p, T, A: [_with(p[0], m=-1)], "piece names step -1 outside the route"),
    (lambda p, T, A: [_with(p[0], m=10**12)], "piece names step 1000000000000 outside the route"),
    (
        lambda p, T, A: [*p, _with(p[1], t0=2 * T, t1=3 * T, m=0, a0=2 * A)],
        "step index decreases to 0",
    ),
    (
        lambda p, T, A: [_with(p[1], t0=0, t1=T, a0=0, a1=A)],
        "position leaves step 1 arc interval",
    ),
    (lambda p, T, A: [_with(p[0], a1=5 * A // 4)], "position leaves step 0 arc interval"),
]


@pytest.mark.parametrize("edit,message", _FOREIGN_FAULTS, ids=[m for _, m in _FOREIGN_FAULTS])
def test_foreign_schedule_faults_keep_their_messages(edit, message):
    # each fault is injected into a walk's own lattice pieces and read by
    # the one checker
    g = p3()
    r = route_from_steps("A", [g.traverse("A", 1), g.traverse("M", 2)])
    with pytest.raises(ScheduleMismatch, match=_exactly(message)):
        validate_schedule(r, _Faulty(r, edit))
    # the walk without a fault is accepted
    validate_schedule(r, _Faulty(r, lambda p, T, A: p))


# ---------------------------------------------------------------------------
# Golden: verdicts on rational edge lengths and rational planar coordinates
# ---------------------------------------------------------------------------

_LENGTHS = ("1/2", "2/3", "5/4", "7/3", "3/5", "9/8")


def _rational_world(seed):
    """``random_connected_graph(3 + seed % 3, seed)`` with each edge's
    length drawn from ``_LENGTHS``."""
    base = random_connected_graph(3 + seed % 3, seed)
    rng = random.Random(seed)
    edges = {}
    for u in base.nodes:
        for p in base.ports(u):
            st = base.traverse(u, p)
            if st.edge_id not in edges:
                edges[st.edge_id] = {
                    "u": u, "pu": p, "v": st.v, "pv": st.in_port, "len": rng.choice(_LENGTHS)
                }
    return build_finite_graph({"nodes": base.nodes, "edges": [edges[e] for e in sorted(edges)]})


def _random_walk(g, rng, n):
    start = v = rng.choice(g.nodes)
    steps = []
    for _ in range(n):
        st = g.traverse(v, rng.choice(g.ports(v)))
        steps.append(st)
        v = st.v
    return route_from_steps(start, steps)


def _rational_graph_pairs(worlds):
    """Per world: both agents' routes at the true phase (skipped past 3,000
    steps), then two short random walks."""
    for seed in range(worlds):
        g = _rational_world(seed)
        rng = random.Random(seed)
        v, w = rng.sample(g.nodes, 2)
        k, _ = true_quadruple(g, v, w, 1, 2)
        builder = RouteBuilder(g, Limits(k, 3000))
        try:
            yield g, builder.route(v, 1), builder.route(w, 2)
        except StepBudgetExceeded:
            pass
        yield g, _random_walk(g, rng, rng.randint(2, 6)), _random_walk(g, rng, rng.randint(2, 6))


def _rational_polyline_pairs(pairs):
    """Polylines with coordinate denominators 1 to 6; a quarter of the
    partners walk the first polyline backwards."""
    rng = random.Random(7)

    def polyline(n):
        def point():
            return (F(rng.randint(-6, 6), rng.randint(1, 6)), F(rng.randint(-6, 6), rng.randint(1, 6)))

        pts = [point()]
        while len(pts) < n + 1:
            p = point()
            if p != pts[-1]:
                pts.append(p)
        return pts

    for _ in range(pairs):
        pts1 = polyline(rng.randint(1, 5))
        pts2 = pts1[::-1] if rng.random() < 0.25 else polyline(rng.randint(1, 5))
        yield None, planar_route(pts1), planar_route(pts2)


def test_rational_verdicts_golden():
    # pinned before the sweep moved to integer arithmetic: 2,120 cells,
    # 135 graph and 892 planar of them without a meeting
    lines = []
    worlds = [*_rational_graph_pairs(24), *_rational_polyline_pairs(60)]
    for _, r1, r2 in worlds:
        for cell in verify_rendezvous(r1, r2, seeds=range(4))["cells"]:
            v = cell["verdict"]
            lines.append(repr((v.met, v.time, v.location, v.min_distance_sq)))
    assert len(lines) == 2120
    assert sum(line.startswith("(False") for line in lines) == 135 + 892
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0478f16296813962ad9ad564f80bbdb134f49603d8473f1d34b30fd03b7305de"
