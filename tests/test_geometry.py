import json
import random
from fractions import Fraction as F
from importlib import resources
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_classify,
    oracle_first_boundary_hit,
    path_port_sequences,
    rational_path,
    reference_rv,
)
from tunnelmeet import geometry
from tunnelmeet.adversary import epsilon_verdict, verify_rendezvous
from tunnelmeet.enumeration import rational_pair, rational_pair_index
from tunnelmeet.geometry import (
    PlanarSegment,
    StartNotInterior,
    Terrain,
    TerrainError,
    TerrainGraph,
    audit_planar_route,
    first_boundary_hit,
    geometric_routes,
    geometric_rv,
    terrain_from_json,
)
from tunnelmeet.graph_model import parse_rational
from tunnelmeet.rendezvous import Limits, RouteBuilder


def unit_square():
    return Terrain(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))


def square_with_hole():
    return Terrain(
        ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))),
        (((F(3, 8), F(3, 8)), (F(5, 8), F(3, 8)), (F(5, 8), F(5, 8)), (F(3, 8), F(5, 8))),),
    )


def rand_point(rng, den=32):
    return (F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))


def test_terrain_classification():
    t = square_with_hole()
    assert t.classify((F(1, 2), F(1, 16))) == "interior"
    assert t.classify((F(1, 2), F(1, 2))) == "outside"  # inside the hole
    assert t.classify((F(3, 8), F(1, 2))) == "boundary"  # hole boundary
    assert t.classify((F(0), F(1, 2))) == "boundary"
    assert t.classify((F(2), F(2))) == "outside"
    assert t.classify((F(0), F(0))) != "outside"
    assert not t.is_interior((F(0), F(0)))


def test_terrain_validation_rejects_bad_input():
    with pytest.raises(TerrainError):
        Terrain(((F(0), F(0)), (F(1), F(0))))  # too few vertices
    with pytest.raises(TerrainError):
        Terrain(
            ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))),
            (((F(1, 2), F(1, 2)), (F(2), F(1, 2)), (F(2), F(2))),),  # hole pokes out
        )
    outer = ((F(0), F(0)), (F(4), F(0)), (F(4), F(4)), (F(0), F(4)))
    big = ((F(1), F(1)), (F(3), F(1)), (F(3), F(3)), (F(1), F(3)))
    small = ((F(3, 2), F(3, 2)), (F(2), F(3, 2)), (F(2), F(2)), (F(3, 2), F(2)))
    for holes in ((big, small), (small, big)):  # nesting caught either order
        with pytest.raises(TerrainError):
            Terrain(outer, holes)


def _poly(*xy):
    return tuple((F(x), F(y)) for x, y in xy)


_OUTER = _poly((0, 0), (8, 0), (8, 8), (0, 8))
_SQUARE_AT = {  # 2x2 holes by lower-left corner
    c: _poly(c, (c[0] + 2, c[1]), (c[0] + 2, c[1] + 2), (c[0], c[1] + 2))
    for c in ((1, 1), (3, 3), (5, 5))
}
_BIG = _poly((1, 1), (7, 1), (7, 7), (1, 7))
_NOT_INSIDE = "hole 0 is not strictly inside the outer polygon"
_TOUCH = "boundary polygons touch"
_REJECTIONS = {  # id: (outer, holes, message); one fault each, or none
    "few": (_poly((0, 0), (1, 0)), (), "outer: a polygon needs at least 3 vertices"),
    "zero-area": (_poly((0, 0), (1, 0), (2, 0)), (), "outer: degenerate polygon"),
    "repeated-vertex": (
        _poly((0, 0), (8, 0), (8, 0), (0, 8)), (), "outer: repeated consecutive vertex"
    ),
    "outer-crosses-itself": (
        _poly((0, 0), (8, 8), (8, 0), (0, 4)), (), "outer: polygon is not simple"
    ),
    "hole-crosses-itself": (
        _OUTER, (_poly((2, 2), (6, 6), (6, 2), (2, 4)),), "hole 0: polygon is not simple"
    ),
    "hole-pokes-out": (_OUTER, (_poly((4, 4), (10, 4), (10, 10)),), _NOT_INSIDE),
    "hole-outside": (_OUTER, (_poly((10, 10), (12, 10), (12, 12)),), _NOT_INSIDE),
    "hole-touches-outer-vertex": (_OUTER, (_poly((0, 0), (2, 1), (1, 2)),), _NOT_INSIDE),
    "hole-touches-outer-edge": (
        _OUTER, (_poly((2, 0), (4, 0), (4, 2), (2, 2)),), _NOT_INSIDE
    ),
    "holes-touch": (_OUTER, (_SQUARE_AT[1, 1], _SQUARE_AT[3, 3]), _TOUCH),
    "holes-cross": (
        _OUTER,
        (_poly((1, 1), (4, 1), (4, 4), (1, 4)), _poly((3, 3), (6, 3), (6, 6), (3, 6))),
        _TOUCH,
    ),
    "nested-big-first": (_OUTER, (_BIG, _SQUARE_AT[3, 3]), "nested holes"),
    "nested-small-first": (_OUTER, (_SQUARE_AT[3, 3], _BIG), "nested holes"),
    "two-disjoint-holes": (_OUTER, (_SQUARE_AT[1, 1], _SQUARE_AT[5, 5]), None),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_terrain_rejection_messages(case):
    """Each terrain has at most one fault, named by its exact message."""
    outer, holes, message = _REJECTIONS[case]
    if message is None:
        assert Terrain(outer, holes).holes == holes
        return
    with pytest.raises(TerrainError) as info:
        Terrain(outer, holes)
    assert str(info.value) == message


def _shipped(name):
    return json.loads((resources.files("tunnelmeet") / "scenarios" / f"{name}.json").read_text())


def _shipped_terrain(name):
    return terrain_from_json(_shipped(name)["world"]["terrain"])


@pytest.mark.parametrize("name", ["square", "lshape", "hole", "approx"])
def test_terrain_routes_match_the_literal_recursion(name):
    doc = _shipped(name)
    t = terrain_from_json(doc["world"]["terrain"])
    starts = [tuple(map(parse_rational, agent["start"])) for agent in doc["agents"]]
    labels = [agent["label"] for agent in doc["agents"]]
    routes = geometric_routes(t, starts, labels, Limits(12))
    for start, label, planar in zip(starts, labels, routes):
        r = reference_rv(TerrainGraph(t), ("v1", start), label, 12, 10**7)
        assert (r.start, r.phase_marks) == (planar.route.start, planar.phase_marks)
        assert list(r.steps()) == list(planar.steps())


_KERNEL_TERRAINS = [_shipped_terrain(name) for name in ("square", "lshape", "hole", "approx")]
_KERNEL_TERRAINS.append(Terrain(*_REJECTIONS["two-disjoint-holes"][:2]))
_EPS = F(1, 2**60)
_NUDGES = [(sx, sy) for sx in (-1, 0, 1) for sy in (-1, 0, 1) if sx or sy]


def _along(a, b, lam):
    return (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1]))


@st.composite
def _kernel_edge(draw, t):
    poly = draw(st.sampled_from((t.outer,) + t.holes))
    k = draw(st.integers(0, len(poly) - 1))
    return poly[k], poly[(k + 1) % len(poly)]


@st.composite
def _kernel_point(draw, t, kinds=("edge", "nudged", "grid", "small")):
    """On an edge or at a vertex, 2^-60 off an edge, on the 2^-30 grid
    (like ``approx``'s starts), or with a small denominator."""
    kind = draw(st.sampled_from(kinds))
    if kind in ("edge", "nudged"):
        on = _along(*draw(_kernel_edge(t)), F(draw(st.integers(0, 8)), 8))
        sx, sy = draw(st.sampled_from(_NUDGES)) if kind == "nudged" else (0, 0)
        return (on[0] + sx * _EPS, on[1] + sy * _EPS)
    den = 2**30 if kind == "grid" else draw(st.integers(1, 16))
    xs, ys = zip(*t.outer)
    return tuple(
        F(draw(st.integers(int(min(cs) * den), int(max(cs) * den))), den)
        for cs in (xs, ys)
    )


@st.composite
def _kernel_segment(draw, t):
    """Any two points, a segment toward (and past) a vertex, or a segment
    on the line of an edge, starting off that edge."""
    kind = draw(st.sampled_from(["points", "graze", "collinear"]))
    if kind == "collinear":
        a, b = draw(_kernel_edge(t))
        mu = draw(st.sampled_from([F(-1, 2), F(-1, 8), F(9, 8), F(3, 2)]))
        lam = draw(st.sampled_from([F(1, 4), F(1), F(2), F(4)])) * draw(st.sampled_from([1, -1]))
        return _along(a, b, mu), _along(a, b, mu + lam)
    v = draw(_kernel_point(t, ("nudged", "grid", "small")))
    if kind == "points":
        return v, draw(_kernel_point(t))
    w = draw(st.sampled_from(draw(st.sampled_from((t.outer,) + t.holes))))
    return v, _along(v, w, draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(3)])))


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(st.data())
def test_int_kernel_matches_the_fraction_oracles(data):
    """``classify`` and ``first_boundary_hit`` agree with their
    ``Fraction`` oracles on the shipped terrains and a two-hole terrain."""
    t = data.draw(st.sampled_from(_KERNEL_TERRAINS))
    v, u = data.draw(_kernel_segment(t))
    assert t.classify(v) == oracle_classify(t, v)
    assert t.classify(u) == oracle_classify(t, u)
    if oracle_classify(t, v) == "interior":
        assert first_boundary_hit(t, v, u) == oracle_first_boundary_hit(t, v, u)
    else:
        with pytest.raises(StartNotInterior):
            first_boundary_hit(t, v, u)


def test_int_kernel_decides_where_float_division_errs():
    """A point 3^-40 inside the unit square's right edge: on ints at the
    scale 2*3^40, a float crossing abscissa rounds below it, so a ray cast
    that divides puts it outside."""
    sq = _shipped_terrain("square")
    p = (1 - F(1, 3**40), F(1, 2))
    assert sq.classify(p) == oracle_classify(sq, p) == "interior"
    east = (F(2), F(1, 2))
    assert first_boundary_hit(sq, p, east) == oracle_first_boundary_hit(sq, p, east) == (1, F(1, 2))


def test_first_boundary_hit_examples():
    sq = unit_square()
    assert first_boundary_hit(sq, (F(1, 2), F(1, 2)), (F(1, 2), F(2))) == (F(1, 2), F(1))
    assert first_boundary_hit(sq, (F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))) is None
    t = square_with_hole()
    assert first_boundary_hit(t, (F(1, 8), F(1, 2)), (F(7, 8), F(1, 2))) == (F(3, 8), F(1, 2))
    with pytest.raises(StartNotInterior):
        first_boundary_hit(sq, (F(0), F(0)), (F(1, 2), F(1, 2)))


def test_endpoint_on_boundary_counts_as_hit():
    sq = unit_square()
    assert first_boundary_hit(sq, (F(1, 2), F(1, 2)), (F(1), F(1, 2))) == (F(1), F(1, 2))


def big_square():
    """A square so large that every early port's segment stays interior."""
    r = F(1000)
    return Terrain(((-r, -r), (r, -r), (r, r), (-r, r)))


def test_gt_target_examples():
    gt = TerrainGraph(big_square())
    step = gt.traverse(("v1", (F(0), F(0))), 1)
    assert step.v == ("v1", (F(1, 4), F(0)))
    assert step.in_port == rational_pair_index(F(-1, 4), F(0))
    unit_east = rational_pair_index(F(1), F(0))
    assert gt.traverse(("v1", (F(0), F(0))), unit_east).v == ("v1", (F(1), F(0)))
    port = rational_pair_index(F(-1, 2), F(1, 4))
    step = gt.traverse(("v1", (F(1, 3), F(2))), port)
    assert step.v == ("v1", (F(-1, 6), F(9, 4)))
    assert step.in_port == rational_pair_index(F(1, 2), F(-1, 4))


def test_gt_target_translation_invariance():
    rng = random.Random(31)
    gt = TerrainGraph(big_square())
    for port in range(1, 1001):
        off = rational_pair(port)
        p = rand_point(rng)
        kind, t = gt.traverse(("v1", p), port).v
        assert kind == "v1"
        assert (t[0] - p[0], t[1] - p[1]) == (off.q1, off.q2)


def test_gt_traverse_examples():
    gt = TerrainGraph(unit_square())
    east = rational_pair_index(F(1, 8), F(0))
    step = gt.traverse(("v1", (F(1, 2), F(1, 2))), east)
    assert step.v == ("v1", (F(5, 8), F(1, 2)))
    north1 = rational_pair_index(F(0), F(1))
    step = gt.traverse(("v1", (F(1, 2), F(1, 2))), north1)
    assert step.v == ("v2", (F(1, 2), F(1, 2)), north1, (F(1, 2), F(1)))
    assert step.in_port == 1
    back = gt.traverse(step.v, 1)
    assert (back.v, back.in_port, back.edge_id) == (step.u, north1, step.edge_id)


@pytest.mark.parametrize("port", [1, 3])  # port 3 is the zero offset
@pytest.mark.parametrize("p", [(F(0), F(1, 2)), (F(2), F(1, 2))])
def test_gt_traverse_rejects_boundary_and_exterior_points(p, port):
    with pytest.raises(StartNotInterior):
        TerrainGraph(unit_square()).traverse(("v1", p), port)


def test_terrain_graph_follows_each_port_once(monkeypatch):
    """Building ``square``'s two routes finds each memo entry with exactly
    one boundary query; following a memoized port again makes none and
    returns the same step, and each stub carries its port's first hit."""
    calls = []

    def counted(t, v, u):
        calls.append((v, u))
        return first_boundary_hit(t, v, u)

    monkeypatch.setattr(geometry, "first_boundary_hit", counted)
    doc = _shipped("square")
    t = terrain_from_json(doc["world"]["terrain"])
    gt = TerrainGraph(t)
    builder = RouteBuilder(gt, Limits(doc["limits"]["phase_cap"]))
    for agent in doc["agents"]:
        start = tuple(map(parse_rational, agent["start"]))
        builder.route(("v1", start), agent["label"])
    memo = gt._steps
    assert memo and len(calls) == len(memo)
    stubs = 0
    for (node, port), step in list(memo.items()):
        assert gt.traverse(node, port) is step
        if step.v[0] == "v2":
            stubs += 1
            off = rational_pair(port)
            target = (node[1][0] + off.q1, node[1][1] + off.q2)
            assert step.v == ("v2", node[1], port, first_boundary_hit(t, node[1], target))
    assert len(calls) == len(memo)
    assert stubs


def test_terrain_graph_symmetry_sweep():
    rng = random.Random(37)
    sq = unit_square()
    gt = TerrainGraph(sq)
    for _ in range(1000):
        p = ("v1", rand_point(rng))
        port = rng.randint(1, 60)
        step = gt.traverse(p, port)
        back = gt.traverse(step.v, step.in_port)
        assert back.v == p
        assert back.in_port == port
        assert back.edge_id == step.edge_id
    # boundary stubs have the single return port
    stub = gt.traverse(("v1", (F(1, 16), F(1, 2))), 2).v
    assert stub[0] == "v2"
    assert gt.is_port(stub, 1) and not gt.is_port(stub, 2)


def test_geometric_rv_zero_phases():
    sq = unit_square()
    r = geometric_rv(sq, (F(1, 2), F(1, 2)), 1, Limits(0))
    assert list(r.segments()) == []
    assert r.start == (F(1, 2), F(1, 2))


def test_geometric_rv_requires_interior_start():
    sq = unit_square()
    with pytest.raises(StartNotInterior):
        geometric_rv(sq, (F(0), F(1, 2)), 1, Limits(1))


def test_geometric_routes_match_geometric_rv_and_check_every_start():
    sq = unit_square()
    starts, labels = [(F(3, 16), F(1, 2)), (F(1, 2), F(1, 2))], [1, 2]
    routes = geometric_routes(sq, starts, labels, Limits(6))
    for route, start, label in zip(routes, starts, labels):
        alone = geometric_rv(sq, start, label, Limits(6))
        assert list(route.segments()) == list(alone.segments())
        assert route.phase_marks == alone.phase_marks
    with pytest.raises(StartNotInterior):
        geometric_routes(sq, [starts[0], (F(1), F(1, 2))], labels, Limits(6))


def test_geometric_route_bounces_and_stays_inside():
    sq = unit_square()
    r = geometric_rv(sq, (F(3, 16), F(1, 2)), 1, Limits(4))
    audit_planar_route(sq, r)
    kinds = {seg.kind for seg in r.segments()}
    assert "bounce_out" in kinds  # the quarter-step west leaves the square


class _Tampered(NamedTuple):
    """All that ``audit_planar_route`` reads of a route: its start and its
    segments."""

    start: tuple
    segs: list

    def segments(self):
        return iter(self.segs)


def _tampered_routes():
    """(terrain, route, message): one fault per route.  Each is the square
    route of the test above, edited at its first bounce, except for the
    free segment across the hole of ``square_with_hole``."""
    sq = unit_square()
    r = geometric_rv(sq, (F(3, 16), F(1, 2)), 1, Limits(4))
    segs = list(r.segments())
    b = next(i for i, seg in enumerate(segs) if seg.kind == "bounce_out")
    head, out = segs[:b], segs[b]
    outside, west = (F(2), F(1, 2)), (F(1, 4), F(1, 2))
    return [
        (sq, _Tampered((F(0), F(1, 2)), segs), "route start is not interior"),
        (
            sq,
            _Tampered(r.start, head + [out._replace(end=(F(1, 2), F(1, 2)))]),
            "bounce endpoint is not on the boundary",
        ),
        (
            sq,
            _Tampered(r.start, head + [PlanarSegment(out.start, outside, "free")]),
            f"free endpoint {outside} is not interior",
        ),
        (
            square_with_hole(),
            _Tampered(west, [PlanarSegment(west, (F(3, 4), F(1, 2)), "free")]),
            "free segment touches the boundary",
        ),
        (sq, _Tampered(r.start, head + segs[b + 1 :]), "segments do not chain"),
        (
            sq,
            _Tampered(r.start, head + [out, PlanarSegment(out.end, out.start, "free")]),
            "boundary hit not followed by its reverse",
        ),
        (
            sq,
            _Tampered(r.start, head + [out._replace(kind="bounce_back")]),
            "bounce_back without a preceding hit",
        ),
        (sq, _Tampered(r.start, head + [out]), "route ends mid-bounce"),
    ]


@pytest.mark.parametrize("case", range(8))
def test_audit_rejects_each_tampered_route(case):
    t, route, message = _tampered_routes()[case]
    with pytest.raises(TerrainError) as info:
        audit_planar_route(t, route)
    assert str(info.value) == message


def test_rational_path_examples():
    sq = unit_square()
    p = rational_path(sq, (F(1, 4), F(1, 2)), (F(1, 4), F(1, 2)))
    assert p == [(F(1, 4), F(1, 2))]
    p = rational_path(sq, (F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))
    assert p == [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]  # clearance allows
    t = square_with_hole()
    u, v = (F(1, 8), F(1, 2)), (F(7, 8), F(1, 2))
    p = rational_path(t, u, v)
    assert p[0] == u and p[-1] == v
    for vertex in p:
        assert t.is_interior(vertex)
    for a, b in zip(p, p[1:]):
        assert first_boundary_hit(t, a, b) is None


def test_rational_path_port_sequences_drive_the_terrain_graph():
    # spot check: rational targets are reachable through the port graph
    rng = random.Random(41)
    sq = unit_square()
    gt = TerrainGraph(sq)
    start = (F(1, 2), F(1, 2))
    for _ in range(100):
        target = rand_point(rng, den=16)
        ports, _ = path_port_sequences(rational_path(sq, start, target))
        node = ("v1", start)
        for port in ports:
            step = gt.traverse(node, port)
            assert step.v[0] == "v1", "oracle paths stay interior"
            node = step.v
        assert node == ("v1", target)


def test_frame_equivariance():
    t = square_with_hole()
    shift = (F(1, 3), F(-2, 5))

    def move(p):
        return (p[0] + shift[0], p[1] + shift[1])

    moved = Terrain(
        tuple(move(p) for p in t.outer),
        tuple(tuple(move(p) for p in h) for h in t.holes),
    )
    start = (F(1, 4), F(3, 16))
    r = geometric_rv(t, start, 1, Limits(4))
    rm = geometric_rv(moved, move(start), 1, Limits(4))
    assert r.length == rm.length
    for a, b in zip(r.segments(), rm.segments()):
        assert move(a.start) == b.start
        assert move(a.end) == b.end
        assert a.kind == b.kind


def _approx_report(epsilon):
    """The epsilon reading of the suite's report on two unit-square agents."""
    sq = unit_square()
    starts = ((F(3, 8), F(1, 2)), (F(5, 8), F(1, 2)))
    r1, r2 = geometric_routes(sq, starts, (1, 2), Limits(2))
    return epsilon_verdict(verify_rendezvous(r1, r2, seeds=(0,)), epsilon)


def test_approx_rendezvous_rational_starts_meet_exactly():
    rep = _approx_report(F(1, 100))
    assert rep["all_met"]
    assert rep["worst_min_distance_sq"] == 0
    assert rep["within_epsilon"]


def test_approx_rendezvous_reports_regardless_of_large_epsilon():
    rep = _approx_report(F(10))
    assert rep["within_epsilon"]
    assert rep["worst_min_distance_sq"] == 0  # actual distance, not the bound
