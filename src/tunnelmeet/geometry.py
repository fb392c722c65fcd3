"""Exact rational planar geometry and terrain rendezvous.

Terrains are closed polygon-with-holes regions with rational vertices.
Every predicate (validation, point classification, segment-boundary
contact) is an exact int sign test: a ``Terrain`` keeps its vertices as
ints over one denominator D, and a query meets them at D times its
points' own denominator.  Only a returned hit point is a ``Fraction``;
the ``Fraction`` forms of the queries are test oracles (``tests/conftest.py``).

The countable graph over rational interior points reduces terrain
rendezvous to graph rendezvous: every rational offset is a port
(numbered by the pair enumeration), a segment that stays interior is an
edge between interior points, and a segment that touches the boundary
leads to a degree-one stub node that carries its boundary point and
forces the agent straight back.  Routes built this way are polylines of
rational points plus bounce pairs, so meeting detection stays in exact
arithmetic.  No agent needs an explicit rational path between two
interior points; the grid witness of that connectivity lemma lives with
the tests (``tests/conftest.py``).  ``geometric_routes`` builds every
terrain route; ``geometric_rv`` is its one-agent form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from .enumeration import rational_pair, rational_pair_index
from .graph_model import (
    EdgeTraversal,
    GraphError,
    InvalidPort,
    PortLabeledGraph,
    check_field,
    is_list,
    is_point,
    rational_field,
)
from .rendezvous import Limits, RouteBuilder
from .routes import Route

QPoint = tuple[Fraction, Fraction]

TERRAIN_SCHEMA = "terrain-v1"

_ONE = Fraction(1)


class TerrainError(GraphError):
    pass


class StartNotInterior(TerrainError):
    pass


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(p, a, b) -> bool:
    if _cross(a[0], a[1], b[0], b[1], p[0], p[1]) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _edges(poly: tuple) -> Iterator[tuple]:
    """The polygon's edges in order, the last one closing the ring."""
    return zip(poly, poly[1:] + poly[:1])


def _strictly_inside(p, ring) -> bool:
    """Exact ray casting over a ring of int edges; p must not lie on it.
    The crossing abscissa is compared with p's by cross-multiplying."""
    x, y = p
    inside = False
    for (ax, ay), (bx, by) in ring:
        if (ay > y) != (by > y) and ((ax - x) * (by - ay) + (y - ay) * (bx - ax) > 0) == (by > ay):
            inside = not inside
    return inside


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """Exact closed-segment intersection test."""
    d1 = _cross(q1[0], q1[1], q2[0], q2[1], p1[0], p1[1])
    d2 = _cross(q1[0], q1[1], q2[0], q2[1], p2[0], p2[1])
    d3 = _cross(p1[0], p1[1], p2[0], p2[1], q1[0], q1[1])
    d4 = _cross(p1[0], p1[1], p2[0], p2[1], q2[0], q2[1])
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    for p, a, b in ((p1, q1, q2), (p2, q1, q2), (q1, p1, p2), (q2, p1, p2)):
        if _on_segment(p, a, b):
            return True
    return False


def _scaled(p, scale: int) -> tuple[int, int]:
    """p times ``scale``, a multiple of both coordinates' denominators."""
    x, y = p
    return x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator)


def _classify(p, rings) -> str:
    """``Terrain.classify`` on an int point and the terrain's int rings."""
    for ring in rings:
        for a, b in ring:
            if _on_segment(p, a, b):
                return "boundary"
    if _strictly_inside(p, rings[0]) and not any(_strictly_inside(p, h) for h in rings[1:]):
        return "interior"
    return "outside"


@dataclass(frozen=True)
class Terrain:
    """Closed region: a simple outer polygon minus open polygonal holes."""

    outer: tuple[QPoint, ...]
    holes: tuple[tuple[QPoint, ...], ...] = ()
    #: the lcm D of the vertices' denominators
    _den: int = field(init=False, repr=False, compare=False)
    #: the edge rings, outer first, with vertices times D as ints
    _rings: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """One pass over all pairs of boundary edges, skipping adjacent
        edges of one polygon; the first contact names its fault.  With no
        contact, each hole's boundary lies wholly inside or wholly outside
        every other polygon (Jordan), so one vertex per hole places it."""
        polys = (self.outer,) + self.holes
        den = lcm(*(c.denominator for poly in polys for xy in poly for c in xy))
        rings = tuple(tuple(_edges(tuple(_scaled(xy, den) for xy in poly))) for poly in polys)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rings", rings)
        names = ["outer"] + [f"hole {idx}" for idx in range(len(self.holes))]
        for ring, name in zip(rings, names):
            _validate_polygon(ring, name)
        edges = [(i, k, e) for i, ring in enumerate(rings) for k, e in enumerate(ring)]
        for pos, (i, k, (a, b)) in enumerate(edges):
            for j, m, (c, d) in edges[pos + 1 :]:
                if i == j and m - k in (1, len(rings[i]) - 1):
                    continue
                if _segments_intersect(a, b, c, d):
                    if i == j:
                        raise TerrainError(f"{names[i]}: polygon is not simple")
                    if i == 0:
                        raise TerrainError(f"{names[j]} is not strictly inside the outer polygon")
                    raise TerrainError("boundary polygons touch")
        for idx, hole in enumerate(rings[1:]):
            if not _strictly_inside(hole[0][0], rings[0]):
                raise TerrainError(f"hole {idx} is not strictly inside the outer polygon")
            for other in rings[1 : idx + 1]:
                if _strictly_inside(hole[0][0], other) or _strictly_inside(other[0][0], hole):
                    raise TerrainError("nested holes")

    def _lift(self, *points: QPoint):
        """The scale D*q, where q is the points' common denominator, the
        points at that scale as ints, and the edge rings at that scale."""
        q = lcm(*(c.denominator for xy in points for c in xy))
        rings = tuple(
            tuple(((ax * q, ay * q), (bx * q, by * q)) for (ax, ay), (bx, by) in ring)
            for ring in self._rings
        )
        scale = q * self._den
        return scale, [_scaled(xy, scale) for xy in points], rings

    def classify(self, p: QPoint) -> str:
        _, (ip,), rings = self._lift(p)
        return _classify(ip, rings)

    def is_interior(self, p: QPoint) -> bool:
        return self.classify(p) == "interior"


def _validate_polygon(ring, name: str) -> None:
    """The per-polygon checks on one edge ring; crossings are found by
    ``Terrain``'s pass."""
    if len(ring) < 3:
        raise TerrainError(f"{name}: a polygon needs at least 3 vertices")
    if sum(a[0] * b[1] - b[0] * a[1] for a, b in ring) == 0:
        raise TerrainError(f"{name}: degenerate polygon")
    if any(a == b for a, b in ring):
        raise TerrainError(f"{name}: repeated consecutive vertex")


def terrain_from_json(doc: dict) -> Terrain:
    """Terrain from a ``terrain-v1`` document; a field of the wrong shape
    is a ``MalformedField`` naming its path, such as ``outer[0]``."""
    if doc.get("schema") != TERRAIN_SCHEMA:
        raise TerrainError(f"expected schema {TERRAIN_SCHEMA!r}")

    def pts(rows, path):
        check_field(rows, path, "a list of points [x, y]", is_list)
        return tuple(
            tuple(
                rational_field(c, f"{path}[{k}][{n}]")
                for n, c in enumerate(check_field(xy, f"{path}[{k}]", "a point [x, y]", is_point))
            )
            for k, xy in enumerate(rows)
        )

    holes = check_field(doc.get("holes", []), "holes", "a list of polygons", is_list)
    return Terrain(
        pts(doc.get("outer"), "outer"), tuple(pts(h, f"holes[{n}]") for n, h in enumerate(holes))
    )


def first_boundary_hit(t: Terrain, v: QPoint, u: QPoint) -> QPoint | None:
    """First boundary contact of the segment from interior point v to u.

    Contact includes tangential grazing.  Returns the closest contact
    point (smallest parameter > 0) or None when the whole segment stays
    interior.  Each edge's parameters t (along v -> u) and s (along the
    edge) are int num/den pairs with den > 0, so the least t is found by
    cross-multiplying; only the returned point is a ``Fraction``.
    """
    scale, ((vx, vy), (ux, uy)), rings = t._lift(v, u)
    if _classify((vx, vy), rings) != "interior":
        raise StartNotInterior(f"{v} is not interior")
    dx, dy = ux - vx, uy - vy
    if not (dx or dy):
        return None
    best = None  # (num, den) of the least t
    for ring in rings:
        for (ax, ay), (bx, by) in ring:
            ex, ey = bx - ax, by - ay
            wx, wy = ax - vx, ay - vy
            den = dx * ey - dy * ex
            if not den:
                # parallel: a collinear edge is first met at an end vertex,
                # which the adjacent non-parallel edge also reports
                continue
            num, s = wx * ey - wy * ex, wx * dy - wy * dx
            if den < 0:
                den, num, s = -den, -num, -s
            if 0 <= s <= den and 0 < num <= den and (best is None or num * best[1] < best[0] * den):
                best = (num, den)
    if best is None:
        return None
    num, den = best
    return (Fraction(vx * den + num * dx, den * scale), Fraction(vy * den + num * dy, den * scale))


# ---------------------------------------------------------------------------
# The countable terrain graph
# ---------------------------------------------------------------------------

class TerrainGraph(PortLabeledGraph):
    """Port-labeled view of a terrain.

    Interior rational points ``("v1", point)`` have one port per rational
    offset (infinite degree).  Port p leads to the point shifted by the
    port's offset when that segment stays interior, and otherwise to the
    boundary stub ``("v2", origin, p, hit)``, where ``hit`` is the
    segment's first boundary contact; a stub has the single return port 1.
    Each (point node, port) is followed once: its ``EdgeTraversal`` is kept
    in ``_steps``, which lives and dies with the graph.  Edge lengths are
    the constant 1: the adapter is combinatorial, the metric lives in the
    planar route.
    """

    def __init__(self, terrain: Terrain):
        self.terrain = terrain
        self._steps: dict = {}

    def is_port(self, node, p: int) -> bool:
        if node[0] == "v1":
            return p >= 1
        return p == 1

    def traverse(self, node, p: int) -> EdgeTraversal:
        if node[0] == "v2":
            if p != 1:
                raise InvalidPort(f"{p} at {node!r}")
            _, origin, out_port, _ = node
            return EdgeTraversal(node, 1, ("v1", origin), out_port, ("b", origin, out_port), _ONE)
        step = self._steps.get((node, p))
        if step is None:
            if p < 1:
                raise InvalidPort(f"{p} at {node!r}")
            point = node[1]
            off = rational_pair(p)
            target = (point[0] + off.q1, point[1] + off.q2)
            # rejects a point that is not interior, also for the zero offset
            hit = first_boundary_hit(self.terrain, point, target)
            if hit is None:
                back = rational_pair_index(-off.q1, -off.q2)
                a, b = sorted((point, target))
                step = EdgeTraversal(node, p, ("v1", target), back, ("f", a, b), _ONE)
            else:
                stub = ("v2", point, p, hit)
                step = EdgeTraversal(node, p, stub, 1, ("b", point, p), _ONE)
            self._steps[node, p] = step
        return step


# ---------------------------------------------------------------------------
# Planar routes
# ---------------------------------------------------------------------------

class PlanarSegment(NamedTuple):
    start: QPoint
    end: QPoint
    kind: str  # "free" | "bounce_out" | "bounce_back"


@dataclass
class PlanarRoute:
    """A terrain route: the graph rope on the terrain's port graph, seen
    through the embedding of each step as a planar segment.

    Nothing is stored per segment; ``embed`` renders a step on demand and
    reads a bounce point off its stub.  Step count, steps and phase marks
    are the rope's own (terrain edges have length 1).
    """

    route: Route

    #: lcm of the step lengths' denominators (``Route.length_den``):
    #: terrain steps have length 1
    length_den = 1

    @property
    def start(self) -> QPoint:
        return self.route.start[1]

    @property
    def end(self) -> QPoint:
        n = self.length
        return self.embed(self.route.step_at(n - 1)).end if n else self.start

    @property
    def length(self) -> int:
        return self.route.length

    @property
    def phase_marks(self) -> list[tuple[int, int]]:
        return self.route.phase_marks

    def steps(self) -> Iterator[EdgeTraversal]:
        return self.route.steps()

    def embed(self, step: EdgeTraversal) -> PlanarSegment:
        if step.v[0] == "v2":
            return PlanarSegment(step.u[1], step.v[3], "bounce_out")
        if step.u[0] == "v2":
            return PlanarSegment(step.u[3], step.v[1], "bounce_back")
        return PlanarSegment(step.u[1], step.v[1], "free")

    def segments(self) -> Iterator[PlanarSegment]:
        return map(self.embed, self.route.steps())

    def points(self) -> Iterator[QPoint]:
        yield self.start
        for seg in self.segments():
            yield seg.end


def _start_node(t: Terrain, start: QPoint):
    start = (Fraction(start[0]), Fraction(start[1]))
    if not t.is_interior(start):
        raise StartNotInterior(f"{start} is not interior")
    return ("v1", start)


def geometric_rv(
    t: Terrain, start: QPoint, label: int, limits: Limits
) -> PlanarRoute:
    """One agent's ``geometric_routes`` route: the graph construction run
    on the terrain's port-labeled view, seen as planar segments."""
    return geometric_routes(t, (start,), (label,), limits)[0]


def geometric_routes(
    t: Terrain, starts: Iterable[QPoint], labels: Iterable[int], limits: Limits
) -> list[PlanarRoute]:
    """Every agent's ``geometric_rv`` route, built by one ``RouteBuilder``
    on one ``TerrainGraph``, so the agents share followed ports, walks and
    phase histories.  Each start is checked just before its route."""
    builder = RouteBuilder(TerrainGraph(t), limits)
    return [
        PlanarRoute(builder.route(_start_node(t, start), label))
        for start, label in zip(starts, labels)
    ]


def audit_planar_route(t: Terrain, route: PlanarRoute) -> None:
    """Exact containment audit: every point of the route lies in the
    terrain, free segments never touch the boundary, and every bounce is
    immediately undone by its exact reverse.

    Route algebra repeats a small set of distinct segments many times, so
    the geometric checks are cached per segment value.
    """
    if not t.is_interior(route.start):
        raise TerrainError("route start is not interior")
    checked: set = set()

    def check(seg: PlanarSegment) -> None:
        if seg in checked:
            return
        if seg.kind == "bounce_out":
            if t.classify(seg.end) != "boundary":
                raise TerrainError("bounce endpoint is not on the boundary")
        elif seg.kind == "free":
            if not t.is_interior(seg.end):
                raise TerrainError(f"free endpoint {seg.end} is not interior")
            if seg.end != seg.start and first_boundary_hit(t, seg.start, seg.end) is not None:
                raise TerrainError("free segment touches the boundary")
        checked.add(seg)

    prev = route.start
    pending_bounce = None
    for seg in route.segments():
        if seg.start != prev:
            raise TerrainError("segments do not chain")
        if pending_bounce is not None:
            if seg.kind != "bounce_back" or (seg.start, seg.end) != pending_bounce:
                raise TerrainError("boundary hit not followed by its reverse")
            pending_bounce = None
        elif seg.kind == "bounce_back":
            raise TerrainError("bounce_back without a preceding hit")
        else:
            check(seg)
            if seg.kind == "bounce_out":
                pending_bounce = (seg.end, seg.start)
        prev = seg.end
    if pending_bounce is not None:
        raise TerrainError("route ends mid-bounce")

