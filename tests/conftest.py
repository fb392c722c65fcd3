"""Shared test worlds and oracles, and the route algebra they are written in."""

from collections import deque
from fractions import Fraction
from itertools import count, islice, product, takewhile
from random import Random
from typing import Iterable

from tunnelmeet.adversary import DEFAULT_SUITE, _lattice, detect_meeting_graph, make_schedule
from tunnelmeet.enumeration import Quadruple, phi, phi_index, rational_pair_index
from tunnelmeet.geometry import (
    PlanarRoute,
    StartNotInterior,
    Terrain,
    TerrainError,
    TerrainGraph,
    _edges,
    _on_segment,
    _segments_intersect,
    first_boundary_hit,
)
from tunnelmeet.graph_model import (
    GENERATORS,
    EdgeTraversal,
    NodeHandle,
    build_finite_graph,
    generator,
    random_connected_graph,
)
from tunnelmeet.rendezvous import Limits, RouteBuilder, tunnel_check
from tunnelmeet.routes import Route, StepBudgetExceeded, _Cat, _cat, _leaf


# ---------------------------------------------------------------------------
# The route algebra: concatenation, and reversal with every traversal
# reversed, built through the rope's own constructors
# ---------------------------------------------------------------------------

def route_from_steps(start: NodeHandle, steps: Iterable[EdgeTraversal]) -> Route:
    steps = tuple(steps)
    cur = start
    for step in steps:
        if step.u != cur:
            raise ValueError(f"route not chained at {step!r}")
        cur = step.v
    return Route(start, _leaf(steps))


def reverse_route(r: Route) -> Route:
    """The same edges in reverse order, each traversal reversed: a
    concatenation's kids in reverse order, each read the other way, or a
    leaf as one backward kid."""
    root = r._root
    if isinstance(root, _Cat):
        kids = [(node, not backward) for node, backward in reversed(root.kids)]
    else:
        kids = [(root, True)]
    return Route(r.end, _cat(*kids))


def concat_routes(first: Route, *rest: Route) -> Route:
    cur = first.end
    kids = [(first._root, False)]
    for r in rest:
        if r.start != cur:
            raise ValueError("concatenation endpoints do not chain")
        kids.append((r._root, False))
        cur = r.end
    return Route(first.start, _cat(*kids))


def reference_rv(g, v, label, cap, budget):
    """The recursion of the paper, written literally with the algebra:
    ``graph_rv``'s route and marks, with no memo, no phase table and no
    shared runs.  Phase k reads ``phi(k)``.  When it names ``label``, the
    agent walks its own port sequence from ``v`` as far as the ports go,
    giving q.  If the whole walk's entry ports, read backward, are the
    partner's sequence, the route r becomes r q s q^-1 r^-1 q s^-1 q^-1,
    s being the partner's own route of k - 1 phases from q's end;
    otherwise r q q^-1.  A route longer than ``budget`` after a phase
    raises ``StepBudgetExceeded``, as the builder does."""
    r = Route(v)
    marks = []
    for k in range(1, cap + 1):
        marks.append((k, r.length))
        quad = phi(k)
        if label == quad.i:
            mine, theirs, other = quad.s_prime, quad.s_dprime, quad.j
        elif label == quad.j:
            mine, theirs, other = quad.s_dprime, quad.s_prime, quad.i
        else:
            continue
        steps, at = [], v
        for port in mine:
            if not g.is_port(at, port):
                break
            steps.append(g.traverse(at, port))
            at = steps[-1].v
        q = route_from_steps(v, steps)
        qb = reverse_route(q)
        if len(steps) == len(mine) and tuple(st.in_port for st in reversed(steps)) == theirs:
            s = reference_rv(g, at, other, k - 1, budget)
            r = concat_routes(r, q, s, qb, reverse_route(r), q, reverse_route(s), qb)
        else:
            r = concat_routes(r, q, qb)
        if r.length > budget:
            raise StepBudgetExceeded(f"label {label} over {budget} at phase {k}", r.length, k, label)
    return Route(v, r._root, marks)


# ---------------------------------------------------------------------------
# Test worlds
# ---------------------------------------------------------------------------

def k2():
    return build_finite_graph(
        {
            "nodes": ["A", "B"],
            "edges": [{"u": "A", "pu": 1, "v": "B", "pv": 1, "len": 1}],
        }
    )


def p3():
    return build_finite_graph(
        {
            "nodes": ["A", "M", "B"],
            "edges": [
                {"u": "A", "pu": 1, "v": "M", "pv": 1, "len": 1},
                {"u": "M", "pu": 2, "v": "B", "pv": 1, "len": 1},
            ],
        }
    )


def c4():
    names = ["a", "b", "c", "d"]
    edges = [
        {"u": names[i], "pu": 1, "v": names[(i + 1) % 4], "pv": 2, "len": 1}
        for i in range(4)
    ]
    return build_finite_graph({"nodes": names, "edges": edges})


def s4():
    edges = [
        {"u": "c0", "pu": i, "v": f"l{i}", "pv": 1, "len": 1} for i in range(1, 5)
    ]
    return build_finite_graph({"nodes": ["c0", "l1", "l2", "l3", "l4"], "edges": edges})


def corpus_worlds():
    """The acceptance worlds: fixed graphs plus ten seeded randoms."""
    worlds = [("K2", k2()), ("P3", p3()), ("C4", c4()), ("S4", s4())]
    worlds += [(f"R{s}", random_connected_graph(5, s)) for s in range(10)]
    return worlds


def random_walk_route(g, start, length, rng):
    steps = []
    node = start
    for _ in range(length):
        port = rng.choice(g.ports(node))
        step = g.traverse(node, port)
        steps.append(step)
        node = step.v
    return route_from_steps(start, steps)


def prefix(r, n):
    """The route of ``r``'s first ``n`` steps."""
    return route_from_steps(r.start, islice(r.steps(), n))


def all_shortest_paths(g, v, w):
    """Every shortest path v -> w as a list of traversals (BFS oracle)."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for p in g.ports(x):
            step = g.traverse(x, p)
            if step.v not in dist:
                dist[step.v] = dist[x] + 1
                queue.append(step.v)
    if w not in dist:
        return []
    paths = []

    def back(node, acc):
        if node == v:
            paths.append(list(reversed(acc)))
            return
        for p in g.ports(node):
            step = g.traverse(node, p)
            if dist.get(step.v) == dist[node] - 1:
                back(step.v, acc + [step.reversed()])

    back(w, [])
    return paths


def true_quadruple(g, v, w, i, j):
    """Smallest-index quadruple of a shortest port path from v to w."""
    best = None
    for path in all_shortest_paths(g, v, w):
        sp = tuple(st.out_port for st in path)
        sd = tuple(st.in_port for st in reversed(path))
        q = Quadruple(i, j, sp, sd)
        k = phi_index(q)
        if best is None or k < best[0]:
            best = (k, q)
    assert best is not None, "corpus worlds are connected"
    return best


def lazy_ports(g, v):
    """The ports of node ``v`` of a generator world, which numbers a
    node's ports 1, 2, ... without gaps."""
    return list(takewhile(lambda p: g.is_port(v, p), count(1)))


def port_walks(g, v, d):
    """Every walk of ``d`` steps from ``v`` as ``(ports, end, entries)``,
    ``entries`` being the entry ports read backward; the search that
    stands in for BFS on a generator world, which has no ``ports()``."""
    walks = [((), v, ())]
    for _ in range(d):
        walks = [
            (ports + (p,), step.v, (step.in_port,) + entries)
            for ports, node, entries in walks
            for p in lazy_ports(g, node)
            for step in (g.traverse(node, p),)
        ]
    return walks


def infinite_corpus(budget=10**7):
    """Rendezvous on the generator worlds: agent one at the origin with
    label i, agent two at every node one or two steps away with label j,
    for every label pair i < j <= 3, each at its true phase and built by
    its own ``RouteBuilder``.  A record holds the routes and their tunnel
    certificate, or the ``StepBudgetExceeded`` length of the run that
    crossed the budget."""
    records = []
    for kind in ("infinite_line", "infinite_grid", "infinite_binary_tree"):
        g, origin = generator(kind), GENERATORS[kind].origin
        dist = {origin: 0}
        for d in (1, 2):  # shortest port paths to the nodes d steps away
            shortest = {}
            for ports, w, entries in port_walks(g, origin, d):
                if dist.setdefault(w, d) == d:
                    shortest.setdefault(w, []).append((ports, entries))
            for (i, j), (w, paths) in product(((1, 2), (1, 3), (2, 3)), shortest.items()):
                k = min(phi_index(Quadruple(i, j, *path)) for path in paths)
                rec = {"world": kind, "labels": (i, j), "starts": (origin, w), "phase": k}
                builder = RouteBuilder(g, Limits(k, budget))
                try:
                    r1, r2 = builder.route(origin, i), builder.route(w, j)
                except StepBudgetExceeded as exc:
                    rec.update(routes=None, over_length=exc.length, over_label=exc.label)
                else:
                    rec.update(routes=(r1, r2), cert=tunnel_check(r1, r2))
                records.append(rec)
    return records


def tunnel_bound_breaches(r1, r2, n, seeds):
    """``(cell name, seed, verdict)`` for each cell of ``DEFAULT_SUITE``
    over ``seeds``, scheduled as in criterion 3, whose first meeting comes
    later than Proposition 1's bound allows routes with an ``n``-step
    tunnel: they walk one path in opposite directions, so they meet by
    the time either agent reaches the end of its n-step prefix.  A cell
    that does not meet is a breach too."""
    for name, s1, s2 in DEFAULT_SUITE:
        for seed in seeds:
            w1, w2 = make_schedule(s1, r1, seed), make_schedule(s2, r2, seed + 10007)
            verdict = detect_meeting_graph(None, r1, r2, w1, w2)
            scales = _lattice((r1, w1), (r2, w2))
            if not verdict.met or any(
                _leaves_prefix(w, n, scales, verdict.time * scales[0]) for w in (w1, w2)
            ):
                yield name, seed, verdict


def _leaves_prefix(schedule, n, scales, end):
    """Whether the walk is past step n - 1's end strictly before lattice
    time ``end``, reading its pieces only while they start before it: a
    piece on step n or later starts then, or one on step n - 1 is at that
    step's end ``hi``."""
    for t0, t1, m, a0, a1, _, _, hi in schedule.lattice_pieces(*scales):
        if t0 >= end:
            return False
        if m >= n or m == n - 1 and (a0 == hi or a1 == hi and t1 < end):
            return True
    return False


def planar_route(points):
    """The polyline through ``points`` as a planar route: its steps walk
    the terrain graph of a square so large that every step stays free."""
    r = Fraction(1000)
    gt = TerrainGraph(Terrain(((-r, -r), (r, -r), (r, r), (-r, r))))
    steps = [
        gt.traverse(("v1", a), rational_pair_index(b[0] - a[0], b[1] - a[1]))
        for a, b in zip(points, points[1:])
    ]
    return PlanarRoute(route_from_steps(("v1", points[0]), steps))


# ---------------------------------------------------------------------------
# Fraction oracles of the int terrain kernel
# ---------------------------------------------------------------------------

def boundary_edges(t):
    """Every edge of the terrain's polygons, outer first, in ``Fraction``s."""
    for poly in (t.outer,) + t.holes:
        yield from _edges(poly)


def oracle_strictly_inside(p, poly):
    """Ray casting in ``Fraction``s, dividing for the crossing abscissa;
    p must not lie on the polygon boundary."""
    x, y = p
    inside = False
    for (ax, ay), (bx, by) in _edges(poly):
        if (ay > y) != (by > y):
            xi = ax + (y - ay) * (bx - ax) / (by - ay)
            if xi > x:
                inside = not inside
    return inside


def oracle_classify(t, p):
    """``Terrain.classify`` in ``Fraction`` arithmetic."""
    for a, b in boundary_edges(t):
        if _on_segment(p, a, b):
            return "boundary"
    if oracle_strictly_inside(p, t.outer) and not any(
        oracle_strictly_inside(p, hole) for hole in t.holes
    ):
        return "interior"
    return "outside"


def oracle_first_boundary_hit(t, v, u):
    """``first_boundary_hit`` in ``Fraction`` arithmetic (v and u hold
    ``Fraction``s): the parameters t and s are quotients and the least t
    wins."""
    if oracle_classify(t, v) != "interior":
        raise StartNotInterior(f"{v} is not interior")
    if u == v:
        return None
    dx, dy = u[0] - v[0], u[1] - v[1]
    best = None
    for a, b in boundary_edges(t):
        ex, ey = b[0] - a[0], b[1] - a[1]
        denom = dx * ey - dy * ex
        wx, wy = a[0] - v[0], a[1] - v[1]
        if denom != 0:
            tt = (wx * ey - wy * ex) / denom
            ss = (wx * dy - wy * dx) / denom
            if 0 < tt <= 1 and 0 <= ss <= 1:
                if best is None or tt < best:
                    best = tt
        else:
            if wx * dy - wy * dx != 0:
                continue  # parallel, not collinear
            dd = dx * dx + dy * dy
            ta = (wx * dx + wy * dy) / dd
            tb = ((b[0] - v[0]) * dx + (b[1] - v[1]) * dy) / dd
            lo, hi = min(ta, tb), max(ta, tb)
            if hi <= 0 or lo > 1:
                continue
            tt = max(lo, Fraction(0))
            if tt > 0 and (best is None or tt < best):
                best = tt
    if best is None:
        return None
    return (v[0] + best * dx, v[1] + best * dy)


# ---------------------------------------------------------------------------
# Fraction oracle of the lattice schedules
# ---------------------------------------------------------------------------

def oracle_pieces(route, strategy, seed):
    """The named strategy's pieces ``(t0, t1, m, a0, a1)`` in ``Fraction``
    arithmetic, as the schedules were written before they were generated
    on the integer lattice; one ``Random`` draw per value, in that order.
    On a route without steps the walk is parked at its start: for the
    ``frozen_prefix`` hold, and for the instant 0 otherwise."""
    rng = Random(f"{strategy}:{seed}")
    t = arc = Fraction(0)
    if strategy == "frozen_prefix":
        hold = Fraction(rng.randint(1, 8))
        yield (t, hold, 0, arc, arc)
        t = hold
    elif not route.length:
        yield (t, t, 0, arc, arc)
    for m, step in enumerate(route.steps()):
        length = step.length
        end = arc + length
        if strategy in ("unit_speed", "frozen_prefix"):
            t1 = t + length
            yield (t, t1, m, arc, end)
        elif strategy == "alternating-first":
            t1 = t + 2
            yield (t, t + 1, m, arc, end)
            yield (t + 1, t1, m, end, end)
        elif strategy == "alternating-second":
            t1 = t + 2
            yield (t, t + 1, m, arc, arc)
            yield (t + 1, t1, m, arc, end)
        elif strategy == "random_speeds":
            t1 = t + Fraction(rng.randint(1, 8), rng.randint(1, 8))
            yield (t, t1, m, arc, end)
        else:  # jitter: forward to 3/4 of the step, back to 1/4, on to its end
            d1, d2, d3 = (Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(3))
            fwd, back = arc + length * 3 / 4, arc + length / 4
            ta, tb, t1 = t + d1, t + d1 + d2, t + d1 + d2 + d3
            yield (t, ta, m, arc, fwd)
            yield (ta, tb, m, fwd, back)
            yield (tb, t1, m, back, end)
        t, arc = t1, end


# ---------------------------------------------------------------------------
# Rational polyline oracle: the constructive witness of the connectivity lemma
# ---------------------------------------------------------------------------

class NoPath(TerrainError):
    pass


def rational_path(t, u, v):
    """Rational polyline from u to v through the terrain's interior.

    Grid construction: partition the plane into square cells, keep the
    cells whose closure lies in the interior, and connect the two cells
    through cell centers over side-adjacency, halving the cell size until
    the endpoints connect.  Interior path-connectivity of the supported
    terrains makes this terminate for interior rational endpoints.
    """
    u = (Fraction(u[0]), Fraction(u[1]))
    v = (Fraction(v[0]), Fraction(v[1]))
    for name, p in (("u", u), ("v", v)):
        if not t.is_interior(p):
            raise StartNotInterior(f"{name}={p} is not interior")
    if u == v:
        return [u]
    if first_boundary_hit(t, u, v) is None:
        return [u, v]
    xs = [x for x, _ in t.outer]
    ys = [y for _, y in t.outer]
    delta = Fraction(1, 4)
    while delta >= Fraction(1, 1 << 14):
        path = _grid_path(t, u, v, delta, (min(xs), min(ys), max(xs), max(ys)))
        if path is not None:
            return path
        delta /= 2
    raise NoPath(f"no interior grid path from {u} to {v}")


def _cell_ok(t, delta, cell, cache):
    ok = cache.get(cell)
    if ok is None:
        x0 = cell[0] * delta
        y0 = cell[1] * delta
        x1, y1 = x0 + delta, y0 + delta
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        ok = all(t.is_interior(c) for c in corners)
        if ok:
            sides = tuple(
                (corners[k], corners[(k + 1) % 4]) for k in range(4)
            )
            for a, b in boundary_edges(t):
                if any(_segments_intersect(a, b, s0, s1) for s0, s1 in sides):
                    ok = False
                    break
                if ok and x0 < a[0] < x1 and y0 < a[1] < y1:
                    ok = False
                    break
        cache[cell] = ok
    return ok


def _grid_path(t, u, v, delta, bbox):
    def cell_of(p):
        return (p[0] // delta, p[1] // delta)

    min_cx = int(bbox[0] // delta) - 1
    max_cx = int(bbox[2] // delta) + 1
    min_cy = int(bbox[1] // delta) - 1
    max_cy = int(bbox[3] // delta) + 1
    cu, cv = cell_of(u), cell_of(v)
    cache: dict = {}
    if not (_cell_ok(t, delta, cu, cache) and _cell_ok(t, delta, cv, cache)):
        return None
    parent = {cu: None}
    queue = [cu]
    qi = 0
    while qi < len(queue):
        cell = queue[qi]
        qi += 1
        if cell == cv:
            break
        cx, cy = cell
        for nxt in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
            if nxt in parent:
                continue
            if not (min_cx <= nxt[0] <= max_cx and min_cy <= nxt[1] <= max_cy):
                continue
            if _cell_ok(t, delta, nxt, cache):
                parent[nxt] = cell
                queue.append(nxt)
    if cv not in parent:
        return None
    half = delta / 2
    centers = []
    cell = cv
    while cell is not None:
        centers.append((cell[0] * delta + half, cell[1] * delta + half))
        cell = parent[cell]
    centers.reverse()
    path = [u] + centers + [v]
    return _dedupe(path)


def _dedupe(points):
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def path_port_sequences(path):
    """Forward and reverse port sequences of a rational polyline, as seen
    by agents walking it in the terrain graph."""
    fwd = []
    rev = []
    for a, b in zip(path, path[1:]):
        fwd.append(rational_pair_index(b[0] - a[0], b[1] - a[1]))
        rev.append(rational_pair_index(a[0] - b[0], a[1] - b[1]))
    return tuple(fwd), tuple(reversed(rev))
