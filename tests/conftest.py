"""Shared test worlds and oracles."""

from collections import deque
from fractions import Fraction

from tunnelmeet.enumeration import Quadruple, phi_index, rational_pair_index
from tunnelmeet.geometry import PlanarRoute, Terrain, TerrainGraph
from tunnelmeet.graph_model import build_finite_graph, random_connected_graph
from tunnelmeet.routes import route_from_steps


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


def planar_route(points):
    """The polyline through ``points`` as a planar route: its steps walk
    the terrain graph of a square so large that every step stays free."""
    r = Fraction(1000)
    gt = TerrainGraph(Terrain(((-r, -r), (r, -r), (r, r), (-r, r))))
    steps = [
        gt.traverse(("v1", a), rational_pair_index(b[0] - a[0], b[1] - a[1]))
        for a, b in zip(points, points[1:])
    ]
    return PlanarRoute(gt, route_from_steps(("v1", points[0]), steps))
