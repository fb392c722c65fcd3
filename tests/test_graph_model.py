import json
import random
from collections import deque
from fractions import Fraction

import pytest

from conftest import k2
from tunnelmeet.graph_model import (
    GENERATORS,
    DanglingEdge,
    Disconnected,
    DuplicatePort,
    GraphError,
    InvalidPort,
    UnknownNode,
    build_finite_graph,
    generator,
    is_int,
    is_object,
    is_point,
    parse_rational,
    random_connected_graph,
)


def test_k2_ports():
    g = k2()
    assert g.is_port("A", 1)
    assert not g.is_port("A", 2)
    step = g.traverse("A", 1)
    assert (step.v, step.in_port) == ("B", 1)
    assert step.length == 1


def test_unknown_node_and_invalid_port():
    g = k2()
    with pytest.raises(UnknownNode):
        g.is_port("Z", 1)
    with pytest.raises(InvalidPort):
        g.traverse("A", 2)


def test_is_port_agrees_with_adjacency_table():
    for seed in range(20):
        g = random_connected_graph(5, seed)
        table = {v: set(g.ports(v)) for v in g.nodes}
        for v in g.nodes:
            for p in range(1, 8):
                assert g.is_port(v, p) == (p in table[v])


def test_traverse_symmetry_sweep():
    rng = random.Random(5)
    for seed in range(10):
        g = random_connected_graph(5, seed)
        for _ in range(100):
            v = rng.choice(g.nodes)
            p = rng.choice(g.ports(v))
            step = g.traverse(v, p)
            back = g.traverse(step.v, step.in_port)
            assert (back.v, back.in_port) == (v, p)
            assert back.edge_id == step.edge_id
            assert back.length == step.length


def test_builder_rejections():
    with pytest.raises(DuplicatePort):
        build_finite_graph(
            {
                "nodes": ["A", "B", "C"],
                "edges": [
                    {"u": "A", "pu": 1, "v": "B", "pv": 1},
                    {"u": "A", "pu": 1, "v": "C", "pv": 1},
                ],
            }
        )
    with pytest.raises(Disconnected):
        build_finite_graph(
            {
                "nodes": ["A", "B", "C", "D"],
                "edges": [
                    {"u": "A", "pu": 1, "v": "B", "pv": 1},
                    {"u": "C", "pu": 1, "v": "D", "pv": 1},
                ],
            }
        )
    with pytest.raises(DanglingEdge):
        build_finite_graph(
            {"nodes": ["A"], "edges": [{"u": "A", "pu": 1, "v": "X", "pv": 1}]}
        )


def test_infinite_line_convention():
    line = generator("infinite_line")
    origin = GENERATORS["infinite_line"].origin
    assert origin == 0
    for p in (1, 2):
        assert line.is_port(origin, p)
    assert not line.is_port(origin, 3)
    assert line.traverse(0, 1).v == 1
    assert line.traverse(0, 2).v == -1
    # repeated port 1 visits pairwise distinct handles
    seen = set()
    node = 0
    for _ in range(100):
        node = line.traverse(node, 1).v
        assert node not in seen
        seen.add(node)


def test_infinite_grid_convention():
    grid = generator("infinite_grid", Fraction(1, 3))
    x = GENERATORS["infinite_grid"].origin
    targets = {1: (1, 0), 2: (0, 1), 3: (-1, 0), 4: (0, -1)}
    for p, w in targets.items():
        step = grid.traverse(x, p)
        assert step.v == w
        assert step.length == Fraction(1, 3)
        back = grid.traverse(step.v, step.in_port)
        assert back.v == x
    assert not grid.is_port(x, 5)


def test_binary_tree_radius_three():
    tree = generator("infinite_binary_tree")
    root = GENERATORS["infinite_binary_tree"].origin
    seen = {root}
    frontier = deque([(root, 0)])
    while frontier:
        node, d = frontier.popleft()
        if d == 3:
            continue
        for p in (1, 2, 3):
            if not tree.is_port(node, p):
                continue
            other = tree.traverse(node, p).v
            if other not in seen:
                seen.add(other)
                frontier.append((other, d + 1))
    # 1 + 2 + 4 + 8 nodes within three hops of the root
    assert len(seen) == 15
    # parent links go back where they came from
    leaf = tree.traverse(tree.traverse(root, 1).v, 2).v
    parent = tree.traverse(leaf, 3)
    assert parent.v == tree.traverse(root, 1).v
    assert parent.in_port == 2


def test_generator_determinism():
    a = generator("infinite_grid")
    b = generator("infinite_grid")
    for p in (1, 2, 3, 4):
        assert a.traverse((3, -2), p) == b.traverse((3, -2), p)


def _as_written(node):
    """A node handle as a scenario writes it: JSON has lists, not tuples."""
    return json.loads(json.dumps(node))


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_generator_handle_accepts_its_origin_and_the_nodes_next_to_it(kind):
    g = generator(kind)
    _, fits = g.handle
    assert g.origin == GENERATORS[kind].origin
    assert fits(g.origin) and fits(_as_written(g.origin))
    near = [g.traverse(g.origin, p).v for p in range(1, 6) if g.is_port(g.origin, p)]
    assert near
    for node in near:
        assert fits(_as_written(node)), node


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_generator_handle_rejects_a_bool_and_a_float(kind):
    g = generator(kind)
    _, fits = g.handle
    node = _as_written(g.traverse(g.origin, 1).v)
    bad = [True, 0.5]
    if isinstance(node, list):  # the same in place of a coordinate
        bad += [[True, *node[1:]], [0.5, *node[1:]]]
    for value in bad:
        assert not fits(value), value


@pytest.mark.parametrize(
    "shape,yes,no",
    [
        (is_int, [0, -3, 10**30], [True, 0.5, "1", None]),
        (is_object, [{}, {"a": 1}], [[], "x", None]),
        (is_point, [[0, 0], ["1/2", 3], (1, 2)], [[0], [0, 0, 0], {"x": 0, "y": 0}, "xy"]),
    ],
)
def test_json_shapes(shape, yes, no):
    assert all(map(shape, yes))
    assert not any(map(shape, no))


@pytest.mark.parametrize(
    "value,want",
    [(7, 7), (Fraction(2, 3), Fraction(2, 3)), ("-3", -3), ("+4/6", Fraction(2, 3))],
)
def test_parse_rational_accepts_the_documented_forms(value, want):
    assert parse_rational(value) == want


@pytest.mark.parametrize(
    "value",
    [True, 0.5, "0.5", "1e5", "5e-1", "1e10000000", "1_000", " 1/2", "1/2\n", "1/-2", "5/0", "٣"],
)
def test_parse_rational_rejects_every_other_form(value):
    with pytest.raises(GraphError, match="not an exact rational"):
        parse_rational(value)
