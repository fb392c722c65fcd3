import random
from operator import attrgetter

import pytest

from conftest import k2, random_walk_route
from tunnelmeet.graph_model import GraphError, random_connected_graph
from tunnelmeet.routes import (
    Route,
    _StepIds,
    concat_routes,
    dump_route,
    parse_route_dump,
    reverse_route,
    route_from_steps,
)


def test_reverse_empty():
    r = Route("A")
    rr = reverse_route(r)
    assert rr.length == 0
    assert rr.start == "A"


def test_reverse_single_edge():
    g = k2()
    r = route_from_steps("A", [g.traverse("A", 1)])
    rr = reverse_route(r)
    steps = list(rr.steps())
    assert [(s.u, s.out_port, s.v, s.in_port) for s in steps] == [("B", 1, "A", 1)]


def test_double_reverse_is_identity_on_random_routes():
    rng = random.Random(13)
    for seed in range(40):
        g = random_connected_graph(5, seed % 8)
        start = rng.choice(g.nodes)
        r = random_walk_route(g, start, rng.randint(0, 25), rng)
        rr = reverse_route(reverse_route(r))
        assert rr._root is r._root
        assert rr.start == r.start
        assert list(rr.steps()) == list(r.steps())


def test_route_followed_by_reverse_is_closed():
    rng = random.Random(17)
    g = random_connected_graph(5, 2)
    r = random_walk_route(g, g.nodes[0], 9, rng)
    rr = reverse_route(r)
    assert rr.end == r.start


def test_chaining_validated():
    g = k2()
    step = g.traverse("A", 1)
    with pytest.raises(ValueError):
        route_from_steps("B", [step])


def test_node_after_and_step_at():
    rng = random.Random(19)
    g = random_connected_graph(5, 4)
    r = random_walk_route(g, g.nodes[1], 12, rng)
    steps = list(r.steps())
    assert r.node_after(0) == r.start
    for i, step in enumerate(steps):
        assert r.step_at(i) == step
        assert r.node_after(i + 1) == step.v
    assert r.end == steps[-1].v


def test_dump_and_parse_round_trip():
    rng = random.Random(23)
    g = random_connected_graph(4, 5)
    r = random_walk_route(g, g.nodes[0], 6, rng)
    r.phase_marks = [(1, 0), (2, 2), (3, 6)]
    text = dump_route(r)
    back = parse_route_dump(text)
    assert [(s.u, s.out_port, s.v, s.in_port) for s in back.steps()] == [
        (s.u, s.out_port, s.v, s.in_port) for s in r.steps()
    ]
    assert back.phase_marks == r.phase_marks
    assert dump_route(back) == text


@pytest.mark.parametrize(
    "marker",
    [
        "# phase",
        "# phase 1 2",
        "# phase x",
        "#phase 1.5",
        "# phase 0",
        "# phase -3",
        "# phase 01",
        "# phase +1",
        "# phase 1_0",
    ],
)
def test_malformed_phase_marker_names_its_line(marker):
    # a comment whose first word is "phase" must be "# phase <k>", with an
    # int k >= 1 written as the dump writes it: phases are numbered from 1
    text = f"# start A\n{marker}\nA\t1\tB\t1\n"
    with pytest.raises(GraphError) as info:
        parse_route_dump(text)
    assert str(info.value) == f"line 2 is not a route dump line: {marker!r}"
    # other comments, "# phases" among them, are skipped
    back = parse_route_dump("# start A\n#  phase   3 \n# phases 1 2\nA\t1\tB\t1\n")
    assert back.phase_marks == [(3, 0)]


def test_empty_dump_keeps_start():
    # a generator handle such as (0, 0) and a node name may hold spaces
    for start, shown in (("A", "A"), ((0, 0), "(0, 0)"), ("a b", "a b")):
        text = dump_route(Route(start))
        assert text == f"# start {shown}\n"
        back = parse_route_dump(text)
        assert back.start == shown
        assert back.length == 0


def test_dump_without_a_start_line():
    # the route starts at its first step; with no step there is no start
    back = parse_route_dump("A\t1\tB\t1\n# phase 1\nB\t1\tA\t1\n")
    assert (back.start, back.length, back.end, back.phase_marks) == ("A", 2, "A", [(1, 1)])
    for text in ("", "# phase 1\n", "# a comment\n"):
        with pytest.raises(GraphError, match="^empty dump needs an explicit start node$"):
            parse_route_dump(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("# start B\nA\t1\tB\t1\n", "line 2 does not chain from 'B': 'A\\t1\\tB\\t1'"),
        ("A\t1\tB\t1\n\nA\t1\tB\t1\n", "line 3 does not chain from 'B': 'A\\t1\\tB\\t1'"),
        (
            "# start A\n# phase 1\nA\t1\tB\t1\nB\t1\tA\t1\nB\t1\tA\t1\n",
            "line 5 does not chain from 'A': 'B\\t1\\tA\\t1'",
        ),
    ],
)
def test_unchained_dump_names_its_line(text, line):
    with pytest.raises(GraphError) as info:
        parse_route_dump(text)
    assert str(info.value) == line


def test_deeply_nested_reversal():
    # a reversal of a reversal unwraps it, so 5,000 reversals leave the
    # leaf itself and each one costs O(1)
    g = k2()
    step = g.traverse("A", 1)
    r = route_from_steps("A", [step])
    for _ in range(5000):
        r = reverse_route(r)
    assert r.length == 1
    assert (r.start, r.end) == ("A", "B")
    assert r.step_at(0) == step
    assert list(r.steps()) == [step]


def test_step_ids_copy_shared_subtrees_in_both_orientations():
    # h is written forward first, then met under a reverse node (expanded
    # in that orientation) and forward again (a slice copy); both ends are
    # read under the same piecewise fills
    rng = random.Random(31)
    g = random_connected_graph(6, 2)
    for _ in range(20):
        a = random_walk_route(g, g.nodes[0], rng.randint(1, 40), rng)
        b = random_walk_route(g, a.end, rng.randint(1, 40), rng)
        h = concat_routes(a, b)
        r = concat_routes(h, reverse_route(h), h, reverse_route(b), b, reverse_route(h))
        table = {}
        outs, ins = _StepIds(r, table), _StepIds(r, table, in_end=True)
        steps = list(r.steps())
        out_end, in_end = attrgetter("u", "out_port"), attrgetter("v", "in_port")
        n = 0
        while n < r.length:
            n += rng.randint(1, 70)  # fill in pieces, stopping inside nodes
            for got, end in ((outs, out_end), (ins, in_end)):
                got.fill(n)
                have = len(got.ids)
                assert have >= min(n, r.length)
                assert list(got.ids) == [table[end(s)] for s in steps[:have]]
        assert len(outs.ids) == len(ins.ids) == r.length
        # each end is interned once, as the ids 0, 1, 2, ...
        assert sorted(table.values()) == list(range(len(table)))
        assert len(table) == len({end(s) for s in steps for end in (out_end, in_end)})
