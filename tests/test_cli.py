import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_first_boundary_hit
from tunnelmeet.adversary import DEFAULT_SUITE
from tunnelmeet.cli import main
from tunnelmeet.enumeration import rational_pair
from tunnelmeet.geometry import Terrain, geometric_rv
from tunnelmeet.graph_model import load_graph_json, random_connected_graph
from tunnelmeet.rendezvous import Limits, RouteBuilder, graph_rv, tunnel_check
from tunnelmeet.routes import StepBudgetExceeded, dump_route, parse_route_dump

SCENARIOS = resources.files("tunnelmeet") / "scenarios"


def scenario_path(name: str) -> str:
    return str(SCENARIOS / f"{name}.json")


def write_scenario(tmp_path: Path, doc: dict, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_k2_meets_on_all_strategies(tmp_path):
    out = tmp_path / "verdict.json"
    rc = main(["run", scenario_path("k2"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "verdict-v1"
    assert doc["all_met"] is True
    strategies = {c["strategy"] for c in doc["cells"]}
    assert strategies == {
        "unit_speed",
        "alternating",
        "random_speeds",
        "jitter",
        "frozen_prefix",
    }
    assert all(c["met"] for c in doc["cells"])


def test_run_disconnected_graph_exits_two(tmp_path, capsys):
    doc = {
        "schema": "scenario-v1",
        "world": {
            "kind": "graph",
            "graph": {
                "schema": "graph-v1",
                "nodes": ["A", "B", "C", "D"],
                "edges": [
                    {"u": "A", "pu": 1, "v": "B", "pv": 1, "len": "1/1"},
                    {"u": "C", "pu": 1, "v": "D", "pv": 1, "len": "1/1"},
                ],
            },
        },
        "agents": [{"label": 1, "start": "A"}, {"label": 2, "start": "C"}],
        "limits": {"phase_cap": 1},
    }
    rc = main(["run", write_scenario(tmp_path, doc)])
    assert rc == 2
    assert "Disconnected" in capsys.readouterr().err


def test_run_hole_approx_small_epsilon(tmp_path):
    base = json.loads((SCENARIOS / "hole.json").read_text())
    base["epsilon"] = "1/100"
    out = tmp_path / "verdict.json"
    rc = main(["run", write_scenario(tmp_path, base), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["within_epsilon"] is True
    num, den = doc["worst_min_distance_sq"].split("/")
    assert Fraction(int(num), int(den)) <= Fraction(1, 100) ** 2


# approx's starts are 1/4 apart; each cell's least squared distance at
# phase cap 1, by (strategy, seed): "0/1" where the agents meet
_APPROX_CAP1_CELLS = {
    ("unit_speed", 0): "1/16",
    ("unit_speed", 1): "1/16",
    ("alternating", 0): "0/1",
    ("alternating", 1): "0/1",
    ("random_speeds", 0): "1/1600",
    ("random_speeds", 1): "1/16",
    ("jitter", 0): "1/64",
    ("jitter", 1): "81/16384",
    ("frozen_prefix", 0): "1/16",
    ("frozen_prefix", 1): "0/1",
}


@pytest.mark.parametrize("cap", [0, 1])
def test_run_approx_epsilon_with_a_nonzero_gap(tmp_path, cap):
    # the worst cell keeps the starts' gap, 1/16 = (1/4)^2: within an
    # epsilon of 1/4 (the bound is inclusive), outside one just below it
    doc = json.loads((SCENARIOS / "approx.json").read_text())
    for epsilon, rc in (("1/4", 0), ("255/1024", 1)):
        doc["epsilon"] = epsilon
        out = tmp_path / "verdict.json"
        argv = ["run", write_scenario(tmp_path, doc), "--phase-cap", str(cap), "--out", str(out)]
        assert main(argv) == rc
        report = json.loads(out.read_text())
        assert report["worst_min_distance_sq"] == "1/16"
        assert report["within_epsilon"] is (rc == 0)
        cells = {(c["strategy"], c["seed"]): c["min_distance_sq"] for c in report["cells"]}
        assert all(c["met"] == (c["min_distance_sq"] == "0/1") for c in report["cells"])
        if cap:
            assert cells == _APPROX_CAP1_CELLS
        else:
            assert set(cells.values()) == {"1/16"}


def test_run_rejects_duplicate_labels(tmp_path, capsys):
    base = json.loads((SCENARIOS / "k2.json").read_text())
    base["agents"][1]["label"] = 1
    rc = main(["run", write_scenario(tmp_path, base)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioError: agents[1].label must be distinct")
    assert err.count("\n") == 1


def _set_edge_len(doc, value):
    doc["world"]["graph"]["edges"][0]["len"] = value


def _set_terrain_x(doc, value):
    doc["world"]["terrain"]["holes"][0][1][0] = value


def _set_outer_x(doc, value):
    doc["world"]["terrain"]["outer"][1][0] = value


#: the path that the error line names for each edit
_EDITED_FIELD = {
    _set_edge_len: "world.graph.edges[0].len",
    _set_terrain_x: "world.terrain.holes[0][1][0]",
    _set_outer_x: "world.terrain.outer[1][0]",
}


@pytest.mark.parametrize(
    "name,edit,value",
    [
        ("k2", _set_edge_len, "1/0"),
        ("k2", _set_edge_len, "one"),
        ("hole", _set_terrain_x, "5/0"),
        ("hole", _set_terrain_x, "5/8x"),
        ("k2", _set_edge_len, "1e5"),
        ("hole", _set_terrain_x, "5e-1"),
        ("hole", _set_terrain_x, "0.5"),
        ("k2", _set_edge_len, "1_000"),
        ("hole", _set_outer_x, "1.0"),
        pytest.param("hole", _set_outer_x, "1" * 4301, id="past-the-int-digit-limit"),
    ],
)
def test_run_rejects_bad_rationals(tmp_path, capsys, name, edit, value):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    edit(doc, value)
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    field = _EDITED_FIELD[edit]
    assert err == f"error: ScenarioError: {field} must be an exact rational, got {value!r}\n"


@pytest.mark.parametrize("seeds", ["ab", [0, "1"], [True], 3])
def test_run_rejects_bad_seeds(tmp_path, capsys, seeds):
    doc = json.loads((SCENARIOS / "k2.json").read_text())
    doc["adversary"]["seeds"] = seeds
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioError: adversary.seeds ")
    assert err.count("\n") == 1


_DELETE = object()


def _edited(name, keys, value):
    """A shipped scenario (or an infinite-line one) with one field set or
    deleted; deleting an absent key leaves the document as it is."""
    if name == "line":
        doc = {
            "schema": "scenario-v1",
            "world": {"kind": "generator", "name": "infinite_line"},
            "agents": [{"label": 1, "start": 0}, {"label": 2, "start": "origin"}],
            "limits": {"phase_cap": 1},
        }
    else:
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    *outer, last = keys
    target = doc
    for key in outer:
        target = target[key]
    if value is not _DELETE:
        target[last] = value
    elif isinstance(target, list) or last in target:  # nothing to delete otherwise
        del target[last]
    return doc


@pytest.mark.parametrize(
    "keys,value,field",
    [
        (("world",), 5, "world"),
        (("limits",), "x", "limits"),
        (("adversary",), 5, "adversary"),
        (("agents",), [5, 6], "agents[0]"),
        (("adversary", "strategies"), "unit_speed", "adversary.strategies"),
        (("adversary", "strategies"), ["unit_speed", 3], "adversary.strategies"),
        (("limits", "phase_cap"), 2.7, "limits.phase_cap"),
        (("limits", "phase_cap"), True, "limits.phase_cap"),
        (("limits", "step_budget"), "100", "limits.step_budget"),
        (("limits", "phase_cap"), -2, "limits.phase_cap"),
        (("limits", "step_budget"), -2, "limits.step_budget"),
        (("limits", "step_budget"), 0, "limits.step_budget"),
        (("adversary", "seeds"), [], "adversary.seeds"),
        (("adversary", "strategies"), [], "adversary.strategies"),
        (("adversary", "strategies"), ["sprint"], "adversary.strategies"),
        (("world", "kind"), "mesh", "world.kind"),
        (("limits", "phase_cap"), _DELETE, "limits.phase_cap"),
        (("epsilon",), "1/100", "epsilon"),
    ],
)
def test_run_rejects_bad_scenario_shapes(tmp_path, capsys, keys, value, field):
    doc = _edited("k2", keys, value)
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ScenarioError: {field} must be ")
    assert err.count("\n") == 1


_MALFORMED = [  # (doc, the field named before "must be"); ids as before
    (_edited("k2", ("agents", 0, "start"), ["A"]), "agents[0].start"),
    (_edited("k2", ("agents", 1, "start"), {"a": 1}), "agents[1].start"),
    (_edited("line", ("agents", 0, "start"), "x"), "agents[0].start"),
    (_edited("line", ("world", "name"), "infinite_grid"), "agents[0].start"),
    (_edited("line", ("world", "name"), _DELETE), "world.name"),
    (_edited("k2", ("world", "graph"), _DELETE), "world.graph"),
    (_edited("square", ("world", "terrain"), _DELETE), "world.terrain"),
    (_edited("square", ("agents", 0, "start"), ["1/2"]), "agents[0].start"),
    (_edited("square", ("agents", 1, "start"), ["1/2", "x"]), "agents[1].start[1]"),
    (_edited("hole", ("epsilon",), [1]), "epsilon"),
    (_edited("k2", ("world", "graph", "edges", 0, "pu"), "1"), "world.graph.edges[0].pu"),
    (_edited("k2", ("world", "graph", "edges", 0, "pu"), _DELETE), "world.graph.edges[0].pu"),
    (_edited("k2", ("world", "graph", "nodes", 0), ["A"]), "world.graph.nodes[0]"),
    (_edited("k2", ("world", "graph", "nodes"), _DELETE), "world.graph.nodes"),
    (_edited("k2", ("world", "graph", "edges"), 5), "world.graph.edges"),
    (_edited("square", ("world", "terrain", "outer"), 5), "world.terrain.outer"),
    (_edited("square", ("world", "terrain", "outer"), _DELETE), "world.terrain.outer"),
    (
        _edited("square", ("world", "terrain", "outer", 0), ["0/1"]),
        "world.terrain.outer[0]",
    ),
    (_edited("square", ("world", "terrain", "holes"), 5), "world.terrain.holes"),
    (_edited("square", ("agents", 0, "start"), ["5e-1", "1/2"]), "agents[0].start[0]"),
    (_edited("k2", ("agents", 0, "label"), True), "agents[0].label"),  # a bool is an int
    (_edited("k2", ("agents", 1, "label"), "2"), "agents[1].label"),
    (_edited("k2", ("agents", 0, "start"), "Z"), "agents[0].start"),
    (_edited("approx", ("epsilon",), "0"), "epsilon"),
    (_edited("line", ("world", "unit_length"), 0), "world.unit_length"),
    (_edited("line", ("world", "unit_length"), "-1"), "world.unit_length"),
    (_edited("line", ("world", "unit_length"), "1/0"), "world.unit_length"),
]
# node names a route dump line cannot carry: a comment, an empty field, a
# tab or line break inside, whitespace outside
_UNDUMPABLE = ["#B", "", "B\tC", "B\nC", "B\u2028C", "B\x1cC", " B", "B "]
_MALFORMED += [
    (_edited("k2", keys, name), field)
    for name in _UNDUMPABLE
    for keys, field in (
        (("world", "graph", "nodes", 1), "world.graph.nodes[1]"),
        (("world", "graph", "edges", 0, "v"), "world.graph.edges[0].v"),
        (("agents", 1, "start"), "agents[1].start"),
    )
]
_NOT_INTERIOR = [  # (doc, the field and the start named before "is not interior")
    (_edited("square", ("agents", 1, "start"), ["3/2", "1/2"]), 'agents[1].start ["3/2", "1/2"]'),
    (_edited("hole", ("agents", 0, "start"), ["1/2", 1]), 'agents[0].start ["1/2", "1/1"]'),
]


@pytest.mark.parametrize(
    "doc,field,says",
    [
        pytest.param(doc, field, "must be ", id=f"doc{i}-{field}")
        for i, (doc, field) in enumerate(_MALFORMED)
    ]
    + [
        pytest.param(doc, field, "is not interior\n", id=f"not-interior-{i}")
        for i, (doc, field) in enumerate(_NOT_INTERIOR)
    ],
)
def test_run_malformed_field_exits_two_naming_its_path(tmp_path, capsys, doc, field, says):
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ScenarioError: {field} {says}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "start,flags,field",
    [
        ("A", ["--phase-cap", "-3"], "limits.phase_cap"),
        ("A", ["--step-budget", "0"], "limits.step_budget"),
        ("Z", ["--phase-cap", "0"], "agents[0].start"),  # no route step reads the start
    ],
)
def test_run_flags_do_not_bypass_field_checks(tmp_path, capsys, start, flags, field):
    doc = _edited("k2", ("agents", 0, "start"), start)
    assert main(["run", write_scenario(tmp_path, doc), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ScenarioError: {field} must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["k2", "square"])
def test_empty_routes_meet_at_a_shared_start(tmp_path, name):
    # at phase cap 0 both routes are empty: each agent is parked at its start
    def cells(doc, rc):
        out = tmp_path / "report.json"
        argv = ["run", write_scenario(tmp_path, doc), "--phase-cap", "0", "--out", str(out)]
        assert main(argv) == rc
        return json.loads(out.read_text())["cells"]

    apart = json.loads((SCENARIOS / f"{name}.json").read_text())
    shared = _edited(name, ("agents", 1, "start"), apart["agents"][0]["start"])
    met = cells(shared, 0)
    assert len(met) == 10 and all(c["met"] and c["time"] == "0/1" for c in met)
    gap = {"k2": None, "square": "1/4"}[name]  # the squared distance of the starts
    assert all(not c["met"] and c.get("min_distance_sq") == gap for c in cells(apart, 1))


@pytest.mark.parametrize("agent", [0, 1])
def test_route_non_interior_start_names_its_field(tmp_path, capsys, agent):
    doc = _edited("square", ("agents", agent, "start"), ["3/2", "1/2"])
    assert main(["route", write_scenario(tmp_path, doc), "--agent", str(agent)]) == 2
    err = capsys.readouterr().err
    assert err == f'error: ScenarioError: agents[{agent}].start ["3/2", "1/2"] is not interior\n'


def _paths(node, prefix):
    """``prefix`` and every path below it into a JSON value."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


_WORLD_FIELDS = [
    (name, keys)
    for name in ("k2", "square")
    for keys in _paths(json.loads((SCENARIOS / f"{name}.json").read_text())["world"], ("world",))
]
_RATIONAL_TEXT = st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 4))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | _RATIONAL_TEXT,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    st.sampled_from(_WORLD_FIELDS),
    st.just(_DELETE) | _RATIONAL_TEXT | st.integers(-1, 2) | _JSON,
)
def test_fuzzed_world_field_exits_zero_one_or_two(field, value):
    """Any JSON (or nothing) at any path of a graph or terrain world: no
    exception escapes ``main``, a malformed world is one ``error:`` line
    with exit 2, and a run that ends 0 or 1 has written its report."""
    doc = _edited(*field, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(
                ["run", write_scenario(Path(tmp), doc), "--phase-cap", "2", "--out", str(out)]
            )
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert json.loads(out.read_text())["schema"] == "verdict-v1"


_SCENARIO_FIELDS = [
    (name, keys)
    for name in ("k2", "square")
    for keys in (
        ("agents", 0, "label"),
        ("agents", 1, "label"),
        ("limits", "phase_cap"),
        ("limits", "step_budget"),
        ("adversary", "seeds"),
        ("adversary", "strategies"),
        ("epsilon",),
    )
]
# Every int drawn lies in -2..40.  An int lands as a phase cap or a label,
# and the rope doubles at every confirmed hypothesis: square's routes cross
# the 10^7-step budget at phase 56, and a cell that does not meet walks
# its route to the end.  Up to 40 covers the shipped caps (1 and 33) and
# keeps every example to milliseconds.
_SMALL_INT = st.integers(-2, 40)
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL_INT | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | _RATIONAL_TEXT | st.sampled_from([row[0] for row in DEFAULT_SUITE]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.sampled_from(_SCENARIO_FIELDS), st.just(_DELETE) | _SMALL_JSON)
def test_fuzzed_scenario_field_exits_zero_one_or_two(field, value):
    """Any JSON (or nothing) at a label, a limit, the adversary's seeds or
    strategies, or epsilon: no exception escapes ``main``, a malformed
    field is one ``error:`` line with exit 2, an exceeded budget one with
    exit 4, and a run that ends 0 or 1 has written its report."""
    doc = _edited(*field, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", write_scenario(Path(tmp), doc), "--out", str(out)])
        assert rc in (0, 1, 2, 4)
        if rc in (2, 4):
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert json.loads(out.read_text())["schema"] == "verdict-v1"


K2_ROUTE_DUMP = (
    "# start A\n"
    "# phase 1\n"
    "A\t1\tB\t1\n"
    "B\t1\tA\t1\n"
    "A\t1\tB\t1\n"
    "B\t1\tA\t1\n"
)


def test_route_dump_matches_golden(tmp_path):
    out = tmp_path / "route.txt"
    rc = main(["route", scenario_path("k2"), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == K2_ROUTE_DUMP


def test_route_zero_phases_emits_header_only(tmp_path):
    out = tmp_path / "route.txt"
    rc = main(["route", scenario_path("k2"), "--phase-cap", "0", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "# start A\n"


def test_route_budget_guard_exits_one(tmp_path, capsys):
    # over budget has its own exit code, 4, apart from "not met" (1)
    rc = main(
        ["route", scenario_path("k2"), "--phase-cap", "500", "--step-budget", "9999"]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: StepBudgetExceeded: ")
    assert main(["run", scenario_path("square"), "--step-budget", "10"]) == 4
    assert capsys.readouterr().err.startswith("error: StepBudgetExceeded: ")


@pytest.mark.parametrize("seeds", ["x", []])
def test_route_rejects_what_run_rejects(tmp_path, capsys, seeds):
    doc = _edited("k2", ("adversary", "seeds"), seeds)
    assert main(["route", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioError: adversary.seeds must be ")
    assert err.count("\n") == 1


def test_internal_error_exits_three_with_its_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("a library fault")

    monkeypatch.setattr("tunnelmeet.cli.verify_rendezvous", broken)
    assert main(["run", scenario_path("k2")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: a library fault\n")


@pytest.mark.parametrize(
    "argv,path",
    [
        (["run", scenario_path("k2"), "--out", "/no/such/dir/out.json"], "/no/such/dir/out.json"),
        (["enumerate", "--end", "1", "--out", "/no/such/dir/out.txt"], "/no/such/dir/out.txt"),
        (["run", "/no/such/scenario.json"], "/no/such/scenario.json"),
        (["route", "/no/such/scenario.json"], "/no/such/scenario.json"),
        (["tunnel", "/no/such/r1.txt", "/no/such/r2.txt"], "/no/such/r1.txt"),
    ],
)
def test_unusable_path_exits_two_naming_it(capsys, argv, path):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ScenarioError: {path}: cannot ")
    assert err.count("\n") == 1


def test_tunnel_command(tmp_path, capsys):
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert main(["route", scenario_path("k2"), "--out", str(r1)]) == 0
    assert main(["route", scenario_path("k2"), "--agent", "1", "--out", str(r2)]) == 0
    assert main(["tunnel", str(r1), str(r2)]) == 0
    assert capsys.readouterr().out == "tunnel n=1\n"
    # the certificate length is symmetric under swapping the inputs
    assert main(["tunnel", str(r2), str(r1)]) == 0
    assert capsys.readouterr().out == "tunnel n=1\n"


def test_tunnel_malformed_dump_names_its_line(tmp_path, capsys):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text("# start a\na\t1\tb\t1\n", encoding="utf-8")
    bad.write_text("# start a\na\t1\tb\t1\nb\t1\ta\n", encoding="utf-8")
    assert main(["tunnel", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: GraphError: {bad}: line 3 is not a route dump line: 'b\\t1\\ta'\n"


@pytest.mark.parametrize("port", ["1_0", "+1", " 1", "0", "-1", "01", "\u0661"])
def test_tunnel_rejects_a_port_the_dump_does_not_write(tmp_path, capsys, port):
    # a port field is an int of at least 1 written as str() writes it
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text("# start a\na\t1\tb\t1\n", encoding="utf-8")
    line = f"a\t{port}\tb\t1"
    bad.write_text(f"# start a\n{line}\n", encoding="utf-8")
    assert main(["tunnel", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: GraphError: {bad}: line 2 is not a route dump line: {line!r}\n"


def test_tunnel_unchained_dump_names_its_line(tmp_path, capsys):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text("# start A\nA\t1\tB\t1\n", encoding="utf-8")
    bad.write_text("# start B\nA\t1\tB\t1\n", encoding="utf-8")
    assert main(["tunnel", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: GraphError: {bad}: line 2 does not chain from 'B': 'A\\t1\\tB\\t1'\n"
    )


def _graph_scenario(nodes, edges, starts):
    """A two-agent ``scenario-v1`` on a ``graph-v1`` world, at phase cap 6."""
    return {
        "schema": "scenario-v1",
        "world": {
            "kind": "graph",
            "graph": {"schema": "graph-v1", "nodes": nodes, "edges": edges},
        },
        "agents": [{"label": 1, "start": starts[0]}, {"label": 2, "start": starts[1]}],
        "limits": {"phase_cap": 6},
    }


def _edge(u, pu, v, pv, length=1):
    return {"u": u, "pu": pu, "v": v, "pv": pv, "len": length}


@pytest.mark.parametrize(
    "nodes,edges,err",
    [
        (["A", "A"], [_edge("A", 1, "B", 1)], "GraphError: duplicate node names"),
        (["A", "1", 1], [_edge("A", 1, "B", 1)], "GraphError: duplicate node names"),
        (["A", "B"], [_edge("A", 1, "B", 1, "0")], "GraphError: edge 0: non-positive length"),
        (["A", "B"], [_edge("A", 1, "B", 1, "-1/2")], "GraphError: edge 0: non-positive length"),
        (["A", "B"], [_edge("A", 0, "B", 1)], "GraphError: edge 0: ports must be positive"),
        (["A", "B"], [_edge("A", 1, "B", -1)], "GraphError: edge 0: ports must be positive"),
        (
            ["A", "B"],
            [_edge("A", 1, "B", 1), _edge("B", 2, "B", 3)],
            "GraphError: edge 1: self-loops are not supported",
        ),
        (
            ["A", "B"],
            [_edge("A", 1, "B", 1), _edge("A", 2, "B", 1)],
            "DuplicatePort: port 1 reused at node 'B'",
        ),
    ],
)
def test_run_rejects_each_graph_fault(tmp_path, capsys, nodes, edges, err):
    doc = _graph_scenario(nodes, edges, ["A", "B"])
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_route_dumps_carry_every_accepted_node_name(tmp_path, capsys):
    # inner spaces, non-ASCII, a "#" past the first character and ints: a
    # dump names each node as str() does, and tunnel reads both dumps to
    # the n of the routes themselves
    nodes = ["a b", "Ωß", 7, "x#y"]
    edges = [_edge("a b", 1, "Ωß", 1), _edge("Ωß", 2, 7, 1), _edge(7, 2, "x#y", 1)]
    edges.append(_edge("x#y", 2, "a b", 2, "1/2"))
    doc = _graph_scenario(nodes, edges, nodes[:2])
    path = write_scenario(tmp_path, doc)
    builder = RouteBuilder(load_graph_json(doc["world"]["graph"]), Limits(6))
    routes = [builder.route(nodes[0], 1), builder.route(nodes[1], 2)]
    dumps = []
    for agent, route in enumerate(routes):
        out = tmp_path / f"route{agent}.txt"
        assert main(["route", path, "--agent", str(agent), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        back = parse_route_dump(text)
        assert dump_route(back) == text
        assert [(s.u, s.out_port, s.v, s.in_port) for s in back.steps()] == [
            (str(s.u), s.out_port, str(s.v), s.in_port) for s in route.steps()
        ]
        dumps.append(str(out))
    cert = tunnel_check(*routes)
    assert cert is not None
    capsys.readouterr()
    assert main(["tunnel", *dumps]) == 0
    assert capsys.readouterr().out == f"tunnel n={cert.n}\n"


@pytest.mark.parametrize("marker", ["# phase", "# phase 1 2", "# phase 0", "# phase -3"])
def test_tunnel_malformed_phase_marker_exits_two(tmp_path, capsys, marker):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    good.write_text("# start a\na\t1\tb\t1\n", encoding="utf-8")
    bad.write_text(f"# start a\n{marker}\na\t1\tb\t1\n", encoding="utf-8")
    assert main(["tunnel", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: GraphError: {bad}: line 2 is not a route dump line: {marker!r}\n"


def test_tunnel_disjoint_routes(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("# start a\na\t1\tb\t1\n", encoding="utf-8")
    b.write_text("# start c\nc\t1\td\t1\n", encoding="utf-8")
    assert main(["tunnel", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "none\n"


def test_enumerate_matches_golden_head(capsys):
    golden = json.loads(
        resources.files("tunnelmeet").joinpath("data/enum_v1.json").read_text()
    )
    assert main(["enumerate", "--kind", "phi", "--end", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split("\t")[1] for ln in lines] == golden["phi_head"]
    assert main(["enumerate", "--kind", "zpair", "--end", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split("\t")[1] for ln in lines] == golden["zpair_head"]


@pytest.mark.parametrize("kind", ["phi", "zpair"])
def test_enumerate_rejects_a_start_below_one(capsys, kind):
    assert main(["enumerate", "--kind", kind, "--start", "0"]) == 2
    assert capsys.readouterr().err == "error: ScenarioError: --start must be at least 1, got 0\n"


@pytest.mark.parametrize("kind", ["phi", "zpair"])
def test_enumerate_an_empty_range_writes_nothing(tmp_path, capsys, kind):
    assert main(["enumerate", "--kind", kind, "--start", "5", "--end", "3"]) == 0
    assert capsys.readouterr() == ("", "")
    out = tmp_path / "out.txt"
    args = ["enumerate", "--kind", kind, "--start", "5", "--end", "3", "--out", str(out)]
    assert main(args) == 0
    assert out.read_bytes() == b""
    assert capsys.readouterr() == ("", "")


def test_run_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", scenario_path("lshape"), "--out", str(out1)]) == 0
    assert main(["run", scenario_path("lshape"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_enum_version_pin(monkeypatch, capsys):
    monkeypatch.setenv("TUNNELMEET_ENUM_VERSION", "enum-v0")
    rc = main(["enumerate", "--end", "1"])
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err
    monkeypatch.setenv("TUNNELMEET_ENUM_VERSION", "enum-v1")
    assert main(["enumerate", "--end", "1"]) == 0


def test_scenario_strategy_list_filters_suite(tmp_path):
    base = json.loads((SCENARIOS / "k2.json").read_text())
    base["adversary"] = {"seeds": [0], "strategies": ["unit_speed", "alternating"]}
    out = tmp_path / "verdict.json"
    rc = main(["run", write_scenario(tmp_path, base), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert {c["strategy"] for c in doc["cells"]} == {"unit_speed", "alternating"}
    base["adversary"]["strategies"] = ["teleport"]
    rc = main(["run", write_scenario(tmp_path, base)])
    assert rc == 2


def test_route_planar_dump_format(tmp_path):
    out = tmp_path / "route.txt"
    rc = main(["route", scenario_path("hole"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "start\t1/4\t3/16"
    assert lines[1] == "# phase 1"
    body = [ln for ln in lines if not ln.startswith(("start", "#"))]
    assert body, "route has segments"
    for ln in body:
        x, y, kind = ln.split("\t")
        assert kind in ("free", "bounce_out", "bounce_back")
        Fraction(x), Fraction(y)


def test_run_generator_world(tmp_path):
    doc = {
        "schema": "scenario-v1",
        "world": {"kind": "generator", "name": "infinite_line"},
        "agents": [{"label": 1, "start": 0}, {"label": 2, "start": 1}],
        "limits": {"phase_cap": 2},
        "adversary": {"seeds": [0]},
    }
    out = tmp_path / "verdict.json"
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_met"] is True
    assert report["world"] == "generator"


def test_run_generator_world_without_start_reports_none(tmp_path):
    # a generator start that is absent is the origin, echoed as null
    doc = _edited("line", ("agents", 0, "start"), _DELETE)
    out = tmp_path / "verdict.json"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [a["start"] for a in report["agents"]] == [None, "origin"]


def test_seed_flag_overrides_scenario_seeds(tmp_path):
    out = tmp_path / "verdict.json"
    assert main(["run", scenario_path("k2"), "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {c["seed"] for c in doc["cells"]} == {7}


# the decimal fields each scenario's report must carry under --float
_FLOAT_FIELDS = {
    "k2": {"time_float"},
    "square": {"time_float", "x_float", "y_float", "min_distance_float"},
    "approx": {"min_distance_float", "worst_min_distance_float"},
}


def test_float_flag_adds_decimals(tmp_path):
    for name, fields in _FLOAT_FIELDS.items():
        _check_float_fields(tmp_path, scenario_path(name), fields)


def _float_or_null(exact: str):
    """The decimal of an exact field, or None where a float cannot hold it."""
    try:
        return float(Fraction(exact))
    except OverflowError:
        return None


def _distance_or_null(exact_sq: str):
    sq = _float_or_null(exact_sq)
    return None if sq is None else sq ** 0.5


def _check_float_fields(tmp_path, path, fields, code=0):
    """--float adds the decimal of each exact field (a distance's from its
    square), at least ``fields`` among them, and changes nothing else;
    both runs exit ``code``.  Returns the report with decimals."""
    reports = []
    for flags in ([], ["--float"]):
        out = tmp_path / "verdict.json"
        assert main(["run", path, *flags, "--out", str(out)]) == code
        reports.append(json.loads(out.read_text()))
    exact, decimal = reports
    want = dict(exact, cells=[])
    for cell in exact["cells"]:
        cell = dict(cell)
        if cell["met"]:
            cell["time_float"] = _float_or_null(cell["time"])
            loc = cell["location"] = dict(cell["location"])
            for field in {"point": ("x", "y"), "edge": ("offset",)}.get(loc["kind"], ()):
                loc[f"{field}_float"] = _float_or_null(loc[field])
        if "min_distance_sq" in cell:
            cell["min_distance_float"] = _distance_or_null(cell["min_distance_sq"])
        want["cells"].append(cell)
    if exact.get("worst_min_distance_sq") is not None:
        want["worst_min_distance_float"] = _distance_or_null(exact["worst_min_distance_sq"])
    assert decimal == want
    seen = set(decimal) | {k for c in decimal["cells"] for k in (*c, *c.get("location", ()))}
    assert fields <= seen, path
    return decimal


def _terrain_scenario(tmp_path, outer, starts, **fields):
    """The square scenario with another outer polygon and other starts."""
    doc = _edited("square", ("world", "terrain", "outer"), [list(map(str, xy)) for xy in outer])
    for agent, start in zip(doc["agents"], starts):
        agent["start"] = list(map(str, start))
    return write_scenario(tmp_path, dict(doc, **fields))


def test_float_is_null_where_a_float_cannot_hold_the_value(tmp_path):
    # a met point near 10**400 is past the float range; its time is not
    big = 10**400
    outer = [(big + dx, big + dy) for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))]
    starts = [(Fraction(4 * big + 1, 4), Fraction(2 * big + 1, 2))]
    starts.append((starts[0][0] + Fraction(1, 2), starts[0][1]))
    path = _terrain_scenario(tmp_path, outer, starts)
    report = _check_float_fields(tmp_path, path, {"time_float", "x_float", "y_float"})
    for cell in report["cells"]:
        assert cell["met"] and cell["time_float"] is not None
        assert cell["location"]["x_float"] is None and cell["location"]["y_float"] is None


def test_distance_float_is_null_where_a_float_cannot_hold_its_square(tmp_path):
    # at phase cap 0 the agents stay 10**200 apart: a float holds the
    # distance, but not its square
    side = 10**200
    outer = [(0, 0), (side, 0), (side, side), (0, side)]
    path = _terrain_scenario(
        tmp_path, outer, [(1, 1), (side - 1, side - 1)], epsilon="1", limits={"phase_cap": 0}
    )
    fields = {"min_distance_float", "worst_min_distance_float"}
    report = _check_float_fields(tmp_path, path, fields, code=1)
    assert report["worst_min_distance_float"] is None
    assert all(cell["min_distance_float"] is None for cell in report["cells"])


def _exact(text: str) -> Fraction:
    """A dumped ``num/den``, read past the digit limit of ``int(str)``."""
    num, den = text.split("/")
    return Fraction(int(Decimal(num)), int(Decimal(den)))


def test_route_dump_writes_hit_points_past_the_digit_limit(tmp_path):
    # inputs of 2,501 digits; a hit on the slanted edges has a denominator
    # of more digits than str() of an int writes
    a, b = 10**2500 + 7, 10**2500 + 9
    outer = [(0, 0), (Fraction(a + 1, a), 0), (1, Fraction(b + 1, b)), (0, 1)]
    starts = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2))]
    out = tmp_path / "route.txt"
    path = _terrain_scenario(tmp_path, outer, starts)
    assert main(["route", path, "--agent", "1", "--phase-cap", "3", "--out", str(out)]) == 0
    lines = [ln.split("\t") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == ["start", "3/4", "1/2"]
    dumped = [((_exact(x), _exact(y)), kind) for x, y, kind in lines[1:]]
    terrain = Terrain(tuple((Fraction(x), Fraction(y)) for x, y in outer))
    route = geometric_rv(terrain, starts[1], 2, Limits(3))
    assert dumped == [(seg.end, seg.kind) for seg in route.segments()]
    hits = []
    for step in route.steps():
        if step.v[0] == "v2":
            _, origin, port, hit = step.v
            off = rational_pair(port)
            target = (origin[0] + off.q1, origin[1] + off.q2)
            assert hit == oracle_first_boundary_hit(terrain, origin, target)
            hits.append(hit)
    assert {(xy, "bounce_out") for xy in hits} == {d for d in dumped if d[1] == "bounce_out"}
    assert max(xy[0].denominator for xy in hits) > 10**4300


# SHA-256 of the planar route dumps and of the default-seed verdict
# reports of the shipped scenarios; any change to route rendering, the
# schedules or the sweep moves one of these.
PLANAR_ROUTE_SHA256 = {
    ("lshape", 0): "831e5d08a071640b34b879558724ce9eb72cb57d36dca43df74d9d6c1d65fe1c",
    ("lshape", 1): "426f65cf7e09de83202b3265002788334ea6808fdb9be86cbf860320dfcf9202",
    ("hole", 0): "0bc80ee650224a818a1ed32c71ee8dd83d209d549763dbd6549ecd84f0627db4",
    ("hole", 1): "b95abea75deaa89ceb8f2529fd5c339aa5e52b07f801254678f66576d31ed889",
    ("approx", 0): "f6f4d183ecc4f36360b9c16b92f472863081d44325b71c1c978cd6a55e3bc1c0",
    ("approx", 1): "e041a8cfc047ee8d6f775d7716bacb3bd4af05fe183977bbaf60ce50c2b2aa32",
    ("square", 0): "38112af215c8834fd4296658806123daa2947d22bf5054073f18218c6b8719b1",
    ("square", 1): "969c2a1794fb3eef1e4bc8e8e05bb8c806765b52d0549c65b6e77eb729d09653",
}

VERDICT_SHA256 = {
    "k2": "e5cc15d6f32656cf37565c23099a1a8fed480189f095a1a7f01047e4463ef7b3",
    "lshape": "15cf5934a44d569dbbf03410fb6311f4e9dd0c35edc24ece759f51f108b41a82",
    "hole": "6c5b713f9d13b439f480c4c3ca6f735d9ee9b20e1bd207f6139b27a4ef9430fd",
    "approx": "480687a8207741fb9513f87748febae445709639471f41dcd75621a1eb009939",
    "square": "8642dcfc9d0213640371f3665cee2bfa32b1e1556f0ee8f68cc10ec12e8f28b1",
}


@pytest.mark.parametrize("name,agent", sorted(PLANAR_ROUTE_SHA256))
def test_planar_route_dump_golden(tmp_path, name, agent):
    out = tmp_path / "route.txt"
    rc = main(["route", scenario_path(name), "--agent", str(agent), "--out", str(out)])
    assert rc == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PLANAR_ROUTE_SHA256[(name, agent)]


@pytest.mark.parametrize("name", sorted(VERDICT_SHA256))
def test_verdict_report_golden(tmp_path, name):
    out = tmp_path / "verdict.json"
    assert main(["run", scenario_path(name), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERDICT_SHA256[name]


@pytest.mark.parametrize("name", ["k2", "square"])
def test_run_with_empty_routes_reports_no_meeting(tmp_path, name):
    # at zero phases both routes are empty: each agent stays at its start
    out = tmp_path / "verdict.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tunnelmeet.cli", "run", scenario_path(name),
         "--phase-cap", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "verdict-v1"
    assert doc["cells"] and all(c["met"] is False for c in doc["cells"])


# SHA-256 of ``tunnel`` output over every ordered pair of a fixed set of
# route dumps; any change to how the tunnel scan reads routes moves it.
TUNNEL_PAIRS_SHA256 = "aba8dab6c8b2c0a63bea8ec2f36a1d306addb3b4b4aff7d186b10d04682f9274"


def _tunnel_golden_dumps(tmp_path):
    """Both k2 agents at several phase caps, then seeded ``graph_rv``
    routes on random graphs (routes over 1,000 steps are skipped)."""
    paths = []
    for cap in (1, 2, 3, 5, 8, 12, 20, 40):
        for agent in (0, 1):
            out = tmp_path / f"k2-{cap}-{agent}.txt"
            args = ["route", scenario_path("k2"), "--phase-cap", str(cap)]
            assert main(args + ["--agent", str(agent), "--out", str(out)]) == 0
            paths.append(out)
    rng = random.Random(5)
    for seed in range(8):
        g = random_connected_graph(5, seed)
        for label in (1, 2, 3):
            start, cap = rng.choice(g.nodes), rng.choice((10, 20, 40, 80))
            try:
                route = graph_rv(g, start, label, Limits(cap, 1000))
            except StepBudgetExceeded:
                continue
            out = tmp_path / f"r{seed}-{label}-{start}-{cap}.txt"
            out.write_text(dump_route(route), encoding="utf-8")
            paths.append(out)
    return paths


def test_tunnel_output_golden(tmp_path, capsys):
    paths = _tunnel_golden_dumps(tmp_path)
    capsys.readouterr()
    lines = []
    for a in paths:
        for b in paths:
            assert main(["tunnel", str(a), str(b)]) == 0
            lines.append(f"{a.name} {b.name} {capsys.readouterr().out}")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == TUNNEL_PAIRS_SHA256
