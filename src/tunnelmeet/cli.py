"""Scenario-driven command line front end.

Subcommands: ``run`` (construct routes for a two-agent scenario and run
the adversary suite), ``route`` (dump one agent's route), ``tunnel``
(decide the tunnel relation between two dumped routes), ``enumerate``
(print enumeration heads for golden pinning).

All numeric output is exact (``num/den``); ``--float`` adds decimal
approximations for humans.  Reports are byte-deterministic for fixed
scenarios and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .adversary import (
    DEFAULT_SUITE,
    MeetingVerdict,
    suite_from_names,
    verify_rendezvous,
)
from .enumeration import ENUM_VERSION, Quadruple, phi, rational_pair
from .geometry import (
    approx_rendezvous,
    geometric_routes,
    geometric_rv,
    terrain_from_json,
)
from .graph_model import (
    GraphError,
    MalformedField,
    check_field,
    format_rational,
    generator,
    generator_origin,
    is_node_name,
    load_graph_json,
    parse_rational,
)
from .rendezvous import (
    DEFAULT_STEP_BUDGET,
    Limits,
    RouteBuilder,
    graph_rv,
    tunnel_check,
)
from .routes import StepBudgetExceeded, dump_lines, dump_route, parse_route_dump

SCENARIO_SCHEMA = "scenario-v1"
VERDICT_SCHEMA = "verdict-v1"


class ScenarioError(Exception):
    pass


def _check(value, path: str, shape: str, fits):
    """``check_field`` for a scenario field: a value that does not fit is
    a ``ScenarioError`` naming ``path``."""
    try:
        return check_field(value, path, shape, fits)
    except MalformedField as exc:
        raise ScenarioError(str(exc)) from None


def _load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(f"{path}: expected schema {SCENARIO_SCHEMA!r}")
    agents = doc.get("agents")
    if not isinstance(agents, list) or len(agents) != 2:
        raise ScenarioError(f"{path}: scenario needs exactly two agents")
    shaped = [(f, doc.get(f, {})) for f in ("world", "limits", "adversary")]
    shaped += [(f"agents[{n}]", a) for n, a in enumerate(agents)]
    for field, value in shaped:
        if not isinstance(value, dict):
            raise ScenarioError(f"{path}: {field} must be an object, got {value!r}")
    names = doc.get("adversary", {}).get("strategies", [])
    if not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
        raise ScenarioError(
            f"{path}: adversary.strategies must be a list of strings, got {names!r}"
        )
    l1, l2 = labels = [a.get("label") for a in agents]
    for n, label in enumerate(labels):
        if not (type(label) is int and label > 0):  # a JSON true is no label
            raise ScenarioError(f"{path}: agents[{n}].label must be a positive int, got {label!r}")
    if l1 == l2:
        raise ScenarioError(f"{path}: agent labels must be distinct")
    return doc


def _build_world(doc: dict):
    world = doc.get("world", {})
    kind = world.get("kind")
    if kind in ("graph", "terrain"):
        spec = world.get(kind)
        if not isinstance(spec, dict):
            raise ScenarioError(f"world.{kind} must be an object, got {spec!r}")
        try:
            return kind, (load_graph_json if kind == "graph" else terrain_from_json)(spec)
        except MalformedField as exc:
            raise ScenarioError(f"world.{kind}.{exc}") from None
    if kind == "generator":
        name = world.get("name")
        if not isinstance(name, str):
            raise ScenarioError(f"world.name must be a generator name, got {name!r}")
        return "generator", generator(name, world.get("unit_length", 1))
    raise ScenarioError(f"unknown world kind {kind!r}")


def _limits(doc: dict, args) -> Limits:
    lim = doc.get("limits", {})
    cap = args.phase_cap if args.phase_cap is not None else lim.get("phase_cap")
    if cap is None:
        raise ScenarioError("no phase cap given (scenario limits or --phase-cap)")
    budget = (
        args.step_budget
        if args.step_budget is not None
        else lim.get("step_budget", DEFAULT_STEP_BUDGET)
    )
    for field, value, least in (("phase_cap", cap, 0), ("step_budget", budget, 1)):
        _check(value, f"limits.{field}", "an int", _is_int)
        _check(value, f"limits.{field}", f"at least {least}", lambda v: v >= least)
    return Limits(cap, budget)


def _rational(value, field: str) -> Fraction:
    try:
        return parse_rational(value)
    except GraphError:
        raise ScenarioError(f"{field} must be an exact rational, got {value!r}") from None


def _is_int(x) -> bool:
    return type(x) is int


#: Node handle shape per graph world or generator: (shape, check).
_HANDLES = {
    "graph": ("a node name", is_node_name),
    "infinite_line": ("an int", _is_int),
    "infinite_grid": (
        "a list of two ints",
        lambda s: isinstance(s, list) and len(s) == 2 and all(map(_is_int, s)),
    ),
    "infinite_binary_tree": (
        "a list of 0s and 1s",
        lambda s: isinstance(s, list) and all(_is_int(c) and c in (0, 1) for c in s),
    ),
}


def _start_for(kind: str, world, world_doc: dict, agents: list, n: int):
    """Agent n's start as a node handle of the world; a start of the wrong
    shape, a graph start that is not a node, or a terrain start that is
    not interior, is a ``ScenarioError`` naming ``agents[n].start``."""
    field = f"agents[{n}].start"
    start = agents[n].get("start")
    if kind == "terrain":
        _check(start, field, "a point [x, y]", lambda s: isinstance(s, list) and len(s) == 2)
        point = tuple(_rational(c, f"{field}[{i}]") for i, c in enumerate(start))
        if not world.is_interior(point):
            shown = json.dumps([format_rational(c) for c in point])
            raise ScenarioError(f"{field} {shown} is not interior")
        return point
    name = world_doc["name"] if kind == "generator" else kind
    if kind == "generator" and start in (None, "origin"):
        return generator_origin(name)
    _check(start, field, *_HANDLES[name])
    if kind == "graph":
        _check(start, field, "a node of world.graph", lambda s: s in world.nodes)
    return tuple(start) if isinstance(start, list) else start


def _frac_str(x: Fraction) -> str:
    return format_rational(Fraction(x))


def _location_json(loc, use_float: bool):
    if loc is None:
        return None
    if isinstance(loc, tuple) and loc and loc[0] == "node":
        return {"kind": "node", "node": str(loc[1])}
    if isinstance(loc, tuple) and loc and loc[0] == "edge":
        out = {"kind": "edge", "edge": str(loc[1]), "offset": _frac_str(loc[2])}
        if use_float:
            out["offset_float"] = float(loc[2])
        return out
    x, y = loc
    out = {"kind": "point", "x": _frac_str(x), "y": _frac_str(y)}
    if use_float:
        out["x_float"] = float(x)
        out["y_float"] = float(y)
    return out


def _verdict_json(v: MeetingVerdict, use_float: bool) -> dict:
    out: dict = {"met": v.met}
    if v.met:
        out["time"] = _frac_str(v.time)
        if use_float:
            out["time_float"] = float(v.time)
        out["location"] = _location_json(v.location, use_float)
    if v.min_distance_sq is not None:
        out["min_distance_sq"] = _frac_str(v.min_distance_sq)
        if use_float:
            out["min_distance_float"] = float(v.min_distance_sq) ** 0.5
    return out


def _report_json(doc, report, use_float: bool) -> dict:
    cells = [
        {
            "strategy": c["strategy"],
            "seed": c["seed"],
            **_verdict_json(c["verdict"], use_float),
        }
        for c in report["cells"]
    ]
    out = {
        "schema": VERDICT_SCHEMA,
        "enum_version": ENUM_VERSION,
        "world": doc["world"]["kind"],
        "agents": [
            {"label": a["label"], "start": a["start"]} for a in doc["agents"]
        ],
        "cells": cells,
        "all_met": report["all_met"],
        "vacuous": report["vacuous"],
    }
    if "epsilon" in report:
        out["epsilon"] = _frac_str(report["epsilon"])
        worst = report["worst_min_distance_sq"]
        out["worst_min_distance_sq"] = None if worst is None else _frac_str(worst)
        out["within_epsilon"] = report["within_epsilon"]
        if use_float and worst is not None:
            out["worst_min_distance_float"] = float(worst) ** 0.5
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    doc = _load_scenario(args.scenario)
    kind, world = _build_world(doc)
    limits = _limits(doc, args)
    agents = doc["agents"]
    adversary = doc.get("adversary", {})
    seeds = [args.seed] if args.seed is not None else adversary.get("seeds", [0])
    _check(
        seeds,
        "adversary.seeds",
        "a list of ints",
        lambda s: isinstance(s, list) and all(map(_is_int, s)),
    )
    _check(seeds, "adversary.seeds", "a non-empty list", bool)  # a run with no cells checks nothing
    names = [row[0] for row in DEFAULT_SUITE]
    strategies = _check(
        adversary.get("strategies", names),
        "adversary.strategies",
        f"a non-empty list of {', '.join(names)}",
        lambda s: s and set(s) <= set(names),
    )
    suite = suite_from_names(strategies)
    epsilon = doc.get("epsilon")
    starts = [_start_for(kind, world, doc["world"], agents, n) for n in range(2)]
    labels = [a["label"] for a in agents]
    if epsilon is not None:
        if kind != "terrain":
            raise ScenarioError("epsilon mode needs a terrain world")
        eps = _rational(epsilon, "epsilon")
        _check(epsilon, "epsilon", "positive", lambda _: eps > 0)
        report = approx_rendezvous(
            world,
            starts[0],
            starts[1],
            labels[0],
            labels[1],
            eps,
            limits,
            suite=suite,
            seeds=tuple(seeds),
        )
        ok = report["within_epsilon"]
    else:
        if kind == "terrain":
            r1, r2 = geometric_routes(world, starts, labels, limits)
        else:
            builder = RouteBuilder(world, limits)
            r1, r2 = (builder.route(s, label) for s, label in zip(starts, labels))
        report = verify_rendezvous(world, r1, r2, suite=suite, seeds=tuple(seeds))
        ok = report["all_met"]
    text = json.dumps(_report_json(doc, report, args.float), indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_route(args) -> int:
    doc = _load_scenario(args.scenario)
    kind, world = _build_world(doc)
    limits = _limits(doc, args)
    agent = doc["agents"][args.agent]
    start = _start_for(kind, world, doc["world"], doc["agents"], args.agent)
    if kind == "terrain":
        route = geometric_rv(world, start, agent["label"], limits)
        text = dump_lines(
            f"start\t{_frac_str(route.start[0])}\t{_frac_str(route.start[1])}",
            (
                f"{_frac_str(seg.end[0])}\t{_frac_str(seg.end[1])}\t{seg.kind}"
                for seg in route.segments()
            ),
            route.phase_marks,
        )
    else:
        route = graph_rv(world, start, agent["label"], limits)
        text = dump_route(route)
    _emit(text, args.out)
    return 0


def cmd_tunnel(args) -> int:
    with open(args.route1, "r", encoding="utf-8") as fh:
        r1 = parse_route_dump(fh.read())
    with open(args.route2, "r", encoding="utf-8") as fh:
        r2 = parse_route_dump(fh.read())
    cert = tunnel_check(r1, r2)
    if cert is None:
        _emit("none\n", args.out)
    else:
        _emit(f"tunnel n={cert.n}\n", args.out)
    return 0


def _format_quadruple(q: Quadruple) -> str:
    sp = ",".join(map(str, q.s_prime))
    sd = ",".join(map(str, q.s_dprime))
    return f"({q.i},{q.j},({sp}),({sd}))"


def cmd_enumerate(args) -> int:
    lines = []
    for k in range(args.start, args.end + 1):
        if args.kind == "phi":
            value = _format_quadruple(phi(k))
        else:
            pair = rational_pair(k)
            value = f"({format_rational(pair.q1)},{format_rational(pair.q2)})"
        lines.append(f"{k}\t{value}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelmeet",
        description="asynchronous rendezvous routes, adversary simulation, verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit a verdict report")
    run.add_argument("scenario")
    run.add_argument("--out")
    run.add_argument("--seed", type=int)
    run.add_argument("--phase-cap", type=int, dest="phase_cap")
    run.add_argument("--step-budget", type=int, dest="step_budget")
    run.add_argument("--float", action="store_true")
    run.set_defaults(fn=cmd_run)

    route = sub.add_parser("route", help="dump one agent's constructed route")
    route.add_argument("scenario")
    route.add_argument("--agent", type=int, default=0, choices=(0, 1))
    route.add_argument("--out")
    route.add_argument("--phase-cap", type=int, dest="phase_cap")
    route.add_argument("--step-budget", type=int, dest="step_budget")
    route.set_defaults(fn=cmd_route)

    tun = sub.add_parser("tunnel", help="decide the tunnel relation of two dumps")
    tun.add_argument("route1")
    tun.add_argument("route2")
    tun.add_argument("--out")
    tun.set_defaults(fn=cmd_tunnel)

    enum = sub.add_parser("enumerate", help="print enumeration values")
    enum.add_argument("--kind", choices=("phi", "zpair"), default="phi")
    enum.add_argument("--start", type=int, default=1)
    enum.add_argument("--end", type=int, default=64)
    enum.add_argument("--out")
    enum.set_defaults(fn=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    pinned = os.environ.get("TUNNELMEET_ENUM_VERSION")
    if pinned is not None and pinned != ENUM_VERSION:
        sys.stderr.write(
            f"error: enumeration version mismatch: pinned {pinned!r}, "
            f"built {ENUM_VERSION!r}\n"
        )
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StepBudgetExceeded as exc:
        sys.stderr.write(f"error: StepBudgetExceeded: {exc}\n")
        return 1
    except (ScenarioError, GraphError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
