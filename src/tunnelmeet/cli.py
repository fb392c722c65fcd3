"""Scenario-driven command line front end.

Subcommands: ``run`` (construct routes for a two-agent scenario and run
the adversary suite), ``route`` (dump one agent's route), ``tunnel``
(decide the tunnel relation between two dumped routes), ``enumerate``
(print enumeration heads for golden pinning).

All numeric output is exact (``num/den``); ``--float`` adds decimal
approximations for humans.  Reports are byte-deterministic for fixed
scenarios and seeds.  Exit codes: 0 met, 1 not met, 2 malformed input,
3 internal error (with its traceback), 4 over the step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .adversary import DEFAULT_SUITE, MeetingVerdict, epsilon_verdict, verify_rendezvous
from .enumeration import ENUM_VERSION, Quadruple, phi, rational_pair
from .geometry import geometric_routes, terrain_from_json
from .graph_model import (
    GENERATORS,
    GraphError,
    MalformedField,
    check_field,
    format_rational,
    generator,
    is_int,
    is_node_name,
    is_object,
    is_point,
    load_graph_json,
    rational_field,
)
from .rendezvous import DEFAULT_STEP_BUDGET, Limits, RouteBuilder, tunnel_check
from .routes import StepBudgetExceeded, dump_lines, dump_route, parse_route_dump

SCENARIO_SCHEMA = "scenario-v1"
VERDICT_SCHEMA = "verdict-v1"


class ScenarioError(Exception):
    """Input the command line cannot use: a malformed scenario field, named
    by its path, or a file named on the command line that cannot be read
    or written, named by its file path."""


class Scenario(NamedTuple):
    """A checked ``scenario-v1`` document with the command line's limits
    and seed applied, frozen: all that ``run`` and ``route`` read."""

    kind: str  # "graph", "terrain" or "generator"
    world: object
    starts: tuple  # node handles; points on a terrain
    labels: tuple
    limits: Limits
    suite: tuple  # the chosen DEFAULT_SUITE rows, in suite order
    seeds: tuple
    epsilon: Fraction | None
    shown_starts: tuple  # the starts as the document wrote them, for the report


def _read(path: str, parse):
    """``parse`` of the text of a file named on the command line.  A file
    that cannot be read, decoded or parsed is a ``ScenarioError`` naming
    it, and a ``GraphError`` from ``parse`` gets the path in front."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path}: cannot read: {exc}") from None
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def _check(value, path: str, shape: str, fits):
    """``check_field`` for a scenario field: a value that does not fit is
    a ``ScenarioError`` naming ``path``."""
    try:
        return check_field(value, path, shape, fits)
    except MalformedField as exc:
        raise ScenarioError(str(exc)) from None


def _rational(value, field: str) -> Fraction:
    """``rational_field`` for a scenario field: a value that is not an
    exact rational is a ``ScenarioError`` naming ``field``."""
    try:
        return rational_field(value, field)
    except MalformedField as exc:
        raise ScenarioError(str(exc)) from None


def _world(doc: dict):
    """The world's kind and the world: a graph, a terrain or a generator."""
    kinds = ("graph", "terrain", "generator")
    kind = _check(doc.get("kind"), "world.kind", f"one of {', '.join(kinds)}", lambda k: k in kinds)
    if kind == "generator":
        name = doc.get("name")
        known = isinstance(name, str) and name in GENERATORS
        _check(name, "world.name", "a generator name", lambda _: known)
        written = doc.get("unit_length", 1)
        unit = _rational(written, "world.unit_length")
        _check(written, "world.unit_length", "positive", lambda _: unit > 0)
        return kind, generator(name, unit)
    spec = _check(doc.get(kind), f"world.{kind}", "an object", is_object)
    try:
        return kind, (load_graph_json if kind == "graph" else terrain_from_json)(spec)
    except MalformedField as exc:
        raise ScenarioError(f"world.{kind}.{exc}") from None


def _start(kind: str, world, start, field: str):
    """A start as a node handle of the world: a node of a graph, a handle
    of a generator (``"origin"`` or none is its origin) or an interior
    point of a terrain."""
    if kind == "terrain":
        _check(start, field, "a point [x, y]", is_point)
        point = tuple(_rational(c, f"{field}[{i}]") for i, c in enumerate(start))
        if not world.is_interior(point):
            shown = json.dumps([format_rational(c) for c in point])
            raise ScenarioError(f"{field} {shown} is not interior")
        return point
    if kind == "graph":
        _check(start, field, "a node name", is_node_name)
        return _check(start, field, "a node of world.graph", lambda s: s in world.nodes)
    if start in (None, "origin"):
        return world.origin
    _check(start, field, *world.handle)
    return tuple(start) if isinstance(start, list) else start


def read_scenario(path: str, args) -> Scenario:
    """The scenario at ``path``, with ``--phase-cap``, ``--step-budget``
    and (``run`` only) ``--seed`` from ``args`` in place of its own
    values.  Every field is checked here, in one pass: a field that does
    not fit is a ``ScenarioError`` whose message starts with the field's
    path, such as ``agents[1].start``; a world document may also fail as
    a ``GraphError``.  Only a file that cannot be read names its path."""
    doc = _read(path, json.loads)
    schema = doc.get("schema") if is_object(doc) else None
    _check(schema, "schema", repr(SCENARIO_SCHEMA), lambda s: s == SCENARIO_SCHEMA)
    agents = _check(
        doc.get("agents"),
        "agents",
        "a list of two agents",
        lambda a: isinstance(a, list) and len(a) == 2,
    )
    world_doc, lim, adversary = (
        _check(doc.get(field, {}), field, "an object", is_object)
        for field in ("world", "limits", "adversary")
    )
    labels = []
    for n, agent in enumerate(agents):
        _check(agent, f"agents[{n}]", "an object", is_object)
        label = agent.get("label")
        _check(label, f"agents[{n}].label", "a positive int", lambda x: is_int(x) and x > 0)
        labels.append(label)
    _check(labels[1], "agents[1].label", "distinct from agents[0].label", lambda x: x != labels[0])
    kind, world = _world(world_doc)
    cap = args.phase_cap if args.phase_cap is not None else lim.get("phase_cap")
    budget = args.step_budget
    if budget is None:
        budget = lim.get("step_budget", DEFAULT_STEP_BUDGET)
    for field, value, least in (("phase_cap", cap, 0), ("step_budget", budget, 1)):
        _check(value, f"limits.{field}", "an int", is_int)
        _check(value, f"limits.{field}", f"at least {least}", lambda v: v >= least)
    seed = getattr(args, "seed", None)  # ``route`` has no --seed
    seeds = _check(
        [seed] if seed is not None else adversary.get("seeds", [0]),
        "adversary.seeds",
        "a non-empty list of ints",  # a run with no cells checks nothing
        lambda s: isinstance(s, list) and s and all(map(is_int, s)),
    )
    names = [row[0] for row in DEFAULT_SUITE]
    chosen = _check(
        adversary.get("strategies", names),
        "adversary.strategies",
        f"a non-empty list of {', '.join(names)}",
        lambda s: isinstance(s, list) and s and all(x in names for x in s),
    )
    shown = tuple(agent.get("start") for agent in agents)
    starts = tuple(_start(kind, world, s, f"agents[{n}].start") for n, s in enumerate(shown))
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        _check(epsilon, "epsilon", "unset outside a terrain world", lambda _: kind == "terrain")
        eps = _rational(epsilon, "epsilon")
        _check(epsilon, "epsilon", "positive", lambda _: eps > 0)
        epsilon = eps
    suite = tuple(row for row in DEFAULT_SUITE if row[0] in chosen)
    limits = Limits(cap, budget)
    return Scenario(kind, world, starts, tuple(labels), limits, suite, tuple(seeds), epsilon, shown)


def _routes(sc: Scenario, agents) -> list:
    """The routes of the agents numbered in ``agents``, built by one
    ``RouteBuilder`` on a graph or by ``geometric_routes`` on a terrain."""
    starts = [sc.starts[n] for n in agents]
    labels = [sc.labels[n] for n in agents]
    if sc.kind == "terrain":
        return geometric_routes(sc.world, starts, labels, sc.limits)
    builder = RouteBuilder(sc.world, sc.limits)
    return [builder.route(start, label) for start, label in zip(starts, labels)]


def _float(x) -> float | None:
    """``float(x)``, or None (JSON null) where a float cannot hold ``x``."""
    try:
        return float(x)
    except OverflowError:
        return None


def _distance_float(gap_sq) -> float | None:
    """The distance whose exact square is ``gap_sq``, or None where a
    float cannot hold ``gap_sq``."""
    sq = _float(gap_sq)
    return None if sq is None else sq ** 0.5


def _location_json(loc, use_float: bool):
    if loc[0] == "node":
        return {"kind": "node", "node": str(loc[1])}
    if loc[0] == "edge":
        out = {"kind": "edge", "edge": str(loc[1]), "offset": format_rational(loc[2])}
        if use_float:
            out["offset_float"] = _float(loc[2])
        return out
    x, y = loc
    out = {"kind": "point", "x": format_rational(x), "y": format_rational(y)}
    if use_float:
        out["x_float"] = _float(x)
        out["y_float"] = _float(y)
    return out


def _verdict_json(v: MeetingVerdict, use_float: bool) -> dict:
    out: dict = {"met": v.met}
    if v.met:
        out["time"] = format_rational(v.time)
        if use_float:
            out["time_float"] = _float(v.time)
        out["location"] = _location_json(v.location, use_float)
    if v.min_distance_sq is not None:
        out["min_distance_sq"] = format_rational(v.min_distance_sq)
        if use_float:
            out["min_distance_float"] = _distance_float(v.min_distance_sq)
    return out


def _report_json(sc: Scenario, report, use_float: bool) -> dict:
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
        "world": sc.kind,
        "agents": [
            {"label": label, "start": start} for label, start in zip(sc.labels, sc.shown_starts)
        ],
        "cells": cells,
        "all_met": report["all_met"],
        "vacuous": report["vacuous"],
    }
    if sc.epsilon is not None:
        out["epsilon"] = format_rational(report["epsilon"])
        worst = report["worst_min_distance_sq"]
        out["worst_min_distance_sq"] = None if worst is None else format_rational(worst)
        out["within_epsilon"] = report["within_epsilon"]
        if use_float and worst is not None:
            out["worst_min_distance_float"] = _distance_float(worst)
    return out


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout without one; output
    that cannot be written is a ``ScenarioError`` naming where it went."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise ScenarioError(f"{out_path or '<stdout>'}: cannot write: {exc}") from None


def cmd_run(args) -> int:
    sc = read_scenario(args.scenario, args)
    r1, r2 = _routes(sc, (0, 1))
    report = verify_rendezvous(r1, r2, suite=sc.suite, seeds=sc.seeds)
    if sc.epsilon is not None:
        report = epsilon_verdict(report, sc.epsilon)
    text = json.dumps(_report_json(sc, report, args.float), indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    ok = report["all_met"] if sc.epsilon is None else report["within_epsilon"]
    return 0 if ok else 1


def cmd_route(args) -> int:
    sc = read_scenario(args.scenario, args)
    (route,) = _routes(sc, (args.agent,))
    if sc.kind == "terrain":
        text = dump_lines(
            f"start\t{format_rational(route.start[0])}\t{format_rational(route.start[1])}",
            (
                f"{format_rational(seg.end[0])}\t{format_rational(seg.end[1])}\t{seg.kind}"
                for seg in route.segments()
            ),
            route.phase_marks,
        )
    else:
        text = dump_route(route)
    _emit(text, args.out)
    return 0


def cmd_tunnel(args) -> int:
    r1, r2 = (_read(path, parse_route_dump) for path in (args.route1, args.route2))
    cert = tunnel_check(r1, r2)
    _emit("none\n" if cert is None else f"tunnel n={cert.n}\n", args.out)
    return 0


def _format_quadruple(q: Quadruple) -> str:
    sp = ",".join(map(str, q.s_prime))
    sd = ",".join(map(str, q.s_dprime))
    return f"({q.i},{q.j},({sp}),({sd}))"


def cmd_enumerate(args) -> int:
    _check(args.start, "--start", "at least 1", lambda k: k >= 1)  # both enumerations start at 1
    lines = []
    for k in range(args.start, args.end + 1):
        if args.kind == "phi":
            value = _format_quadruple(phi(k))
        else:
            pair = rational_pair(k)
            value = f"({format_rational(pair.q1)},{format_rational(pair.q2)})"
        lines.append(f"{k}\t{value}\n")
    _emit("".join(lines), args.out)  # an empty range writes nothing
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
        return 4
    except (ScenarioError, GraphError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except Exception:  # an internal error: print it as Python prints an uncaught one
        sys.excepthook(*sys.exc_info())
        return 3


if __name__ == "__main__":
    sys.exit(main())
