"""Library code that only the tests call belongs in the tests: every
public function or class of a library module is referenced by the package
outside its own definition, or by the benchmark, unless its module's
docstring names it as an oracle kept for the tests.  ``cli`` is left out:
its public names are the command line's entry points."""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tunnelmeet"
MODULES = ("adversary", "enumeration", "geometry", "graph_model", "rendezvous", "routes")
#: the oracles that the tests alone call, each named in its module docstring
ORACLES = {
    "adversary": {"validate_schedule", "planar_point_at"},
    "enumeration": {"seq_encode", "seq_decode"},
}


@cache
def _reads(path: Path) -> tuple:
    """``(defined name or None, names read)`` per top-level statement."""
    out = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        out.append((getattr(stmt, "name", None), used))
    return tuple(out)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_used_outside_the_tests(name):
    module = importlib.import_module(f"tunnelmeet.{name}")
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    }
    if name == "routes":
        assert defined == {"StepBudgetExceeded", "Route", "dump_lines", "dump_route", "parse_route_dump"}
    own = PACKAGE / f"{name}.py"
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    elsewhere = set().union(*(used for p in paths if p != own for _, used in _reads(p)))
    unused = {
        attr
        for attr in defined - elsewhere
        if not any(attr in used for at, used in _reads(own) if at != attr)
    }
    oracles = ORACLES.get(name, set())
    assert unused == oracles
    assert all(f"``{oracle}``" in module.__doc__ for oracle in oracles)
