"""The README names only what its modules define: the Layout table's
identifiers, and the generators a ``scenario-v1`` world may name."""

import argparse
import importlib
import re
from pathlib import Path

from tunnelmeet.cli import build_parser
from tunnelmeet.graph_model import GENERATORS

README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_rows():
    """``(module, identifiers)`` for each row of the Layout table: the
    backticked words of the row's second cell that are Python names."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`tunnelmeet."):
            names = re.findall(r"`([^`]+)`", cells[1])
            rows.append((cells[0].strip("`"), [n for n in names if n.isidentifier()]))
    return rows


def test_readme_layout_names_what_each_module_defines():
    rows = _layout_rows()
    assert len(rows) == 7
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for module, names in rows:
        if module == "tunnelmeet.cli":
            missing = [n for n in names if n not in sub.choices]
        else:
            mod = importlib.import_module(module)
            missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (module, missing)


def test_readme_lists_the_generators():
    text = README.read_text(encoding="utf-8")
    scenario = text.split("* **scenario-v1**", 1)[1].split("\n* **", 1)[0]
    listed = re.search(r"a generator name \(([^)]*)\)", scenario).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(GENERATORS)
