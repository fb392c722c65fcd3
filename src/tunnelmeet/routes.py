"""Route representation and algebra.

A route is a chained sequence of edge traversals starting at a fixed
node.  The rendezvous recursion concatenates long stretches of its own
history and of simulated routes over and over, so the step sequence is
held as a rope (concatenation DAG with reverse nodes) whose subtrees are
shared.  Building is O(nodes); only iteration pays for the
materialized length, and the step budget caps that length up front.

Every rope node is built by ``_leaf``, ``_cat`` or ``_rev`` (empty kids
dropped, a lone kid returned, a reversed reversal unwrapped); a ``_Cat``
only by ``_cat``, which gives it its length.  The public
``route_from_steps``, ``concat_routes`` and ``reverse_route`` wrap them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator

from .graph_model import EdgeTraversal, GraphError, NodeHandle


class StepBudgetExceeded(Exception):
    """Route construction would exceed the configured traversal budget.

    ``length`` is the exact step count the rope would have reached,
    ``phase`` the phase at which it crossed the budget and ``label`` the
    label of the run it belongs to: the requested agent's, or a simulated
    partner's when the crossing happened inside a simulation."""

    def __init__(self, message: str, length: int, phase: int, label: int):
        super().__init__(message)
        self.length = length
        self.phase = phase
        self.label = label


class _Leaf:
    __slots__ = ("steps", "length", "_rev")

    def __init__(self, steps: tuple[EdgeTraversal, ...]):
        self.steps = steps
        self.length = len(steps)
        self._rev = None

    def reversed_steps(self) -> tuple[EdgeTraversal, ...]:
        if self._rev is None:
            self._rev = tuple(s.reversed() for s in reversed(self.steps))
        return self._rev


class _Cat:
    # two or more non-empty kids; built only by _cat, which sums the length
    __slots__ = ("kids", "length")

    def __init__(self, kids: tuple, length: int):
        self.kids = kids
        self.length = length


class _Rev:
    __slots__ = ("kid", "length")

    def __init__(self, kid):
        self.kid = kid
        self.length = kid.length


_EMPTY = _Leaf(())


def _iter_node(node, rev: bool) -> Iterator[EdgeTraversal]:
    # Explicit stack of (kid iterator, flip), one per open _Cat: nested
    # generators would pay O(depth) per step, pushing every kid O(fan-out).
    stack = []
    while True:
        while type(node) is not _Leaf:  # down to the first leaf below node
            if type(node) is _Rev:
                node, rev = node.kid, not rev
            else:
                kids = iter(reversed(node.kids) if rev else node.kids)
                stack.append((kids, rev))
                node = next(kids)
        yield from (node.reversed_steps() if rev else node.steps)
        # up to the innermost open _Cat with a kid not yet walked
        while stack and (node := next(stack[-1][0], None)) is None:
            stack.pop()
        if not stack:
            return
        rev = stack[-1][1]


def _step_at(node, i: int) -> EdgeTraversal:
    flip = False
    while True:
        if isinstance(node, _Leaf):
            step = node.steps[i]
            return step.reversed() if flip else step
        if isinstance(node, _Rev):
            node = node.kid
            i = node.length - 1 - i
            flip = not flip
            continue
        for kid in node.kids:
            if i < kid.length:
                node = kid
                break
            i -= kid.length


@dataclass
class Route:
    """A route: start node plus a finite sequence of chained traversals.

    ``phase_marks[k-1]`` is the step index at which phase k begins; the
    rendezvous construction guarantees the route prefix of that length
    is closed at ``start``.
    """

    start: NodeHandle
    _root: object = field(default=_EMPTY, repr=False)
    phase_marks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Number of steps (an int, exact at any size)."""
        return self._root.length

    def steps(self) -> Iterator[EdgeTraversal]:
        return _iter_node(self._root, False)

    def step_at(self, i: int) -> EdgeTraversal:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return _step_at(self._root, i)

    @property
    def end(self) -> NodeHandle:
        return self.node_after(self.length)

    @cached_property
    def length_den(self) -> int:
        """lcm of the step lengths' denominators, read once per distinct
        rope node: every arc position of the route is a multiple of
        ``1 / (4 * length_den)`` under the adversary's schedules."""
        den = 1
        seen = {id(self._root)}
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                den = lcm(den, *(s.length.denominator for s in node.steps))
                continue
            for kid in (node.kid,) if isinstance(node, _Rev) else node.kids:
                if id(kid) not in seen:
                    seen.add(id(kid))
                    stack.append(kid)
        return den

    def node_after(self, i: int) -> NodeHandle:
        """Node reached after the first ``i`` steps."""
        if i == 0:
            return self.start
        return self.step_at(i - 1).v


def route_from_steps(start: NodeHandle, steps: Iterable[EdgeTraversal]) -> Route:
    steps = tuple(steps)
    cur = start
    for step in steps:
        if step.u != cur:
            raise ValueError(f"route not chained at {step!r}")
        cur = step.v
    return Route(start, _leaf(steps))


def reverse_route(r: Route) -> Route:
    """The same edges in reverse order, each traversal reversed."""
    return Route(r.end, _rev(r._root))


def concat_routes(first: Route, *rest: Route) -> Route:
    cur = first.end
    kids = [first._root]
    for r in rest:
        if r.start != cur:
            raise ValueError("concatenation endpoints do not chain")
        kids.append(r._root)
        cur = r.end
    return Route(first.start, _cat(*kids))


# Internal builder API (used by the rendezvous recursion) -------------------

def _leaf(steps: tuple[EdgeTraversal, ...]):
    return _Leaf(steps) if steps else _EMPTY


def _cat(*nodes):
    kids = tuple([n for n in nodes if n.length])
    if len(kids) > 1:
        return _Cat(kids, sum([n.length for n in kids]))
    return kids[0] if kids else _EMPTY


def _rev(node):
    if node.length == 0:
        return _EMPTY
    if isinstance(node, _Rev):
        return node.kid
    return _Rev(node)


class _StepIds:
    """One end of each step of a route, as interned ints read off the rope.

    ``ids[i]`` is the id of step i's ``(u, out_port)``, or of its
    ``(v, in_port)`` when ``in_end`` is set; ``table`` interns the ends as
    the ids 0, 1, 2, ... in the order first read, and is shared by the
    routes being compared.  ``ids`` grows on demand by ``fill``.  Each rope
    node is expanded at most once per orientation: a ``(node, reversed)``
    pair met again is a slice copy of where it was first written.  Python
    work is O(DAG nodes) plus the leaves' steps.
    """

    def __init__(self, route: Route, table: dict, in_end: bool = False):
        self.ids = array("i")
        self._table = table
        # a reversed step's (u, out_port) is the step's (v, in_port), so a
        # leaf met reversed reads the other end: _ends[reversed]
        ends = (attrgetter("u", "out_port"), attrgetter("v", "in_port"))
        self._ends = ends[::-1] if in_end else ends
        self._first: dict = {}  # (node, reversed) -> offset of its first copy
        self._stack = [(route._root, False)]

    def fill(self, n: int) -> None:
        """Extend ``ids`` to at least ``n`` steps, or to the route's end."""
        ids, table, first, stack = self.ids, self._table, self._first, self._stack
        while len(ids) < n and stack:
            node, rev = key = stack.pop()
            at = first.get(key)
            if at is not None:
                ids.extend(ids[at : at + node.length])
                continue
            first[key] = len(ids)
            if isinstance(node, _Rev):
                stack.append((node.kid, not rev))
            elif isinstance(node, _Cat):
                kids = node.kids if rev else reversed(node.kids)
                stack.extend((kid, rev) for kid in kids)
            else:
                end = self._ends[rev]
                steps = reversed(node.steps) if rev else node.steps
                ids.extend([table.setdefault(e, len(table)) for e in map(end, steps)])


# Text dump -----------------------------------------------------------------

def dump_lines(header: str, rows: Iterable[str], phase_marks) -> str:
    """``header``, then one line per step row, with ``# phase k`` markers
    where each phase begins."""
    lines = [header]
    marks = sorted(phase_marks, key=lambda t: (t[1], t[0]))
    mi = 0
    for idx, row in enumerate(rows):
        while mi < len(marks) and marks[mi][1] == idx:
            lines.append(f"# phase {marks[mi][0]}")
            mi += 1
        lines.append(row)
    while mi < len(marks):
        lines.append(f"# phase {marks[mi][0]}")
        mi += 1
    return "\n".join(lines) + "\n"


def dump_route(r: Route) -> str:
    """One traversal per line ``u<TAB>out_port<TAB>v<TAB>in_port`` with
    ``# phase k`` markers where each phase begins.  The header line names
    the start node so that empty routes stay parseable."""
    return dump_lines(
        f"# start {r.start}",
        (f"{s.u}\t{s.out_port}\t{s.v}\t{s.in_port}" for s in r.steps()),
        r.phase_marks,
    )


def _positive(word: str) -> int:
    """A port or phase number of a dump line: an int of at least 1,
    written as ``str`` writes it (no sign, padding, ``_`` or other digits)."""
    k = int(word)
    if k < 1 or str(k) != word:
        raise ValueError(word)
    return k


def parse_route_dump(text: str) -> Route:
    """Rebuild a route from its dump.

    Edge identity is reconstructed canonically from the two directed
    endpoints; lengths are not carried by the format and default to 1.
    The start is named by the first ``# start`` line before the first
    step, or else is that step's ``u``.  A line that is neither a comment
    nor a traversal, a port or a ``# phase <k>`` number that is not an
    int of at least 1 as the dump writes it, or a step that does not leave
    the node the route is at, is a ``GraphError`` naming its line.
    """
    one = Fraction(1)
    start = None
    steps = []
    marks = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        try:
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:1] == ["phase"]:
                    _, word = parts  # a ValueError unless one word follows
                    marks.append((_positive(word), len(steps)))
                elif len(parts) > 1 and parts[0] == "start" and start is None:
                    start = line[1:].split(None, 1)[1]  # a node name may hold spaces
            elif line:
                u, out_p, v, in_p = line.split("\t")
                out_p, in_p = _positive(out_p), _positive(in_p)
                start = u if start is None else start
                at = steps[-1].v if steps else start
                if u != at:
                    raise GraphError(f"line {number} does not chain from {at!r}: {raw!r}")
                a, b = (u, out_p), (v, in_p)
                steps.append(EdgeTraversal(u, out_p, v, in_p, (min(a, b), max(a, b)), one))
        except ValueError:
            raise GraphError(f"line {number} is not a route dump line: {raw!r}") from None
    if start is None:
        raise GraphError("empty dump needs an explicit start node")
    return Route(start, _leaf(tuple(steps)), marks)
