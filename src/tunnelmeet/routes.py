"""Route representation: a rope of edge traversals.

A route is a chained sequence of edge traversals starting at a fixed
node.  The rendezvous recursion concatenates long stretches of its own
history and of simulated routes over and over, so the step sequence is
held as a rope (a concatenation DAG) whose subtrees are shared.  Each
kid of a concatenation is read forward or backward, backward meaning its
steps in reverse order with every traversal reversed, so a reversal is
a flag on the edge that reads it, not a node.  Building is O(nodes);
only iteration pays for the materialized length, and the step budget
caps that length up front.

Every rope node is built by ``_leaf`` or ``_cat``.  ``_cat`` takes
``(node, backward)`` kids, drops the empty ones and returns a lone
forward kid unchanged; otherwise it builds the ``_Cat`` and gives it its
length.  A ``Route``'s root is read forward.  ``Route.steps``,
``step_at`` and ``node_after`` all read through ``_iter_node``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
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
    __slots__ = ("steps", "length", "_backward")

    def __init__(self, steps: tuple[EdgeTraversal, ...]):
        self.steps = steps
        self.length = len(steps)
        self._backward = None

    def reversed_steps(self) -> tuple[EdgeTraversal, ...]:
        if self._backward is None:
            self._backward = tuple(s.reversed() for s in reversed(self.steps))
        return self._backward


class _Cat:
    # non-empty (node, backward) kids, two or more or one read backward;
    # built only by _cat, which sums the length
    __slots__ = ("kids", "length")

    def __init__(self, kids: tuple, length: int):
        self.kids = kids
        self.length = length


_EMPTY = _Leaf(())


def _iter_node(node, i: int = 0) -> Iterator[EdgeTraversal]:
    """Steps of rope ``node`` from step ``i`` (0, or below its length) on.
    Seeking ``i`` skips each kid that ends before it, O(depth x fan-out);
    then an explicit stack of (kid iterator, flip), one per open _Cat,
    streams the rest: nested generators would pay O(depth) per step.  A
    kid's backward flag flips the direction it is read in."""
    stack, rev = [], False
    while True:
        while type(node) is not _Leaf:  # down to the leaf holding step i
            kids = iter(reversed(node.kids) if rev else node.kids)
            stack.append((kids, rev))
            node, backward = next(kids)
            while i and i >= node.length:
                i, (node, backward) = i - node.length, next(kids)
            rev ^= backward
        steps = node.reversed_steps() if rev else node.steps
        if i:  # the seek's leaf: from step i on, and i is 0 from here
            steps, i = islice(steps, i, None), 0
        yield from steps
        # up to the innermost open _Cat with a kid not yet walked
        while stack and (kid := next(stack[-1][0], None)) is None:
            stack.pop()
        if not stack:
            return
        node, backward = kid
        rev = stack[-1][1] ^ backward


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
        return _iter_node(self._root)

    def step_at(self, i: int) -> EdgeTraversal:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return next(_iter_node(self._root, i))

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
            for kid, _ in node.kids:
                if id(kid) not in seen:
                    seen.add(id(kid))
                    stack.append(kid)
        return den

    def node_after(self, i: int) -> NodeHandle:
        """Node reached after the first ``i`` steps."""
        if not 0 <= i <= self.length:
            raise IndexError(i)
        return next(_iter_node(self._root, i - 1)).v if i else self.start


# Internal builder API (used by the rendezvous recursion) -------------------

def _leaf(steps: tuple[EdgeTraversal, ...]):
    return _Leaf(steps) if steps else _EMPTY


def _cat(*kids):
    kids = tuple([kid for kid in kids if kid[0].length])
    if len(kids) > 1 or kids and kids[0][1]:
        return _Cat(kids, sum([node.length for node, _ in kids]))
    return kids[0][0] if kids else _EMPTY


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
            if isinstance(node, _Cat):
                kids = node.kids if rev else reversed(node.kids)
                stack.extend((kid, rev ^ backward) for kid, backward in kids)
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
