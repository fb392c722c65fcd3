"""Anonymous port-labeled graphs.

A graph is exposed through a two-method oracle: ``is_port`` and
``traverse``.  Agents never see node names, only local port numbers, so
everything downstream (route construction, tunnel checking) works
against this interface.  Finite graphs are validated adjacency tables;
the lazy ``GENERATORS`` realize infinite graphs, each with its
``origin`` and the ``handle`` (shape, check) of its nodes in a scenario.
Nodes of infinite degree are representable (``is_port`` is the only
total query), though no built-in generator has one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from random import Random
from typing import Hashable

NodeHandle = Hashable
EdgeId = Hashable

GRAPH_SCHEMA = "graph-v1"


class GraphError(Exception):
    """Base class for graph construction and query failures."""


class UnknownNode(GraphError):
    pass


class InvalidPort(GraphError):
    pass


class DuplicatePort(GraphError):
    pass


class DanglingEdge(GraphError):
    pass


class Disconnected(GraphError):
    """The model requires connected graphs; disconnected input is rejected."""


class MalformedField(GraphError):
    """A document field of the wrong shape; the message starts with the
    field's path inside the document, such as ``edges[0].pu``."""


def check_field(value, path: str, shape: str, fits):
    """``value`` when ``fits(value)``, else a ``MalformedField`` naming
    ``path`` and the expected ``shape``."""
    if not fits(value):
        raise MalformedField(f"{path} must be {shape}, got {value!r}")
    return value


def is_int(value) -> bool:
    return type(value) is int  # a JSON true is no int


def is_object(value) -> bool:
    return isinstance(value, dict)


def is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def is_point(value) -> bool:
    return is_list(value) and len(value) == 2


def is_node_name(value) -> bool:
    """Finite-graph node names are ints (not bools) or strings that a route
    dump line can carry: one line, no tab or outer whitespace, no ``#`` first."""
    if isinstance(value, str):
        one_line = value.splitlines() == [value]  # not empty, no line break
        return one_line and value == value.strip() and "\t" not in value and value[0] != "#"
    return is_int(value)


@dataclass(frozen=True)
class EdgeTraversal:
    """One directed edge traversal: leave ``u`` by ``out_port``, enter
    ``v`` by ``in_port``.  ``edge_id`` names the undirected edge."""

    u: NodeHandle
    out_port: int
    v: NodeHandle
    in_port: int
    edge_id: EdgeId
    length: Fraction

    def reversed(self) -> "EdgeTraversal":
        return EdgeTraversal(
            self.v, self.in_port, self.u, self.out_port, self.edge_id, self.length
        )


class PortLabeledGraph:
    """Oracle interface: port validity and traversal."""

    def is_port(self, v: NodeHandle, p: int) -> bool:
        raise NotImplementedError

    def traverse(self, v: NodeHandle, p: int) -> EdgeTraversal:
        raise NotImplementedError


class FiniteGraph(PortLabeledGraph):
    """Validated finite port-labeled graph with an adjacency table."""

    def __init__(self, nodes: list, adjacency: dict):
        # adjacency: node -> {port: (other, other_port, edge_id, length)}
        self._nodes = list(nodes)
        self._adj = adjacency

    @property
    def nodes(self) -> list:
        return list(self._nodes)

    def ports(self, v: NodeHandle) -> list[int]:
        self._check_node(v)
        return sorted(self._adj[v])

    def is_port(self, v: NodeHandle, p: int) -> bool:
        self._check_node(v)
        return p in self._adj[v]

    def traverse(self, v: NodeHandle, p: int) -> EdgeTraversal:
        self._check_node(v)
        entry = self._adj[v].get(p)
        if entry is None:
            raise InvalidPort(f"{p} is not a port at {v!r}")
        other, other_port, edge_id, length = entry
        return EdgeTraversal(v, p, other, other_port, edge_id, length)

    def _check_node(self, v: NodeHandle) -> None:
        if v not in self._adj:
            raise UnknownNode(repr(v))


def build_finite_graph(spec: dict) -> FiniteGraph:
    """Build and validate a finite graph from an adjacency description.

    ``spec`` is ``{"nodes": [...], "edges": [{"u", "pu", "v", "pv",
    "len"}]}`` with lengths as positive rationals (``"num/den"`` strings,
    integers, or Fractions; default 1).  Rejects fields of the wrong
    shape (``MalformedField``), duplicate ports, dangling edges, and
    disconnected graphs.
    """
    nodes = list(check_field(spec.get("nodes"), "nodes", "a list of node names", is_list))
    for n, name in enumerate(nodes):
        check_field(name, f"nodes[{n}]", "a node name", is_node_name)
    if len(set(map(str, nodes))) != len(nodes):  # a route dump writes str(name)
        raise GraphError("duplicate node names")
    node_set = set(nodes)
    adj: dict = {v: {} for v in nodes}
    edges = check_field(spec.get("edges", []), "edges", "a list of edges", is_list)
    for pos, edge in enumerate(edges):
        check_field(edge, f"edges[{pos}]", "an object", is_object)
        u, v = (
            check_field(edge.get(k), f"edges[{pos}].{k}", "a node name", is_node_name)
            for k in ("u", "v")
        )
        pu, pv = (
            check_field(edge.get(k), f"edges[{pos}].{k}", "an int", is_int)
            for k in ("pu", "pv")
        )
        length = rational_field(edge.get("len", 1), f"edges[{pos}].len")
        if length <= 0:
            raise GraphError(f"edge {pos}: non-positive length")
        if u not in node_set or v not in node_set:
            raise DanglingEdge(f"edge {pos}: endpoint not among nodes")
        if pu < 1 or pv < 1:
            raise GraphError(f"edge {pos}: ports must be positive")
        if u == v:
            raise GraphError(f"edge {pos}: self-loops are not supported")
        if pu in adj[u]:
            raise DuplicatePort(f"port {pu} reused at node {u!r}")
        if pv in adj[v]:
            raise DuplicatePort(f"port {pv} reused at node {v!r}")
        adj[u][pu] = (v, pv, pos, length)
        adj[v][pv] = (u, pu, pos, length)
    if nodes:
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for other, _, _, _ in adj[x].values():
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) != len(nodes):
            raise Disconnected(
                f"{len(nodes) - len(seen)} of {len(nodes)} nodes unreachable"
            )
    return FiniteGraph(nodes, adj)


#: the documented rational string form: [+-]num or [+-]num/den in decimal digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Parse an int, a Fraction or a ``"num/den"`` string (optional sign,
    decimal digits, optional ``/den``) to an exact Fraction.  Any other
    form (a bool, a float, ``"0.5"``, ``"1e5"``, ``"1_000"``) is a
    ``GraphError``, so no input text sizes a number by its exponent."""
    if (
        is_int(value)
        or isinstance(value, Fraction)
        or (isinstance(value, str) and _RATIONAL.fullmatch(value))
    ):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise GraphError(f"not an exact rational: {value!r}")


def rational_field(value, path: str) -> Fraction:
    """``parse_rational`` of a document field: a value that is not an
    exact rational is a ``MalformedField`` naming ``path``."""
    try:
        return parse_rational(value)
    except GraphError:
        raise MalformedField(f"{path} must be an exact rational, got {value!r}") from None


def format_rational(x: Fraction | int) -> str:
    """``num/den`` in full.  An output value may have more digits than
    ``str(int)`` allows (a hit point's denominator grows with the
    terrain's); ``Decimal`` writes them, while input stays bounded."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the int-to-str digit limit
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def load_graph_json(doc: dict) -> FiniteGraph:
    if doc.get("schema") != GRAPH_SCHEMA:
        raise GraphError(f"expected schema {GRAPH_SCHEMA!r}")
    return build_finite_graph(doc)


# ---------------------------------------------------------------------------
# Lazy infinite generators
# ---------------------------------------------------------------------------

class _LazyGraph(PortLabeledGraph):
    def __init__(self, unit_length: Fraction):
        self.unit_length = Fraction(unit_length)
        if self.unit_length <= 0:
            raise GraphError("unit_length must be positive")


class InfiniteLine(_LazyGraph):
    """Integers with port 1 = successor, port 2 = predecessor."""

    origin = 0
    handle = ("an int", is_int)

    def is_port(self, v: int, p: int) -> bool:
        return p in (1, 2)

    def traverse(self, v: int, p: int) -> EdgeTraversal:
        if p == 1:
            return EdgeTraversal(v, 1, v + 1, 2, (v, v + 1), self.unit_length)
        if p == 2:
            return EdgeTraversal(v, 2, v - 1, 1, (v - 1, v), self.unit_length)
        raise InvalidPort(f"{p} is not a port on the line")


class InfiniteGrid(_LazyGraph):
    """Z^2 with ports 1..4 = East, North, West, South."""

    origin = (0, 0)
    handle = ("a list of two ints", lambda v: is_point(v) and all(map(is_int, v)))
    _STEPS = {1: (1, 0), 2: (0, 1), 3: (-1, 0), 4: (0, -1)}

    def is_port(self, v: tuple[int, int], p: int) -> bool:
        return p in self._STEPS

    def traverse(self, v: tuple[int, int], p: int) -> EdgeTraversal:
        step = self._STEPS.get(p)
        if step is None:
            raise InvalidPort(f"{p} is not a port on the grid")
        w = (v[0] + step[0], v[1] + step[1])
        back = {1: 3, 2: 4, 3: 1, 4: 2}[p]
        return EdgeTraversal(v, p, w, back, (min(v, w), max(v, w)), self.unit_length)


class InfiniteBinaryTree(_LazyGraph):
    """Rooted infinite binary tree.

    Handles are tuples over {0, 1}; the root is ().  Ports 1 and 2 lead
    to the left and right child; port 3 (absent at the root) leads to the
    parent.
    """

    origin = ()
    handle = (
        "a list of 0s and 1s",
        lambda v: is_list(v) and all(is_int(c) and c in (0, 1) for c in v),
    )

    def is_port(self, v: tuple, p: int) -> bool:
        if p in (1, 2):
            return True
        return p == 3 and len(v) > 0

    def traverse(self, v: tuple, p: int) -> EdgeTraversal:
        if p in (1, 2):
            w = v + (p - 1,)
            return EdgeTraversal(v, p, w, 3, (v, w), self.unit_length)
        if p == 3 and v:
            w = v[:-1]
            return EdgeTraversal(v, 3, w, v[-1] + 1, (w, v), self.unit_length)
        raise InvalidPort(f"{p} is not a port at {v!r}")


GENERATORS = {
    "infinite_line": InfiniteLine,
    "infinite_grid": InfiniteGrid,
    "infinite_binary_tree": InfiniteBinaryTree,
}


def generator(kind: str, unit_length=Fraction(1)) -> PortLabeledGraph:
    """Lazy infinite graph of the given kind; all edges have unit_length."""
    try:
        cls = GENERATORS[kind]
    except KeyError:
        raise GraphError(f"unknown generator kind {kind!r}") from None
    return cls(parse_rational(unit_length))


# ---------------------------------------------------------------------------
# Seeded random finite graphs (desk-scale test worlds)
# ---------------------------------------------------------------------------

def random_connected_graph(num_nodes: int, seed: int) -> FiniteGraph:
    """Random connected graph: a random attachment tree plus at most one
    random chord, ports randomly permuted per node.
    """
    rng = Random(seed)
    names = [f"n{i}" for i in range(num_nodes)]
    pairs = set()
    for i in range(1, num_nodes):
        j = rng.randrange(i)
        pairs.add((min(i, j), max(i, j)))
    candidates = [
        (i, j)
        for i in range(num_nodes)
        for j in range(i + 1, num_nodes)
        if (i, j) not in pairs
    ]
    rng.shuffle(candidates)
    if candidates and rng.random() < 0.5:
        pairs.add(candidates[0])
    ordered = sorted(pairs)
    degree = {i: 0 for i in range(num_nodes)}
    for i, j in ordered:
        degree[i] += 1
        degree[j] += 1
    port_pool = {i: rng.sample(range(1, degree[i] + 1), degree[i]) for i in range(num_nodes)}
    edges = []
    for i, j in ordered:
        edges.append(
            {
                "u": names[i],
                "pu": port_pool[i].pop(),
                "v": names[j],
                "pv": port_pool[j].pop(),
                "len": 1,
            }
        )
    return build_finite_graph({"nodes": names, "edges": edges})
