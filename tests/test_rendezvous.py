import itertools
import random
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    c4,
    infinite_corpus,
    k2,
    p3,
    prefix,
    random_walk_route,
    true_quadruple,
)
from tunnelmeet import enumeration, rendezvous
from tunnelmeet.enumeration import Quadruple, phi_index
from tunnelmeet.graph_model import generator, random_connected_graph
from tunnelmeet.rendezvous import Limits, RouteBuilder, graph_rv, tunnel_check
from tunnelmeet.routes import (
    StepBudgetExceeded,
    _Cat,
    _Rev,
    concat_routes,
    reverse_route,
    route_from_steps,
)


def test_zero_phases_is_empty_route():
    g = k2()
    r = graph_rv(g, "A", 1, Limits(0))
    assert r.length == 0
    assert r.start == "A"


def test_k2_phase_one_trace():
    # phase 1 processes (1,2,(1),(1)): walk to B, simulate zero phases of
    # the partner, come back, walk again, and backtrack
    g = k2()
    r = graph_rv(g, "A", 1, Limits(1))
    trace = [(s.u, s.v) for s in r.steps()]
    assert trace == [("A", "B"), ("B", "A"), ("A", "B"), ("B", "A")]
    assert r.phase_marks == [(1, 0)]


def test_short_circuit_walk_appends_prefix_and_backtrack():
    # a quadruple whose port sequence dies mid-walk adds the walked
    # prefix and its reverse, nothing else
    g = k2()
    q = Quadruple(1, 2, (1, 2), (1, 1))
    k = phi_index(q)
    r_before = graph_rv(g, "A", 1, Limits(k - 1))
    r_after = graph_rv(g, "A", 1, Limits(k))
    added = list(islice(r_after.steps(), r_before.length, None))
    # port 1 works (A->B), port 2 is not a port at B: prefix length one
    assert [(s.u, s.v) for s in added] == [("A", "B"), ("B", "A")]
    assert r_after.node_after(r_after.length) == "A"


def test_phase_closure_on_small_worlds():
    for g, start in ((k2(), "A"), (p3(), "B"), (c4(), "c")):
        for label in (1, 2):
            r = graph_rv(g, start, label, Limits(25))
            for _, mark in r.phase_marks:
                assert r.node_after(mark) == start


def test_simulation_mode_is_main_mode_prefix():
    g = p3()
    full = graph_rv(g, "A", 2, Limits(40))
    marks = dict(full.phase_marks)
    for p in range(0, 11):
        sim = graph_rv(g, "A", 2, Limits(p))
        want = marks.get(p + 1, full.length)
        assert sim.length == want
        assert list(sim.steps()) == list(islice(full.steps(), want))


def test_rerun_is_bit_identical():
    g = c4()
    a = graph_rv(g, "a", 2, Limits(30))
    b = graph_rv(g, "a", 2, Limits(30))
    assert list(a.steps()) == list(b.steps())
    assert a.phase_marks == b.phase_marks


def test_tunnel_k2_single_edges():
    g = k2()
    r1 = route_from_steps("A", [g.traverse("A", 1)])
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    cert = tunnel_check(r1, r2)
    assert cert is not None and cert.n == 1
    step = r1.step_at(0)
    assert (step.u, step.v) == ("A", "B")


def test_tunnel_none_for_wrong_endpoints():
    g = c4()
    r1 = route_from_steps("a", [g.traverse("a", 1)])  # a -> b
    r2 = route_from_steps("c", [g.traverse("c", 1)])  # c -> d
    assert tunnel_check(r1, r2) is None


def test_tunnel_none_for_empty_routes():
    g = k2()
    r1 = route_from_steps("A", [])
    r2 = route_from_steps("B", [g.traverse("B", 1)])
    assert tunnel_check(r1, r2) is None


def test_k2_tunnel_after_true_phase():
    g = k2()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        k, _ = true_quadruple(g, "A", "B", i, j)
        r1 = graph_rv(g, "A", i, Limits(k))
        r2 = graph_rv(g, "B", j, Limits(k))
        assert tunnel_check(r1, r2) is not None


def test_p3_tunnel_at_true_phase_from_ends():
    g = p3()
    k, quad = true_quadruple(g, "A", "B", 1, 2)
    r1 = graph_rv(g, "A", 1, Limits(k))
    r2 = graph_rv(g, "B", 2, Limits(k))
    assert tunnel_check(r1, r2) is not None


def test_theorem_concatenation_forms_the_stated_tunnel():
    # build rho and rho' literally from the phase-(k-1) routes and the
    # connecting path, and check the certificate length |rho| - |q|
    g = p3()
    k, quad = true_quadruple(g, "A", "B", 1, 2)
    r_v = graph_rv(g, "A", 1, Limits(k - 1))
    r_w = graph_rv(g, "B", 2, Limits(k - 1))
    q_steps = [g.traverse("A", quad.s_prime[0])]
    q_steps.append(g.traverse(q_steps[0].v, quad.s_prime[1]))
    q = route_from_steps("A", q_steps)
    qb = reverse_route(q)
    rho = concat_routes(
        r_v, q, r_w, qb, reverse_route(r_v), q, reverse_route(r_w), qb
    )
    rho_p = concat_routes(
        r_w, qb, r_v, q, reverse_route(r_w), qb, reverse_route(r_v), q
    )
    cert = tunnel_check(rho, rho_p)
    assert cert is not None
    assert cert.n == rho.length - q.length
    # the constructed pair matches what the algorithm itself emits
    algo = graph_rv(g, "A", 1, Limits(k))
    assert list(algo.steps()) == list(rho.steps())


def _brute_tunnel_n(r1, r2):
    # quadratic reference implementation of the tunnel relation
    x = list(r1.steps())
    y = list(r2.steps())

    def same(a, b):
        return (a.u, a.out_port, a.v, a.in_port, a.edge_id) == (
            b.u,
            b.out_port,
            b.v,
            b.in_port,
            b.edge_id,
        )

    for n in range(1, min(len(x), len(y)) + 1):
        if all(same(x[m], y[n - 1 - m].reversed()) for m in range(n)):
            return n
    return None


def _on_both_paths(scan):
    """``scan()`` on both paths of the tunnel scan: the string search at its
    default cap, at cap 0 (every window with a candidate goes to KMP) and
    switched off (KMP only)."""
    out = []
    for patch in ((), (("_CHECKS", 0),), (("_search", lambda *args: None),)):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patch:
                mp.setattr(rendezvous, name, value)
            out.append(scan())
    return out


def _scan_matches_brute(r1, r2):
    """Assert that both paths of tunnel_check agree with the reference;
    return its n."""
    want = _brute_tunnel_n(r1, r2)
    certs = _on_both_paths(lambda: tunnel_check(r1, r2))
    assert [cert.n if cert else None for cert in certs] == [want] * 3
    return want


def _ports_walk(g, start, ports):
    steps, node = [], start
    for p in ports:
        steps.append(g.traverse(node, p))
        node = steps[-1].v
    return steps


def test_tunnel_check_matches_brute_force():
    rng = random.Random(47)
    for trial in range(60):
        g = random_connected_graph(5, trial % 7)

        def walk(start, length):
            return random_walk_route(g, start, length, rng)

        r1 = walk(g.nodes[rng.randrange(5)], rng.randint(1, 12))
        if trial % 2:
            # plant a tunnel: r2 begins with the reversal of an r1 prefix
            cut = rng.randint(1, r1.length)
            planted = reverse_route(prefix(r1, cut))
            r2 = concat_routes(planted, walk(planted.end, rng.randint(0, 6)))
        else:
            r2 = walk(g.nodes[rng.randrange(5)], rng.randint(1, 12))
        want = _brute_tunnel_n(r1, r2)
        got = tunnel_check(r1, r2)
        assert (got.n if got else None) == want, trial


def test_tunnel_check_on_periodic_routes():
    # K2 routes alternate A->B, B->A; C4 routes circle the cycle.  Every
    # length is periodic, so the prefix function's chains are long.
    g = k2()
    for a, b in itertools.product((1, 2, 63, 64, 65, 130), repeat=2):
        for start2 in ("A", "B"):
            r1 = route_from_steps("A", _ports_walk(g, "A", [1] * a))
            r2 = route_from_steps(start2, _ports_walk(g, start2, [1] * b))
            _scan_matches_brute(r1, r2)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        k, _ = true_quadruple(g, "A", "B", i, j)
        for cap in (k - 1, k):
            r1, r2 = graph_rv(g, "A", i, Limits(cap)), graph_rv(g, "B", j, Limits(cap))
            _scan_matches_brute(r1, r2)
    g = c4()
    for a, b in ((70, 300), (300, 70), (257, 257)):
        for start2, port2 in itertools.product("abcd", (1, 2)):
            r1 = route_from_steps("a", _ports_walk(g, "a", [1] * a))
            r2 = route_from_steps(start2, _ports_walk(g, start2, [port2] * b))
            _scan_matches_brute(r1, r2)


def test_tunnel_check_on_ropes_sharing_subtrees():
    # route one reads h forward, then under a reverse node; route two
    # starts with reversed pieces of route one, so tunnels cross copies
    rng = random.Random(53)
    g = random_connected_graph(5, 4)
    for trial in range(40):
        a = random_walk_route(g, g.nodes[trial % 5], rng.randint(1, 50), rng)
        b = random_walk_route(g, a.end, rng.randint(1, 50), rng)
        h = concat_routes(a, b)
        r1 = concat_routes(h, reverse_route(h), a, b, reverse_route(b))
        if trial % 2:
            head = reverse_route(h if trial % 4 == 1 else a)
        else:
            head = random_walk_route(g, g.nodes[rng.randrange(5)], rng.randint(1, 50), rng)
        tail = random_walk_route(g, head.end, rng.randint(0, 80), rng)
        r2 = concat_routes(head, tail, reverse_route(tail), tail)
        _scan_matches_brute(r1, r2)


# On the infinite line port 1 steps up and port 2 down.  Route one's first
# step 0 -> 1 never recurs (the walk stays at 1 or above), so a planted
# tunnel of length n is the only one of length n or less, and a tail that
# stays at 0 or below never closes a longer one.

def _line_route_one(rng, length):
    ports, pos = [1], 1
    for _ in range(length - 1):
        p = 1 if pos == 1 or (pos < 4 and rng.random() < 0.5) else 2
        pos += 1 if p == 1 else -1
        ports.append(p)
    return route_from_steps(0, _ports_walk(generator("infinite_line"), 0, ports))


def _line_route_two(head, tail_length):
    line = generator("infinite_line")
    tail = route_from_steps(0, _ports_walk(line, 0, [2] * tail_length))
    return concat_routes(reverse_route(head), tail)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 256, 257, 300, 1000])
def test_tunnel_check_planted_at_window_edges(n):
    rng = random.Random(n)
    r1 = _line_route_one(rng, n + 40)
    assert _scan_matches_brute(r1, _line_route_two(prefix(r1, n), 30)) == n
    # the tunnel is the whole of the shorter route
    assert _scan_matches_brute(r1, _line_route_two(prefix(r1, n), 0)) == n
    assert _scan_matches_brute(prefix(r1, n), _line_route_two(prefix(r1, n), 30)) == n


@pytest.mark.parametrize("n", [64, 257, 1000])
def test_tunnel_check_rejects_long_partial_matches(n):
    # route two reversed reads route one's first n-1 steps, then turns the
    # other way: the matcher gets n-1 steps in and has to fall back
    rng = random.Random(n)
    r1 = _line_route_one(rng, n + 40)
    steps = list(prefix(r1, n - 1).steps())
    line = generator("infinite_line")
    last = r1.step_at(n - 1)
    steps.append(line.traverse(last.u, 3 - last.out_port))
    head = route_from_steps(0, steps)
    assert _scan_matches_brute(r1, _line_route_two(head, 30)) is None


@st.composite
def _route_pairs(draw):
    """Small route pairs: random walks (route two planted with a reversed
    prefix of route one, or not), periodic K2/C4 walks, and line routes
    with a tunnel planted at a window edge."""
    kind = draw(st.sampled_from(("walks", "periodic", "window")))
    if kind == "window":
        n = draw(st.sampled_from((64, 65, 256, 257, 1024, 1025)))
        r1 = _line_route_one(random.Random(draw(st.integers(0, 999))), n + draw(st.integers(0, 40)))
        return r1, _line_route_two(prefix(r1, n), draw(st.integers(0, 40)))
    if kind == "periodic":
        g, start, ports = draw(st.sampled_from(((k2(), "AB", (1,)), (c4(), "abcd", (1, 2)))))
        r1 = route_from_steps(start[0], _ports_walk(g, start[0], [1] * draw(st.integers(1, 300))))
        start2, port2 = draw(st.sampled_from(start)), draw(st.sampled_from(ports))
        b = draw(st.integers(1, 300))
        return r1, route_from_steps(start2, _ports_walk(g, start2, [port2] * b))
    g = random_connected_graph(5, draw(st.integers(0, 9)))

    def walk(start):
        picks = draw(st.lists(st.integers(0, 3), max_size=60))
        steps, node = [], start
        for pick in picks:
            ports = g.ports(node)
            steps.append(g.traverse(node, ports[pick % len(ports)]))
            node = steps[-1].v
        return route_from_steps(start, steps)

    r1 = walk(g.nodes[draw(st.integers(0, 4))])
    if draw(st.booleans()):
        r1 = concat_routes(r1, reverse_route(r1), r1)  # a rope with shared, reversed parts
    if r1.length and draw(st.booleans()):
        head = reverse_route(prefix(r1, draw(st.integers(1, r1.length))))
        return r1, concat_routes(head, walk(head.end))
    return r1, walk(g.nodes[draw(st.integers(0, 4))])


@settings(max_examples=120, deadline=None)
@given(_route_pairs())
def test_string_search_and_kmp_agree_with_brute_force(pair):
    _scan_matches_brute(*pair)


def _ids_tunnel(x, z, limit):
    """The smallest tunnel of id arrays that already hold ``limit`` ids."""
    return rendezvous._smallest_tunnel(x, z, limit, lambda m: None)


@st.composite
def _id_pairs(draw):
    """Id arrays over one to three ids, route one's periodic or not, with
    route two's first ``cut`` ids planted as route one's reversed."""
    ids = st.integers(0, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        period, length = draw(st.lists(ids, min_size=1, max_size=5)), draw(st.integers(1, 400))
        x = (period * length)[:length]
    else:
        x = draw(st.lists(ids, min_size=1, max_size=400))
    cut = draw(st.integers(0, len(x)))
    return x, x[:cut][::-1] + draw(st.lists(ids, max_size=400))


@settings(max_examples=300, deadline=None)
@given(_id_pairs())
def test_string_search_and_kmp_agree_on_id_arrays(pair):
    x, z = pair
    limit = min(len(x), len(z))
    want = next((n for n in range(1, limit + 1) if x[:n] == z[n - 1 :: -1]), 0)
    assert _on_both_paths(lambda: _ids_tunnel(array("i", x), array("i", z), limit)) == [want] * 3


def _counted_windows(monkeypatch):
    """Record the number of exact checks of each window's string search,
    and whether the window gave up to KMP.  Only counts are kept: a check's
    arguments are as long as its window."""
    windows, checks = [], [0]
    search, occurs = rendezvous._search, rendezvous._occurs

    def counted_search(*args):
        checks[0] = 0
        n = search(*args)
        windows.append((checks[0], n is None))
        return n

    def counted_occurs(*args):
        checks[0] += 1
        return occurs(*args)

    monkeypatch.setattr(rendezvous, "_search", counted_search)
    monkeypatch.setattr(rendezvous, "_occurs", counted_occurs)
    return windows


@pytest.mark.parametrize("tunnel", [False, True])
def test_periodic_worst_case_is_linear(monkeypatch, tunnel):
    # x = 0^L against w = 0^(L-1)1: in every window the needle 0^(lo+1)
    # occurs at nearly every position of z = 1 0^(L-1) and every candidate
    # fails, so an uncapped search is quadratic.  With tunnel, x ends in 1
    # as well: the whole last window is the one tunnel, and its candidate
    # comes after all the others.  Each window makes at most _CHECKS exact
    # checks (each one linear in the window) before KMP, a linear pass,
    # takes over.
    length = 200_000
    x = array("i", [0] * length)
    z = array("i", [1] + [0] * (length - 1))
    if tunnel:
        x[-1] = 1
    want = length if tunnel else 0
    windows = _counted_windows(monkeypatch)
    assert _ids_tunnel(x, z, length) == want
    # windows of 64, 256, ..., 65536, then 200,000 steps: each one made
    # _CHECKS checks and gave up
    assert windows == [(rendezvous._CHECKS, True)] * 7
    assert _on_both_paths(lambda: _ids_tunnel(x, z, length)) == [want] * 3


def test_one_long_tunnel_behind_a_period_is_found_at_once(monkeypatch):
    # x = a C (ab)^K d and z = x reversed: the one tunnel is the whole of
    # x.  A backward search for x's prefix inside x would match each
    # aligned a from the needle's end and fail near its start, which is
    # quadratic; past the first window (a lone a, found everywhere) the
    # needle x[lo::-1] ends in C a, so the forward search finds nothing
    # in a window short of x and the tunnel at once in the last.
    x = array("i", [0, 2, 3, 4] + [0, 1] * (2**17 - 3) + [5])
    z = x[::-1]
    windows = _counted_windows(monkeypatch)
    assert _ids_tunnel(x, z, len(x)) == len(x)
    assert windows[1:] == [(0, False)] * (len(windows) - 2) + [(1, False)]
    monkeypatch.undo()
    monkeypatch.setattr(rendezvous, "_search", lambda *args: None)  # KMP only
    assert _ids_tunnel(x, z, len(x)) == len(x)


def test_ids_past_the_surrogate_block_stay_on_the_string_search(monkeypatch):
    # route one climbs the line from 0, so each of its steps is a new end
    # and the shared table crosses 0xD800; route two walks the first n of
    # them back down, then on below 0, so the one tunnel is n, past 0xD800
    line = generator("infinite_line")
    n = 58_000
    r1 = route_from_steps(0, _ports_walk(line, 0, [1] * 60_000))
    r2 = _line_route_two(prefix(r1, n), 2_000)
    windows = _counted_windows(monkeypatch)
    assert tunnel_check(r1, r2).n == n
    assert all(not gave_up for _, gave_up in windows)  # every window decoded
    assert [cert.n for cert in _on_both_paths(lambda: tunnel_check(r1, r2))] == [n] * 3


def test_ids_past_the_last_code_point_fall_back_to_kmp(monkeypatch):
    # ids 0xD800 + i are surrogates, which decode; ids 0x110000 + i, at
    # steps 300-399 of route one, are past the last code point and do not.
    # The one tunnel is n = 700, and route two's first 256 steps are route
    # one's steps 699 down to 444, so the windows of 64 and 256 steps
    # decode and the last window, of 1,000, is finished by KMP
    x = array("i", [0x110000 + i if 300 <= i < 400 else 0xD800 + i for i in range(1000)])
    n = 700
    z = x[n - 1 :: -1] + array("i", [0] * 300)
    windows = _counted_windows(monkeypatch)
    assert _ids_tunnel(x, z, len(x)) == n
    assert [gave_up for _, gave_up in windows] == [False, False, True]
    monkeypatch.undo()
    assert _on_both_paths(lambda: _ids_tunnel(x, z, len(x))) == [n] * 3


def test_infinite_worlds_build_and_certify_routes():
    # every instance at its true phase and the 10^7 budget; the split is
    # pinned as found, with no start or label chosen to make more fit
    records = infinite_corpus()
    built = [r for r in records if r["routes"]]
    for rec in built:
        assert rec["cert"] is not None, (rec["world"], rec["labels"], rec["starts"])
        for route, start in zip(rec["routes"], rec["starts"]):
            assert all(route.node_after(mark) == start for _, mark in route.phase_marks)
    over = [r for r in records if not r["routes"]]
    listing = "\n".join(
        f"{r['world']} labels={r['labels']} starts={r['starts']} phase={r['phase']}: "
        f"length {r['over_length']} in the run of label {r['over_label']}"
        for r in over
    )
    assert all(r["over_length"] > 10**7 for r in over), listing
    assert (len(records), len(built), len(over)) == (66, 25, 41), listing


def test_step_budget_guard():
    g = k2()
    with pytest.raises(StepBudgetExceeded) as info:
        graph_rv(g, "A", 1, Limits(500, step_budget=10_000))
    exc = info.value
    assert str(exc) == f"route for label 1 exceeds 10000 steps at phase {exc.phase}"
    # the phase is the first one over budget, and the length is exactly
    # what the route would have been after it
    assert graph_rv(g, "A", 1, Limits(exc.phase - 1, step_budget=10_000)).length <= 10_000
    assert exc.length == graph_rv(g, "A", 1, Limits(exc.phase, step_budget=10**9)).length
    assert exc.length > 10_000


def test_budget_error_inside_a_simulated_partner_run():
    with pytest.raises(StepBudgetExceeded) as info:
        graph_rv(c4(), "c", 1, Limits(400, step_budget=1000))
    exc = info.value
    assert str(exc) == "route for label 2 exceeds 1000 steps at phase 24"
    assert (exc.length, exc.phase, exc.label) == (1252, 24, 2)


def _same_route(a, b):
    assert a.start == b.start
    assert list(a.steps()) == list(b.steps())
    assert a.phase_marks == b.phase_marks


@pytest.mark.parametrize(
    "g,limits,failing,fitting",
    [
        (c4(), Limits(400, 1000), ("c", 1), ("c", 5)),
        # the failing request extends the partner run (n0, 2) that the
        # fitting one then reads
        (random_connected_graph(5, 0), Limits(40, 10**4), ("n1", 1), ("n0", 2)),
    ],
)
def test_builder_reused_after_a_budget_error(g, limits, failing, fitting):
    builder = RouteBuilder(g, limits)
    errors = []
    for _ in range(2):
        with pytest.raises(StepBudgetExceeded) as info:
            builder.route(*failing)
        exc = info.value
        errors.append((str(exc), exc.length, exc.phase, exc.label))
    assert errors[0] == errors[1]
    with pytest.raises(StepBudgetExceeded) as info:
        graph_rv(g, *failing, limits)
    fresh = info.value
    assert errors[0] == (str(fresh), fresh.length, fresh.phase, fresh.label)
    _same_route(builder.route(*fitting), graph_rv(g, *fitting, limits))


@pytest.mark.parametrize("seed", [1, 2])
def test_one_builder_for_both_agents(seed):
    g = random_connected_graph(5, seed)
    v, w = random.Random(seed).sample(g.nodes, 2)
    limits = Limits(40, 10**5)
    builder = RouteBuilder(g, limits)
    for start, label in ((v, 1), (w, 2)):
        _same_route(builder.route(start, label), graph_rv(g, start, label, limits))


@pytest.mark.parametrize(
    "g,start,cap", [(c4(), "a", 60), (random_connected_graph(5, 3), "n0", 200)]
)
def test_no_phase_is_replayed(monkeypatch, g, start, cap):
    # a fresh phase table for the process decodes each phase once, however
    # many builders and graph_rv calls read it; the budget never fires, so
    # the recursion goes as far as asked
    drawn = []
    phi = enumeration.phi

    def counted(k):
        drawn.append(k)
        return phi(k)

    monkeypatch.setattr(enumeration, "phi", counted)
    monkeypatch.setattr(rendezvous, "PHASES", enumeration.PhaseTable())
    limits = Limits(cap, step_budget=10**30)
    for label in (1, 2):
        RouteBuilder(g, limits).route(start, label)
        graph_rv(g, start, label, Limits(cap // 2, step_budget=10**30))
    assert drawn == list(range(1, cap + 1))
    # no (start, ports) walk is taken twice in one builder
    traversed = []
    traverse = type(g).traverse

    def counted_traverse(self, u, port):
        traversed.append((u, port))
        return traverse(self, u, port)

    def walked(v, ports):
        n = 0
        for port in ports:
            if not g.is_port(v, port):
                break
            v = traverse(g, v, port).v
            n += 1
        return n

    monkeypatch.setattr(type(g), "traverse", counted_traverse)
    builder = RouteBuilder(g, limits)
    builder.route(start, 1)
    assert traversed
    seqs = rendezvous.PHASES.seqs
    assert len(traversed) == sum(walked(v, seqs[seq]) for v, seq in builder.walks)


def test_a_run_over_budget_decodes_no_phase_past_its_crossing(monkeypatch):
    # the table grows as runs reach phases: a run stopped by the budget at
    # phase 4 of a 100,000-phase cap leaves phases 1-4 decoded
    table = enumeration.PhaseTable()
    monkeypatch.setattr(rendezvous, "PHASES", table)
    with pytest.raises(StepBudgetExceeded) as info:
        graph_rv(k2(), "A", 1, Limits(100_000, 10))
    assert info.value.phase == 4
    assert len(table.i) - 1 == 4


def _rope_nodes(*roots):
    """Every distinct rope node reachable from ``roots``."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, _Rev):
                stack.append(node.kid)
            elif isinstance(node, _Cat):
                stack.extend(node.kids)
    return list(seen.values())


def test_a_phase_adds_at_most_one_rope_node():
    g = random_connected_graph(5, 3)
    builder = RouteBuilder(g, Limits(200, 10**30))
    builder.route("n0", 1)
    builder.route("n1", 2)
    runs = list(builder.runs.values())
    grown = [
        (ropes[k - 1], ropes[k])
        for ropes in runs
        for k in range(1, len(ropes))
        if ropes[k] is not ropes[k - 1]
    ]
    cats = [n for n in _rope_nodes(*(r for ropes in runs for r in ropes)) if isinstance(n, _Cat)]
    assert len(grown) > 1000
    assert len(cats) == len(grown)
    for node in cats:
        assert len(node.kids) >= 2
        assert all(kid.length for kid in node.kids)
        assert node.length == sum(kid.length for kid in node.kids)
    # a grown rope is one _cat whose first kid is the rope before it
    for before, after in grown:
        assert isinstance(after, _Cat)
        assert not before.length or after.kids[0] is before


def test_routes_are_chained_and_use_confirmed_ports():
    g = random_connected_graph(5, 3)
    r = graph_rv(g, g.nodes[0], 1, Limits(30))
    node = r.start
    for step in islice(r.steps(), 2000):
        assert step.u == node
        assert g.is_port(step.u, step.out_port)
        node = step.v
