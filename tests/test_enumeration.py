import hashlib
import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelmeet.enumeration import (
    ENUM_VERSION,
    PhaseTable,
    Quadruple,
    pair_decode,
    pair_encode,
    phi,
    phi_index,
    quadruple_weight,
    rational_index,
    rational_pair,
    rational_pair_index,
    rational_value,
    seq_decode,
    seq_encode,
)


def test_pair_base_cases():
    assert pair_encode(0, 0) == 0
    assert pair_encode(1, 0) == 1
    assert pair_encode(0, 1) == 2


def test_pair_round_trip_sweep():
    for n in range(10_000):
        a, b = pair_decode(n)
        assert pair_encode(a, b) == n


@given(st.integers(0, 10**9), st.integers(0, 10**9))
@settings(deadline=None)
def test_pair_decode_inverts_encode(a, b):
    assert pair_decode(pair_encode(a, b)) == (a, b)


def test_seq_shortest_round_trip():
    assert seq_decode(seq_encode((1,))) == (1,)


def test_seq_round_trip_and_injectivity_sweep():
    seen = set()
    for n in range(10_000):
        s = seq_decode(n)
        assert seq_encode(s) == n
        assert s not in seen
        seen.add(s)


def test_seq_rejects_bad_input():
    with pytest.raises(ValueError):
        seq_encode(())
    with pytest.raises(ValueError):
        seq_encode((1, 0))


@given(st.lists(st.integers(1, 50), min_size=1, max_size=8))
@settings(deadline=None)
def test_seq_encode_inverts_decode(seq):
    assert seq_decode(seq_encode(tuple(seq))) == tuple(seq)


def _random_quadruple(rng):
    i = rng.randint(1, 5)
    j = rng.randint(i + 1, i + 5)
    n = rng.randint(1, 4)
    sp = tuple(rng.randint(1, 6) for _ in range(n))
    sd = tuple(rng.randint(1, 6) for _ in range(n))
    return Quadruple(i, j, sp, sd)


def test_phi_round_trip_random():
    rng = random.Random(7)
    for _ in range(1000):
        q = _random_quadruple(rng)
        assert phi(phi_index(q)) == q


def test_phi_invariants_hold_on_head():
    for k in range(1, 10_001):
        q = phi(k)
        assert q.i < q.j
        assert len(q.s_prime) == len(q.s_dprime) >= 1


def test_phi_weight_is_monotone():
    weights = [quadruple_weight(phi(k)) for k in range(1, 2000)]
    assert weights == sorted(weights)


def _table_quadruple(table, k):
    """Phase k of a drawn ``PhaseTable`` as a ``Quadruple``."""
    seqs = table.seqs
    return Quadruple(table.i[k], table.j[k], seqs[table.s_prime[k]], seqs[table.s_dprime[k]])


def test_phi_k0_found_by_scan():
    # scan a phase table, as builders read it, until the quadruple appears
    target = Quadruple(1, 2, (1,), (1,))
    table = PhaseTable()
    table.draw(200)
    k = next(k for k in range(1, 201) if _table_quadruple(table, k) == target)
    assert phi_index(target) == k == 1


def test_compactness_budget():
    assert phi_index(Quadruple(1, 2, (1,), (1,))) <= 64
    assert phi_index(Quadruple(1, 2, (1, 2), (2, 1))) <= 4096


def test_phi_rejects_invalid_quadruples():
    with pytest.raises(ValueError):
        Quadruple(2, 2, (1,), (1,))
    with pytest.raises(ValueError):
        Quadruple(1, 2, (1, 1), (1,))
    with pytest.raises(ValueError):
        Quadruple(1, 2, (), ())
    with pytest.raises(ValueError):
        phi(0)


def test_phase_table_matches_phi():
    table = PhaseTable()
    table.draw(5_000)
    assert len(table.i) == len(table.j) == 5_001
    seqs = table.seqs
    assert len(set(seqs)) == len(seqs)  # each port sequence interned once
    for k in range(1, 5_001):
        assert _table_quadruple(table, k) == phi(k)
    table.draw(10)  # phases already held are not decoded again
    assert len(table.s_prime) == len(table.s_dprime) == 5_001


def test_rational_head_and_injectivity():
    assert rational_value(1) == 0
    seen = set()
    for k in range(1, 10_001):
        x = rational_value(k)
        assert x.denominator > 0
        assert x not in seen
        seen.add(x)
        assert rational_index(x) == k


def test_rational_pair_documented_head():
    assert rational_pair(1) == (Fraction(1, 4), Fraction(0))
    assert rational_pair(2) == (Fraction(-1, 4), Fraction(0))
    assert rational_pair(3) == (Fraction(0), Fraction(0))


def test_rational_pair_injectivity_sweep():
    seen = set()
    for k in range(1, 10_001):
        p = rational_pair(k)
        assert p not in seen
        seen.add(p)


def test_rational_pair_inverse_search():
    rng = random.Random(11)
    for _ in range(1000):
        q1 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        q2 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        k = rational_pair_index(q1, q2)
        assert rational_pair(k) == (q1, q2)
    # exhaustive-scan confirmation on a few pairs
    for q1, q2 in [(Fraction(1, 2), Fraction(0)), (Fraction(-1), Fraction(2))]:
        k = rational_pair_index(q1, q2)
        for kk in range(1, k):
            assert rational_pair(kk) != (q1, q2)
        assert rational_pair(k) == (q1, q2)


def test_golden_file_pins_the_enumeration():
    doc = json.loads(
        resources.files("tunnelmeet").joinpath("data/enum_v1.json").read_text()
    )
    assert doc["version"] == ENUM_VERSION
    assert doc["K0"] == phi_index(Quadruple(1, 2, (1,), (1,)))
    assert doc["golden_deep"] == phi_index(Quadruple(1, 2, (1, 2), (2, 1)))
    from tunnelmeet.cli import _format_quadruple
    from tunnelmeet.graph_model import format_rational

    assert doc["phi_head"] == [_format_quadruple(phi(k)) for k in range(1, 65)]
    assert doc["zpair_head"] == [
        f"({format_rational(p.q1)},{format_rational(p.q2)})"
        for p in (rational_pair(k) for k in range(1, 65))
    ]


def test_order_golden_pins_stream_rank_and_unrank():
    # SHA-256 of the enum-v1 order past the 64-entry head: a mistake that
    # phi and phi_index made consistently would pass every round trip.
    from tunnelmeet.cli import _format_quadruple

    table = PhaseTable()
    table.draw(50_000)  # weights 5 to 19
    stream = hashlib.sha256()
    for k in range(1, 50_001):
        q = _table_quadruple(table, k)
        stream.update(f"{k}\t{_format_quadruple(q)}\n".encode())
        if k % 997 == 1:
            assert phi_index(q) == k
    assert stream.hexdigest() == (
        "d5b3fd9feb4fc00d66423a6b6e89c96372e39fae7f1b59ae80ef896087f712e1"
    )
    rng = random.Random(2011)
    heavy = hashlib.sha256()
    for _ in range(60):  # labels up to 10, n up to 6, ports up to 9
        i = rng.randint(1, 9)
        j = rng.randint(i + 1, 10)
        n = rng.randint(1, 6)
        ports = [tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(2)]
        k = phi_index(Quadruple(i, j, *ports))
        heavy.update(f"{k}\t{_format_quadruple(phi(k))}\n".encode())
    assert heavy.hexdigest() == (
        "77c3e5d5d5495fdafc2ac722514bfb3b4c02a7aad2bb2fe1ef36b0e60dc827d4"
    )
