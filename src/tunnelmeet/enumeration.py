"""Constructive bijections behind the rendezvous engine.

Three codecs live here:

* the Cantor pairing function and its inverse,
* a codec between non-empty sequences of positive integers and the
  naturals,
* the hypothesis enumeration ``phi`` mapping positive integers onto all
  quadruples ``(i, j, s', s'')`` with ``i < j`` and equal-length port
  sequences, plus its inverse ``phi_index``.

A fourth enumeration, ``rational_pair``, lists all pairs of rationals;
it provides the port numbering of terrain graphs.

``phi`` is graded by a weight so that quadruples with small labels and
small port numbers come first.  Route length in the rendezvous engine
grows roughly exponentially with the number of "firing" quadruples that
precede the one matching the agents' real configuration, so the grading
is the knob that keeps desk-scale runs affordable.  The order is frozen
(see ``ENUM_VERSION`` and the shipped golden file); changing it is a
breaking format change.

The route builder reads only ``PHASES``, the process's ``PhaseTable``,
and terrain ports use ``rational_pair`` and its inverse
``rational_pair_index``; the rational zig-zag under both is written
once, in ``_block``.  ``phi_index`` and the sequence codec
``seq_encode``/``seq_decode`` are oracles: the acceptance tests check
the bijections with them, and ``phi_index`` names the phase at which a
world's true hypothesis comes up.

The order within a weight class is written once, in ``_blocks``, and
both ``phi`` and ``phi_index`` walk it; ``phi`` is the one decoder, and
``PhaseTable`` reads it once per phase.  Module-level caches hold only
pure functions of small ints, never world data: label pairs per budget
(``_label_pairs``), one class start per weight (``_CLASS_STARTS``) and
the phases decoded so far (``PHASES``), each drawn once per process as
runs reach it.  Blocks are not cached: heavy round trips reach weights
near 200, where caching each block costs tens of MiB.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt
from typing import Iterator, NamedTuple, Sequence

ENUM_VERSION = "enum-v1"

#: Smallest possible quadruple weight: b(1) + b(2) + 1 + 1.
_MIN_WEIGHT = 5


# ---------------------------------------------------------------------------
# Cantor pairing
# ---------------------------------------------------------------------------

def pair_encode(a: int, b: int) -> int:
    """Cantor pairing (a+b)(a+b+1)/2 + b, a bijection NxN -> N.

    >>> pair_encode(0, 0), pair_encode(1, 0), pair_encode(0, 1)
    (0, 1, 2)
    """
    if a < 0 or b < 0:
        raise ValueError("pair_encode takes naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def pair_decode(n: int) -> tuple[int, int]:
    """Inverse of :func:`pair_encode`."""
    if n < 0:
        raise ValueError("pair_decode takes a natural")
    # Largest s with s(s+1)/2 <= n, via integer sqrt.
    s = (isqrt(8 * n + 1) - 1) // 2
    t = s * (s + 1) // 2
    b = n - t
    return s - b, b


# ---------------------------------------------------------------------------
# Sequence codec
# ---------------------------------------------------------------------------

def seq_encode(seq: Sequence[int]) -> int:
    """Encode a non-empty sequence of positive integers as a natural.

    The code is ``pair_encode(len-1, payload)`` where the payload folds
    the terms (minus one) through the pairing function left to right.

    >>> seq_encode((1,))
    0
    """
    if len(seq) == 0:
        raise ValueError("empty sequence has no code")
    if any(t < 1 for t in seq):
        raise ValueError("sequence terms must be positive")
    payload = seq[0] - 1
    for term in seq[1:]:
        payload = pair_encode(payload, term - 1)
    return pair_encode(len(seq) - 1, payload)


def seq_decode(n: int) -> tuple[int, ...]:
    """Inverse of :func:`seq_encode`."""
    length_m1, payload = pair_decode(n)
    out = []
    for _ in range(length_m1):
        payload, u = pair_decode(payload)
        out.append(u + 1)
    out.append(payload + 1)
    out.reverse()
    return tuple(out)


# ---------------------------------------------------------------------------
# Quadruples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quadruple:
    """One hypothesis ``(i, j, s', s'')``: two agent labels and the port
    sequences of a conjectured path between them (forward and reverse).
    """

    i: int
    j: int
    s_prime: tuple[int, ...]
    s_dprime: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ValueError("labels must be positive")
        if self.i >= self.j:
            raise ValueError("labels must satisfy i < j")
        if len(self.s_prime) != len(self.s_dprime):
            raise ValueError("port sequences must have equal length")
        if len(self.s_prime) < 1:
            raise ValueError("port sequences must be non-empty")
        if any(p < 1 for p in self.s_prime + self.s_dprime):
            raise ValueError("port numbers must be positive")

    @property
    def length(self) -> int:
        return len(self.s_prime)


def label_weight(label: int) -> int:
    """Weight of a label in the quadruple grading.

    Linear up to 3, then an exponential surcharge: desk scenarios use
    labels 1..3, and every extra low-index label pair multiplies route
    length for all agents.
    """
    if label <= 3:
        return label
    return label + (1 << (label - 3)) - 1


def quadruple_weight(q: Quadruple) -> int:
    return label_weight(q.i) + label_weight(q.j) + sum(q.s_prime + q.s_dprime)


@cache
def _label_pairs(budget: int) -> tuple[tuple[int, int, int], ...]:
    """All (B, i, j) with b(i)+b(j) = B <= budget, sorted by (B, i)."""
    pairs = []
    i = 1
    while label_weight(i) + label_weight(i + 1) <= budget:
        j = i + 1
        while label_weight(i) + label_weight(j) <= budget:
            pairs.append((label_weight(i) + label_weight(j), i, j))
            j += 1
        i += 1
    return tuple(sorted(pairs))


def _blocks(w: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Weight class w as blocks ``(i, j, m, n, size)`` in the frozen order.

    Label pairs come by (b(i)+b(j), i), then sequence length n.  A block
    holds the ``size = C(m-1, 2n-1)`` quadruples whose joint tuple
    ``s' + s''`` is a composition of ``m = w - b(i) - b(j)`` into 2n
    parts, in lexicographic order.  This is the only place the order
    within a class is written.
    """
    for B, i, j in _label_pairs(w - 2):
        m = w - B
        for n in range(1, m // 2 + 1):
            yield i, j, m, n, comb(m - 1, 2 * n - 1)


_CLASS_STARTS = [0]


def _class_start(w: int) -> int:
    """0-based index of the first quadruple of weight w, read from
    ``_CLASS_STARTS`` (one entry per weight from ``_MIN_WEIGHT``), which
    grows on demand.  A label pair's blocks hold 2**(m-2) quadruples."""
    while len(_CLASS_STARTS) <= w - _MIN_WEIGHT:
        ww = _MIN_WEIGHT + len(_CLASS_STARTS) - 1
        size = sum(1 << (ww - B - 2) for B, _, _ in _label_pairs(ww - 2))
        _CLASS_STARTS.append(_CLASS_STARTS[-1] + size)
    return _CLASS_STARTS[w - _MIN_WEIGHT]


def _composition_unrank(m: int, parts: int, rank: int) -> tuple[int, ...]:
    """rank-th (0-based) composition of m into `parts` positive parts, lex order."""
    out = []
    while parts > 1:
        t = 1
        while rank >= (cnt := comb(m - t - 1, parts - 2)):
            rank -= cnt
            t += 1
        out.append(t)
        m -= t
        parts -= 1
    out.append(m)
    return tuple(out)


def _composition_rank(parts_tuple: Sequence[int]) -> int:
    m = sum(parts_tuple)
    rank = 0
    parts = len(parts_tuple)
    for t in parts_tuple[:-1]:
        for tt in range(1, t):
            rank += comb(m - tt - 1, parts - 2)
        m -= t
        parts -= 1
    return rank


def phi(k: int) -> Quadruple:
    """The k-th quadruple (k >= 1) in the frozen graded order: total
    weight ``b(i)+b(j)+sum(s')+sum(s'')`` ascending, each weight class in
    the block order of ``_blocks``."""
    if k < 1:
        raise ValueError("phi is defined for k >= 1")
    idx = k - 1
    while _CLASS_STARTS[-1] <= idx:  # grow the table past idx
        _class_start(_MIN_WEIGHT + len(_CLASS_STARTS))
    c = bisect_right(_CLASS_STARTS, idx) - 1
    idx -= _CLASS_STARTS[c]
    for i, j, m, n, size in _blocks(c + _MIN_WEIGHT):
        if idx < size:
            joint = _composition_unrank(m, 2 * n, idx)
            return Quadruple(i, j, joint[:n], joint[n:])
        idx -= size
    raise AssertionError("class start table is inconsistent")


def phi_index(q: Quadruple) -> int:
    """Position of a quadruple in the enumeration; inverse of :func:`phi`."""
    w = quadruple_weight(q)
    idx = _class_start(w) + 1
    for i, j, _, n, size in _blocks(w):
        if (i, j, n) == (q.i, q.j, q.length):
            return idx + _composition_rank(q.s_prime + q.s_dprime)
        idx += size
    raise AssertionError("block not found in its own weight class")


class PhaseTable:
    """``phi(k)`` for k = 1, 2, ..., decoded once and grown on demand.

    A cache of a pure function of small ints: phase k's hypothesis
    depends only on k, so one table serves every route of every world.
    ``draw(k)`` decodes each phase up to k once, by ``phi``, and nothing
    past it.  Phase k is ``(i[k], j[k], seqs[s_prime[k]],
    seqs[s_dprime[k]])``: its labels and the ids of its interned port
    sequences, kept in ``array``s (index 0 is unused), since a few hundred
    distinct sequences serve thousands of phases.  Growing one table from
    two threads at once is not supported; the package starts no threads.
    """

    def __init__(self) -> None:
        self.i, self.j = array("i", [0]), array("i", [0])
        self.s_prime, self.s_dprime = array("i", [0]), array("i", [0])
        self.seqs: list[tuple[int, ...]] = [()]
        self._ids = {(): 0}

    def draw(self, k: int) -> None:
        """Decode phases until phase k is held."""
        ids, seqs = self._ids, self.seqs
        for phase in range(len(self.i), k + 1):
            q = phi(phase)
            self.i.append(q.i)
            self.j.append(q.j)
            for seq, out in ((q.s_prime, self.s_prime), (q.s_dprime, self.s_dprime)):
                n = ids.get(seq)
                if n is None:
                    n = ids[seq] = len(seqs)
                    seqs.append(seq)
                out.append(n)


#: the process's phase table, shared by every ``RouteBuilder``
PHASES = PhaseTable()


# ---------------------------------------------------------------------------
# Rational enumeration
# ---------------------------------------------------------------------------

class RationalPair(NamedTuple):
    q1: Fraction
    q2: Fraction


def _totient(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _block(s: int) -> list[int]:
    """Block s of the zig-zag: the denominators q < s coprime with s, ascending."""
    return [q for q in range(1, s) if gcd(q, s) == 1]


def rational_value(k: int) -> Fraction:
    """The k-th rational (k >= 1) in the zig-zag order.

    Index 1 is 0; then blocks of constant |p| + q = s for s = 2, 3, ...,
    each block listing denominators ascending (``_block``) with the
    positive fraction before the negative one.
    """
    if k < 1:
        raise ValueError("rational_value is defined for k >= 1")
    if k == 1:
        return Fraction(0)
    idx, s = k - 2, 2
    while idx >= (size := 2 * _totient(s)):
        idx -= size
        s += 1
    q = _block(s)[idx // 2]
    value = Fraction(s - q, q)
    return value if idx % 2 == 0 else -value


def rational_index(x: Fraction) -> int:
    """Inverse of :func:`rational_value`."""
    if x == 0:
        return 1
    p, q = abs(x.numerator), x.denominator
    idx = 2 + sum(2 * _totient(s) for s in range(2, p + q)) + 2 * _block(p + q).index(q)
    return idx if x > 0 else idx + 1


#: Hand-placed head of the pair enumeration: the quarter-unit east step
#: and its reverse get ports 1 and 2 so that short axis moves come first
#: in route search.  The tail is the Cantor zig-zag over rational pairs.
_PAIR_SPECIALS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1, 4), Fraction(0)),
    (Fraction(-1, 4), Fraction(0)),
)


def _natural_pair_index(q1: Fraction, q2: Fraction) -> int:
    """0-based index of (q1, q2) in the plain Cantor zig-zag over pairs."""
    return pair_encode(rational_index(q1) - 1, rational_index(q2) - 1)


_PAIR_SKIPS: tuple[int, ...] = tuple(
    sorted(_natural_pair_index(a, b) for a, b in _PAIR_SPECIALS)
)


def rational_pair(k: int) -> RationalPair:
    """The k-th pair of rationals (k >= 1); a bijection onto Q x Q.

    >>> rational_pair(1)
    RationalPair(q1=Fraction(1, 4), q2=Fraction(0, 1))
    """
    if k < 1:
        raise ValueError("rational_pair is defined for k >= 1")
    if k <= len(_PAIR_SPECIALS):
        a, b = _PAIR_SPECIALS[k - 1]
        return RationalPair(a, b)
    n = k - len(_PAIR_SPECIALS) - 1
    for skip in _PAIR_SKIPS:
        if n >= skip:
            n += 1
    a, b = pair_decode(n)
    return RationalPair(rational_value(a + 1), rational_value(b + 1))


def rational_pair_index(q1: Fraction, q2: Fraction) -> int:
    """Inverse of :func:`rational_pair`."""
    for pos, (a, b) in enumerate(_PAIR_SPECIALS):
        if (a, b) == (q1, q2):
            return pos + 1
    n = _natural_pair_index(q1, q2)
    shift = sum(1 for skip in _PAIR_SKIPS if skip < n)
    return n - shift + len(_PAIR_SPECIALS) + 1
