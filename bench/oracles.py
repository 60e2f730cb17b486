"""Reference computations for the benchmark's output checks.

Nothing here calls sqft: each function recomputes, from the inputs alone, a
quantity the program's answer must agree with.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Matching = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(counts[i] * counts[m - 1 - i] for i in range(m)))
    return counts[n]


def noncrossing_matchings(n: int) -> Iterator[Matching]:
    """Every non-crossing perfect matching of the points 0..2n-1."""
    def rec(lo: int, hi: int) -> Iterator[Matching]:
        if lo >= hi:
            yield ()
            return
        for b in range(lo + 1, hi, 2):
            for inside in rec(lo + 1, b):
                for outside in rec(b + 1, hi):
                    yield ((lo, b),) + inside + outside

    return rec(0, 2 * n)


def region_euler(n: int, matching: Iterable[Sequence[int]]) -> int:
    """Euler class of a disc chord diagram: #positive - #negative regions.

    The n chords cut the disc into n + 1 regions whose signs alternate
    across each chord. Walking the boundary, the arc from point i to point
    i + 1 lies in a positive region exactly when i is even; the region
    containing that arc continues, past point i + 1, along the arc that
    starts at the partner of point i + 1.
    """
    partner: dict[int, int] = {}
    for a, b in matching:
        partner[a], partner[b] = b, a
    seen: set[int] = set()
    e = 0
    for start in range(2 * n):
        if start in seen:
            continue
        arc = start
        while arc not in seen:
            seen.add(arc)
            arc = partner[(arc + 1) % (2 * n)]
        e += 1 if start % 2 == 0 else -1
    return e


@lru_cache(maxsize=None)
def census_grades(n: int) -> Counter:
    """How many disc chord diagrams with n chords have each Euler class."""
    return Counter(region_euler(n, m) for m in noncrossing_matchings(n))


def grade(word: int, arity: int) -> int:
    """Euler grade of a basis word: #ones - #zeros over its arity factors."""
    return 2 * bin(word).count("1") - arity


def gf2_rank(rows: Iterable[int]) -> int:
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
    return len(pivots)


# -- digital operators as matrices -------------------------------------------


def _insert(word: int, pos: int, bit: int) -> int:
    low = word & ((1 << pos) - 1)
    return low | (bit << pos) | ((word >> pos) << (pos + 1))


def _delete(word: int, pos: int) -> int:
    low = word & ((1 << pos) - 1)
    return low | ((word >> (pos + 1)) << pos)


def op_columns(kind: str, factor: int, arity_in: int,
               acted: Sequence[int]) -> list[int]:
    """Matrix of one digital operator: column w is the image of word w as a
    bitmask over output words.

    A creation inserts its bit at `factor`. An annihilation of bit b deletes
    `factor` when it holds b; otherwise it deletes it anyway and sums over
    the words with one acted factor holding b flipped.
    """
    bit = int(kind[-1])
    cols = []
    for w in range(1 << arity_in):
        if kind.startswith("create"):
            cols.append(1 << _insert(w, factor, bit))
            continue
        img = 0
        if (w >> factor) & 1 == bit:
            img ^= 1 << _delete(w, factor)
        else:
            for j in acted:
                if (w >> j) & 1 == bit:
                    img ^= 1 << _delete(w ^ (1 << j), factor)
        cols.append(img)
    return cols


def product_columns(ops: Sequence, arity_in: int) -> list[int]:
    """Columns of the product of the operators' matrices, first op first."""
    cols = [1 << w for w in range(1 << arity_in)]
    for op in ops:
        m = op_columns(op.kind, op.factor, op.arity_in, op.acted)
        new = []
        for col in cols:
            acc, w = 0, 0
            while col:
                if col & 1:
                    acc ^= m[w]
                col >>= 1
                w += 1
            new.append(acc)
        cols = new
    return cols


# -- surface index ---------------------------------------------------------


def complex_index(square_count: int,
                  gluings: Iterable[tuple[tuple[int, int], tuple[int, int]]]
                  ) -> int:
    """Index N - chi of a square complex without internal vertices.

    Corner k of each square is positive for odd k; side k runs from corner
    k to corner k + 1, and a gluing reverses orientation, so side (s, i)
    glued to (t, j) identifies corner i with corner j + 1 and corner i + 1
    with corner j. N counts positive boundary vertices.
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {
        (s, k): (s, k) for s in range(square_count) for k in range(4)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    glued: set[tuple[int, int]] = set()
    edges = 0
    for (s, i), (t, j) in gluings:
        edges += 1
        glued.update(((s, i), (t, j)))
        for a, b in (((s, i), (t, (j + 1) % 4)), ((s, (i + 1) % 4), (t, j))):
            parent[find(a)] = find(b)
    boundary = [(s, k) for s in range(square_count) for k in range(4)
                if (s, k) not in glued]
    vertices = {find(x) for x in parent}
    chi = len(vertices) - (edges + len(boundary)) + square_count
    positive = {find((s, k)) for s, side in boundary
                for k in (side, (side + 1) % 4) if k % 2 == 1}
    return len(positive) - chi
