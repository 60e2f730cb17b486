"""Disc elements evaluated digitally, by peeling outermost chords.

A sutured disc with 2n boundary points is a non-crossing matching of them,
and its element in V^(x)(n-1) is built bit by bit with no curves at all,
after the digital creation operators of Mathews' chord-diagram model
(arXiv:1006.3063) on the Honda-Kazez-Matic sutured TQFT (arXiv:0807.2431).
Points are numbered along the boundary cycle of the fan disc
`disc_complex(n)` (`boundary_cycles[0]`, cached on the shared complex),
as `fan_system` numbers them when it builds a census root; factor i is the
fan's square i.

* **Creation.** Inserting bit b at factor i maps each word w to
  (w & (2^i - 1)) | b << i | (w >> i) << (i + 1). The element of a
  matching with an outermost chord (p, p + 1 mod 2n) is that of the
  matching left when the chord is dropped, with a bit inserted:

  - p = 0: the other points renumbered q -> q mod (2n - 2), bit 1 at
    factor 0 (w -> 2w + 1);
  - p = 2n - 1: renumbered the same way, bit 0 at factor 0 (w -> 2w);
  - p = 2: the points q > p + 1 renumbered q -> q - 2, bit 1 at factor
    n - 2;
  - odd p, 3 <= p <= 2n - 3: renumbered as for p = 2, bit 0 at factor
    n - 1 - (p - 1) / 2;
  - even p, 4 <= p <= 2n - 2: renumbered as for p = 2, bit 1 at factor
    i = n - p / 2, then the ccw diagonal slide
    `slide_map(x, i - 1, i, SLIDE_BLOCK["ccw"])`.

  At n = 1 the element is the scalar one. For n >= 2 a matching has two
  outermost chords, so one is not at p = 1, which has no rule: the first
  outermost chord with p != 1 is peeled, each level costing one pass over
  the words and at most one slide.

`_peel` is two loops, down through the outermost chords and back up
through the recorded insertions and slides, so a disc of any size the
formats admit is evaluated without recursion. A bounded memo keeps the
words of small sub-matchings; `clear_memo` empties it.

`engine.suture_element` takes this path for a normalized system, basic
ones among them, on the fan disc up to a relabelling of its squares
(`fan_element`), before any triviality test. A census root on the shared
`disc_complex(n)` carries its checked matching (its `mates` fact), which is
peeled with no walk; any other system's matching is read off the arcs of
`sutures.strands`, the one strand walk, and a system with a loop, loose or
on a closed strand, is left to the recursion. The tests compare it with
the bypass recursion and with a peel that rotates each chord to (0, 1) or
(2n - 1, 0) first.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from ._derived import SLIDE_BLOCK
from .surface import SquareComplex
from .sutures import CurveSystem, _nested, strands
from .tensor import Z2Tensor, slide_words

# ---------------------------------------------------------------------------
# the fan disc


@lru_cache(maxsize=None)
def disc_complex(n: int) -> SquareComplex:
    """Fan quadrangulation of the disc with 2n boundary vertices.

    One object per n: the facts of the census systems name it, so pairs
    made with it are trusted. Its boundary cycle, `boundary_cycles[0]`,
    numbers the fan's points: point p lies on side p of it."""
    if n < 2:
        raise ValueError("need n >= 2")
    return SquareComplex.build(
        n - 1, [((i, 2), (i + 1, 1)) for i in range(n - 2)]
    )


# ---------------------------------------------------------------------------
# census roots, square by square

# The label of a boundary point whose mate lies in a higher or a lower
# square of the fan; a point whose mate lies in its own square is labelled
# by that mate's index among the square's points.
UP, DOWN = -1, -2

# the sorted chords of a fan square by its key (see fan_system), filled on
# a miss and emptied with the memo
_SQUARE_CHORDS: dict[tuple, tuple] = {}


@lru_cache(maxsize=None)
def _fan_rows(n: int):
    """Per point, its square and its index among the square's points; per
    square, the sides of its points and a getter of their labels, both in
    cycle order."""
    cycle = disc_complex(n).boundary_cycles[0]
    square = tuple(sq for sq, _ in cycle)
    points: list[list[int]] = [[] for _ in range(n - 1)]
    for p, sq in enumerate(square):
        points[sq].append(p)
    local = [0] * (2 * n)
    for own in points:
        for j, p in enumerate(own):
            local[p] = j
    # every square has at least two boundary points, so each getter
    # returns a tuple
    return (square, tuple(local),
            tuple(tuple(cycle[p][1] for p in own) for own in points),
            tuple(itemgetter(*own) for own in points))


def fan_system(n: int, mate: tuple[int, ...]) -> CurveSystem:
    """The census root of a non-crossing perfect matching of points
    0..2n-1, given as the mate of each point, on `disc_complex(n)`.

    Point p lies on side p of the fan's boundary cycle. Square i is glued
    to square i + 1 along arc i, (i, 2)-(i + 1, 1), and a chord between
    points in squares a < b crosses arcs a..b-1. The chords of square i
    depend only on its key: the sides of its boundary points (which say
    whether it is the first, a middle or the last square), the crossings
    c_in on arc i - 1 and c_out on arc i, and each boundary point's label,
    UP, DOWN or its mate's index in the square (`_square_chords`). One
    pass over the mates counts the crossings and labels the points; each
    square is then one lookup in a table of square diagrams.

    The matching is trusted: callers check it (`matching_mates`) or
    enumerate it. The system is valid on the shared `disc_complex(n)`,
    already in CurveSystem.build's canonical form with no chord ending
    twice on one glued side (so `normalize` returns it as it is), and made
    of arcs from boundary to boundary (no loop, no closed component), so
    its `valid`, `normal` and `open` facts are that complex. Its `mates`
    fact is `mate`, which `fan_element` peels on that complex: the root's
    strands are never walked.
    """
    c = disc_complex(n)
    square, local, sides, labels_of = _fan_rows(n)
    label = [0] * (2 * n)
    # chords entering (+1) and leaving (-1) the arcs, by square
    rise = [0] * (n - 1)
    for p, q in enumerate(mate):
        a, b = square[p], square[q]
        if a < b:
            label[p] = UP
            rise[a] += 1
            rise[b] -= 1
        else:
            label[p] = DOWN if a > b else local[q]
    rows = []
    c_in = 0
    for i, kind in enumerate(sides):
        c_out = c_in + rise[i]
        key = (kind, c_in, c_out, labels_of[i](label))
        row = _SQUARE_CHORDS.get(key)
        if row is None:
            row = _SQUARE_CHORDS[key] = _square_chords(*key)
        rows.append(row)
        c_in = c_out
    g = CurveSystem(tuple(rows), (0,) * (n - 1))
    facts = g.facts
    facts.valid = facts.normal = facts.open = c
    facts.mates = mate
    return g


def _square_chords(sides: tuple[int, ...], c_in: int, c_out: int,
                   labels: tuple[int, ...]) -> tuple:
    """The sorted chords of a fan square: the one non-crossing matching of
    its points that their labels allow.

    The square's points, sorted, run round it: a boundary point on each
    side in `sides`, c_in crossings on side 1 and c_out on side 2. Seen
    from the square, the squares below it are one disc behind side 1 and
    those above one behind side 2, so a crossing of side 1 is matched to a
    DOWN point or to a crossing of side 2, a crossing of side 2 to an UP
    point or to a crossing of side 1, and a point of the square to the
    one its label names. Each side's crossings come in a run, so a stack
    over the sorted points closes each point on the open one before it
    whenever the two may be matched: any other choice would leave a point
    between them with no mate it may take.
    """
    points: list[tuple[tuple[int, int], int]] = []
    for k in range(4):
        if k in sides:
            points.append(((k, 0), sides.index(k)))
        else:           # a glued side, 1 or 2
            token = DOWN if k == 1 else UP
            points.extend(((k, j), token)
                          for j in range(c_in if k == 1 else c_out))
    stack: list[tuple[tuple[int, int], int]] = []
    chords = []
    for ep, t in points:
        if stack:
            top, s = stack[-1]
            if s < 0 and t < 0:
                fits = s != t
            else:
                fits = labels[s] == t if s >= 0 else labels[t] == s
            if fits:
                stack.pop()
                chords.append((top, ep))
                continue
        stack.append((ep, t))
    if stack:
        raise AssertionError("the labels allow no matching")
    return tuple(sorted(chords))


# ---------------------------------------------------------------------------
# the digital evaluator

# The memo of sub-matchings: a dict from a matching's mates to its words,
# emptied when it holds MEMO_SIZE entries and by clear_memo. The n = 7
# census through the engine makes 625 entries, one per sub-matching, and
# every matching of n = 9 makes 6,917; an unbounded memo over the 2.7
# million matchings of n = 14 never finished. Only matchings of at most
# MEMO_POINTS points are looked up or kept: a bigger one seldom comes back,
# and keeping the whole chain of a deep disc would hold O(n^2) points.
MEMO_SIZE = 1 << 13
MEMO_POINTS = 2 * 12
_MEMO: dict[tuple[int, ...], list[int]] = {}


def disc_element(n: int, matching: Iterable[tuple[int, int]]) -> Z2Tensor:
    """The element of a non-crossing perfect matching of points 0..2n-1,
    of arity n - 1; ValueError if `matching` is not one."""
    return Z2Tensor(n - 1, _peel(matching_mates(n, matching)))


def matching_mates(n: int, matching: Iterable[tuple[int, int]]
                   ) -> tuple[int, ...]:
    """The mate of each point of a non-crossing perfect matching of points
    0..2n-1; ValueError if `matching` is not one, n < 1 or a point that is
    not an int included."""
    if n < 1:
        raise ValueError("need n >= 1")
    size = 2 * n
    mate = [-1] * size
    for a, b in matching:
        for p in (a, b):
            if not isinstance(p, int):
                raise ValueError(f"point {p!r} is not an int")
            if not 0 <= p < size or mate[p] != -1:
                raise ValueError(f"point {p} is out of range or used twice")
        if a == b:
            raise ValueError(f"chord ({a}, {b}) joins a point to itself")
        mate[a], mate[b] = b, a
    if -1 in mate:
        raise ValueError(f"point {mate.index(-1)} is not matched")
    if not _nested(mate, 0):
        raise ValueError("chords cross")
    return tuple(mate)


def _peel(mate: tuple[int, ...]) -> frozenset[int]:
    """The words of a checked matching, given as the mate of each point.

    One loop goes down, peeling the first outermost chord not at 1 at each
    level and recording the factor, the bit and whether a slide follows,
    until the memo holds the sub-matching or one chord is left. A second
    loop goes back up, inserting each bit and applying each slide to the
    word list, and memoizes each sub-matching it recorded. So no disc is
    too deep to evaluate, and what is held on the way is the steps and the
    few sub-matchings small enough to memoize.
    """
    steps = []          # (factor, bit, slide, mates to memoize or None)
    while True:
        size = len(mate)
        if size == 2:
            words = [0]
            break
        small = size <= MEMO_POINTS
        if small:
            hit = _MEMO.get(mate)
            if hit is not None:
                words = hit
                break
        n = size // 2
        # a matching of n >= 2 chords has two outermost ones, not both at
        # 1: the chord at 2n - 1 is outermost when no other is found
        if mate[0] == 1:
            p = 0
        else:
            p = 2
            while p < size - 1 and mate[p] != p + 1:
                p += 1
        if p == 0 or p == size - 1:
            # the other points, in the order q -> q mod (2n - 2) numbers them
            rest = (mate[-2:] + mate[2:-2] if p == 0
                    else mate[-2:-1] + mate[1:-2])
            vmap = (*range(size - 2), 0, 1)
            i, bit, slide = 0, 1 - p % 2, False
        else:
            # q -> q - 2 for q > p + 1
            rest = mate[:p] + mate[p + 2:]
            vmap = (*range(p + 2), *range(p, size - 2))
            if p == 2:
                i, bit, slide = n - 2, 1, False
            elif p % 2:
                i, bit, slide = n - 1 - (p - 1) // 2, 0, False
            else:
                i, bit, slide = n - p // 2, 1, True
        steps.append((i, bit, slide, mate if small else None))
        mate = tuple(map(vmap.__getitem__, rest))
    for i, bit, slide, key in reversed(steps):
        low = (1 << i) - 1
        words = [(w & low) | bit << i | (w >> i) << (i + 1) for w in words]
        if slide:
            words = slide_words(words, i - 1, i, SLIDE_BLOCK["ccw"])
        if key is not None:
            # racing threads may each add one entry past the bound; an
            # entry is never changed, since each level makes a new list
            if len(_MEMO) >= MEMO_SIZE:
                _MEMO.clear()
            _MEMO[key] = words
    return frozenset(words)


def bypass_relations(n: int, matching: Iterable[tuple[int, int]]
                     ) -> Iterator[tuple[tuple[tuple[int, int], ...], ...]]:
    """The bypass relations through a non-crossing matching of 2n points.

    Take three of its chords whose six ends e1 < ... < e6 lie on one face
    of the other chords (the points between consecutive ends are matched
    among themselves) and join them as one of (e6 e1)(e2 e5)(e3 e4),
    (e1 e2)(e3 e6)(e4 e5) or (e2 e3)(e4 e1)(e5 e6). Those three matchings,
    each with the other chords unchanged, are yielded: their elements sum
    to zero, by the bypass relation of arXiv:0807.2431 and
    arXiv:1006.3063. ValueError if `matching` is not a non-crossing
    perfect matching of points 0..2n-1.
    """
    chords = [tuple(sorted(ch)) for ch in matching]
    mate = matching_mates(n, chords)
    for three in combinations(range(len(chords)), 3):
        ends = sorted(p for i in three for p in chords[i])
        # bisect numbers the arc between ends[j - 1] and ends[j] by j, and
        # the arc from e6 round to e1 by 6 or 0
        if any(bisect(ends, q) % 6 != bisect(ends, mate[q]) % 6
               for q in range(2 * n) if q not in ends):
            continue
        e1, e2, e3, e4, e5, e6 = ends
        terms = (((e1, e6), (e2, e5), (e3, e4)),
                 ((e1, e2), (e3, e6), (e4, e5)),
                 ((e1, e4), (e2, e3), (e5, e6)))
        if tuple(sorted(chords[i] for i in three)) in terms:
            rest = tuple(ch for i, ch in enumerate(chords) if i not in three)
            yield tuple(rest + term for term in terms)


def clear_memo() -> None:
    """Empty the memo of sub-matchings and the table of square diagrams."""
    _MEMO.clear()
    _SQUARE_CHORDS.clear()


# ---------------------------------------------------------------------------
# recognising the fan


def _fan_order(c: SquareComplex) -> Optional[list[int]]:
    """The squares of c in the fan's order, when c is disc_complex(n) up
    to a relabelling of its squares: c's square order[i] is the fan's
    square i, whose side 2 is glued to side 1 of the next. Else None."""
    if c.slack:
        return None
    after = {}
    for a, b in c.gluings:
        if (a[1], b[1]) == (1, 2):
            a, b = b, a
        if (a[1], b[1]) != (2, 1):
            return None
        after[a[0]] = b[0]
    first = set(range(c.square_count)).difference(after.values())
    if len(first) != 1:
        return None
    # each square follows at most one other, so this walk is a path
    order = [first.pop()]
    while order[-1] in after:
        order.append(after[order[-1]])
    return order if len(order) == c.square_count else None


def fan_element(c: SquareComplex, g: CurveSystem) -> Optional[Z2Tensor]:
    """The element of a normalized g on c by peeling, when c is the fan
    disc up to a relabelling of its squares and g has no loop, loose or
    closed; else None, and g's `open` fact is left as it was.

    A census root on the shared `disc_complex(n)` carries the matching it
    was built from (its `mates` fact), which is peeled as it is: the root
    is never walked. Any other pair, that root on another complex among
    them, has its matching read off its strands (`sutures.strands`): the
    fan's point p is on side p of the fan's boundary cycle, and c's arc
    ends are mapped to those points through the fan's order of c's
    squares. A pair with a closed strand is left to `regions.is_trivial`
    and the recursion; else the words, peeled with boundary sides numbered
    as the fan's, are relabelled from the fan's squares to c's.
    """
    mates = g.facts.mates
    # the fact holds on the fan it was built on, whatever `valid` says now
    if mates is not None and c is disc_complex(len(mates) // 2):
        return Z2Tensor(len(mates) // 2 - 1, _peel(mates))
    if any(g.loops):
        return None
    order = _fan_order(c)
    if order is None:
        return None
    walk = strands(c, g)
    if walk.closed:
        return None
    n = len(order) + 1
    # the number of c's side that holds the fan's boundary point p
    boundary = [4 * order[sq] + side
                for sq, side in disc_complex(n).boundary_cycles[0]]
    point = {s: p for p, s in enumerate(boundary)}
    end = walk.end
    x = Z2Tensor(n - 1, _peel(tuple(point[end[s]] for s in boundary)))
    return x if order == sorted(order) else x.permute(order)
