"""Enumeration oracles and random generators for property testing.

The disc census realizes every non-crossing perfect matching of the 2n
boundary points as a curve system on the fan-quadrangulated disc; counts are
checked against an independent Catalan recursion. The matchings are
enumerated as the mate of each point. The fan's squares lie in a row, each
glued to the next along one arc, so the chords of a square depend only on
a small key: whether it is the first, a middle or the last square, the
crossings on its two arcs, and for each of its boundary points whether
its mate lies above, below or in the square. `disc.fan_system` builds each
root with one pass over the mates and one lookup per square in a table of
square diagrams, which a census of n fills with about 2n + 4 entries and
`engine.clear_cache` empties. Random surfaces come as scripts of
elementary moves; random sutures interleave isotopy finger moves
with bypass surgeries so that edge triples actually exist.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .disc import disc_complex, fan_system, matching_mates
from .engine import (
    _GLUING_KIND, CreateSquare, Fold, Glue, MorphismScript, Move, Zip,
    apply_move,
)
from .surface import Slot, SquareComplex, classify_gluing, invariants
from .sutures import CurveSystem, basic_system, bypass_surgery, finger_push
from .regions import is_trivial


# ---------------------------------------------------------------------------
# the disc family


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    # independent oracle: the standard recursion, no enumeration involved
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def noncrossing_mates(m: int) -> list[tuple[int, ...]]:
    """All non-crossing perfect matchings of points 0..m-1 in convex
    position, as the mate of each point: point 0 matched to 1, 3, 5, ...
    in turn, the points inside its chord before the points outside."""
    if m % 2:
        raise ValueError("odd point count")
    # the matchings of each run lo..hi-1 of points, shortest runs first
    runs: dict[tuple[int, int], list[tuple[int, ...]]] = {
        (lo, lo): [()] for lo in range(m + 1)}
    for length in range(2, m + 1, 2):
        for lo in range(m - length + 1):
            hi = lo + length
            runs[lo, hi] = [(b,) + inside + (lo,) + outside
                            for b in range(lo + 1, hi, 2)
                            for inside in runs[lo + 1, b]
                            for outside in runs[b + 1, hi]]
    return runs[0, m]


def noncrossing_matchings(m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of `noncrossing_mates(m)`, in its order, each as its
    chords (p, q), p < q, by p."""
    for mate in noncrossing_mates(m):
        yield tuple((p, q) for p, q in enumerate(mate) if p < q)


def matching_system(n: int, matching: Iterable[tuple[int, int]]) -> CurveSystem:
    """Realize one non-crossing matching of the disc's boundary points.

    The matching is the only data checked: ValueError unless it is a
    non-crossing perfect matching of points 0..2n-1 (`matching_mates`).
    Its mates are built into a census root square by square by
    `disc.fan_system`, which gives the root its facts.
    """
    return fan_system(n, matching_mates(n, matching))


def enumerate_disc_sutures(n: int) -> list[CurveSystem]:
    """One normalized representative per nontrivial suture class on the
    disc, in the order of `noncrossing_matchings(2n)`. The enumerated
    matchings are non-crossing and perfect by construction, so their mates
    go to `disc.fan_system` unchecked."""
    if not 2 <= n <= 9:
        raise ValueError("census supports 2 <= n <= 9")
    return [fan_system(n, mate) for mate in noncrossing_mates(2 * n)]


# ---------------------------------------------------------------------------
# random generators


def random_surface(seed: int, max_squares: int) -> MorphismScript:
    """A seeded script of creations/gluings/folds/zips building a connected
    bona fide complex with at most max_squares squares."""
    rng = random.Random(f"{seed}:{max_squares}")
    return _random_script(rng, SquareComplex.build(0), max_squares,
                          connect=True)


def random_extension(seed: int, source: SquareComplex,
                     max_squares: int) -> MorphismScript:
    """A seeded script of further moves applied to an existing complex."""
    rng = random.Random(f"{seed}:{max_squares}:{source.square_count}")
    return _random_script(rng, source, max_squares, connect=False)


def _random_script(rng: random.Random, source: SquareComplex,
                   max_squares: int, connect: bool) -> MorphismScript:
    moves: list[Move] = []
    cur = source

    def apply(move: Move) -> bool:
        nonlocal cur
        # a gluing of another kind fails apply_move's kind check: classify
        # it first, so that its glued complex is not built in vain
        if not isinstance(move, CreateSquare) and classify_gluing(
                cur, move.a, move.b).kind != _GLUING_KIND[type(move)][0]:
            return False
        try:
            nxt = apply_move(cur, move).complex_after
        except ValueError:
            return False
        if nxt.square_count == 0:
            return False
        cur = nxt
        moves.append(move)
        return True

    if cur.square_count == 0:
        apply(CreateSquare(rng.choice((1, -1))))
    steps = rng.randint(max_squares, 2 * max_squares + 2)
    for _ in range(steps):
        choices = ["attach", "glue", "glue", "fold"]
        if any(len(cyc) == 2 for cyc in cur.boundary_cycles):
            choices.append("zip")
        kind = rng.choice(choices)
        if kind == "attach" and cur.square_count < max_squares:
            target = rng.choice(cur.boundary_slots)
            side = rng.choice((0, 2)) if target[1] % 2 else rng.choice((1, 3))
            k = cur.square_count
            if apply(CreateSquare(rng.choice((1, -1)))):
                if not apply(Glue((k, side), target)):
                    moves.pop()          # lone square is still fine to keep
        elif kind == "glue":
            slots = list(cur.boundary_slots)
            rng.shuffle(slots)
            done = False
            for a in slots:
                for b in slots:
                    if b[1] % 2 != (a[1] + 1) % 2:
                        continue
                    if a != b and apply(Glue(a, b)):
                        done = True
                        break
                if done:
                    break
        elif kind == "fold":
            cycles = [cyc for cyc in cur.boundary_cycles if len(cyc) > 2]
            if cycles and cur.square_count > 1:
                cyc = rng.choice(cycles)
                i = rng.randrange(len(cyc))
                apply(Fold(cyc[i], cyc[(i + 1) % len(cyc)]))
        elif kind == "zip":
            cycles = [cyc for cyc in cur.boundary_cycles if len(cyc) == 2]
            if cycles:
                cyc = rng.choice(cycles)
                apply(Zip(cyc[0], cyc[1]))

    guard = 0
    while connect and invariants(cur).components > 1 and guard < 50:
        guard += 1
        comp = cur.component_of
        slots = list(cur.boundary_slots)
        rng.shuffle(slots)
        done = False
        for a in slots:
            for b in slots:
                if comp[a[0]] != comp[b[0]] and (a[1] + b[1]) % 2 == 1:
                    if apply(Glue(a, b)):
                        done = True
                        break
            if done:
                break
        if not done:
            break
    return MorphismScript.build(source, moves)


def random_sutures(seed: int, c: SquareComplex, rounds: int = 3) -> CurveSystem:
    """Seeded nontrivial sutures: a random basic system churned by finger
    moves and bypass surgeries."""
    rng = random.Random(f"{seed}:{c.square_count}:{len(c.gluings)}")
    g = basic_system(c, rng.getrandbits(c.square_count) if c.square_count else 0)
    edges = c.sorted_gluings()
    if not edges:
        return g
    for _ in range(rounds):
        for _attempt in range(25):
            cand = _random_step(rng, c, g)
            if cand is not None and not is_trivial(c, cand):
                g = cand
                break
    return g


def _random_step(rng: random.Random, c: SquareComplex,
                 g: CurveSystem) -> Optional[CurveSystem]:
    """One swap-style move: bracket an existing crossing of a random edge by
    pushing a chord across from each side, then resolve the middle triple."""
    edges = c.sorted_gluings()
    for _ in range(14):
        edge = rng.choice(edges)
        slot_a, slot_b = edge
        m = g.side_count(slot_a)
        j = rng.randrange(m)
        first = None
        for ep in _poke_candidates(rng, g, slot_a):
            try:
                first = finger_push(c, g, slot_a, j + 1, ep)
                break
            except ValueError:
                continue
        if first is None:
            continue
        second = None
        for ep in _poke_candidates(rng, first, slot_b):
            try:
                second = finger_push(c, first, slot_b, (m + 2) - j, ep)
                break
            except ValueError:
                continue
        if second is None:
            continue
        up = bypass_surgery(c, second, edge, j + 1, "up")
        down = bypass_surgery(c, second, edge, j + 1, "down")
        # mostly keep the entangled outcome, occasionally the plain swap
        ranked = sorted((up, down), key=_crossing_total, reverse=True)
        return ranked[0] if rng.random() < 0.8 else ranked[1]
    return None


def _crossing_total(g: CurveSystem) -> int:
    return sum(len(ch) for ch in g.chords)


def _poke_candidates(rng: random.Random, g: CurveSystem, slot: Slot):
    eps = [ep for ch in g.chords[slot[0]] for ep in ch]
    rng.shuffle(eps)
    return eps
