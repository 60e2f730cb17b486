"""Code the tests use and the program does not need.

- `transport_unglue` checks that cutting a gluing leaves a curve system
  that meets the cut once, and returns the system as it is.
- `matching_system_oracle` realizes a census matching by cutting the
  polygon of the fan disc along its arcs with `routing.split_disc`, the
  general disc splitter; `census.matching_system` builds the chords of each
  square directly.
"""

from sqft.census import _disc_layout
from sqft.routing import DiscSide, split_disc
from sqft.surface import GluingPair, SquareComplex, _norm_pair
from sqft.sutures import CurveSystem, normalize, require_valid_pair


def transport_unglue(c: SquareComplex, g: CurveSystem,
                     edge: GluingPair) -> CurveSystem:
    require_valid_pair(c, g)
    pair = _norm_pair(*edge)
    if pair not in c.gluings:
        raise ValueError(f"no gluing {edge}")
    if g.side_count(pair[0]) != 1:
        raise ValueError("cut along an edge meeting the sutures once")
    return g


def matching_system_oracle(n: int, matching) -> CurveSystem:
    c, cycle, arcs = _disc_layout(n)
    sides = [DiscSide(key=slot, points=[g], corner=g)
             for g, slot in enumerate(cycle)]
    strands: dict[int, int] = {}
    for a, b in matching:
        strands[a] = b
        strands[b] = a
    cuts = [(inner, outer, (i, 2), (i + 1, 1))
            for i, (inner, outer) in enumerate(arcs)]
    cells = split_disc(sides, strands, cuts, next_id=2 * n)

    chords: dict[int, list] = {}
    for cell in cells:
        sq = cell.sides[0].key[0]
        pos_of = {}
        for side in cell.sides:
            if side.key[0] != sq:
                raise AssertionError("census cell mixes squares")
            for i, pid in enumerate(side.points):
                pos_of[pid] = (side.key[1], i)
        done = set()
        for u, v in cell.strands.items():
            if u not in done:
                done.add(u)
                done.add(v)
                chords.setdefault(sq, []).append((pos_of[u], pos_of[v]))
    g = CurveSystem.build(c.square_count, chords)
    return normalize(c, g)
