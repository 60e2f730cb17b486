"""Re-routing curve systems when the quadrangulation changes.

Two operations re-cut squares: the diagonal slide (two squares re-split along
the other diagonal of their hexagonal union) and the slack square collapse
(a square is squeezed onto two of its sides, its chords re-routed around the
surviving vertex). Both reduce to planar bookkeeping: strands in a disc are
determined up to isotopy by their boundary endpoints, so crossings with any
new cut are forced, including their order along the cut, and each move
places them directly, as disc.fan_system does on the fan disc. Both,
like the bypass in sutures.py, join the arcs that meet at the points they
drop end to end with one helper, sutures._splice, and keep the closed curves
it counts as loops. A collapse edits the curves of a whole diagram in
place and drops its square by slicing the frozen system.

split_disc, the general splitter of a disc along arcs between corners, is
not used by either move; the tests keep it as their disc-splitting oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .quad import CollapseRecord, slide_slot_map
from .surface import (
    GluingPair, Slot, SquareComplex, UnsupportedConfiguration, _norm_pair,
)
from .sutures import CurveSystem, Diagram, _splice, normalize


# ---------------------------------------------------------------------------
# generic disc splitter


@dataclass
class DiscSide:
    key: Hashable
    points: list[int]
    corner: Hashable            # label of the corner before this side


@dataclass
class DiscCell:
    sides: list[DiscSide]
    strands: dict[int, int] = field(default_factory=dict)


def split_disc(sides: list[DiscSide], strands: dict[int, int],
               arcs: list[tuple[Hashable, Hashable, Hashable, Hashable]],
               next_id: int) -> list[DiscCell]:
    """Cut a disc of non-crossing strands along disjoint arcs between corners.

    Each arc (corner_i, corner_j, key_i, key_j) becomes a pair of new sides:
    the cell whose boundary traverses the arc starting at corner_i gets key_i,
    the other cell key_j. Strand crossings with an arc get fresh point ids,
    one per side of the cut, ordered along the arc.
    """
    cells = [DiscCell(list(sides), dict(strands))]
    pending = list(arcs)
    counter = [next_id]
    while pending:
        for idx, arc in enumerate(pending):
            ci, cj, key_i, key_j = arc
            host = None
            for cell in cells:
                corners = [s.corner for s in cell.sides]
                if ci in corners and cj in corners:
                    host = cell
                    break
            if host is None:
                continue
            pending.pop(idx)
            cells.remove(host)
            cells.extend(_split_cell(host, ci, cj, key_i, key_j, counter))
            break
        else:
            raise AssertionError("arc endpoints not found in any cell")
    return cells


def _split_cell(cell: DiscCell, ci: Hashable, cj: Hashable, key_i: Hashable,
                key_j: Hashable, counter: list[int]) -> list[DiscCell]:
    corners = [s.corner for s in cell.sides]
    i, j = corners.index(ci), corners.index(cj)
    if i == j:
        raise AssertionError("degenerate arc")
    # interval A: sides i..j-1 (cyclically); interval B: the rest
    order = cell.sides[i:] + cell.sides[:i]
    cut = (j - i) % len(cell.sides)
    part_a, part_b = order[:cut], order[cut:]

    in_a = {p for s in part_a for p in s.points}
    rank_a = {}
    r = 0
    for s in part_a:
        for p in s.points:
            rank_a[p] = r
            r += 1

    crossing = sorted(
        (rank_a[u if u in in_a else v], u if u in in_a else v,
         v if u in in_a else u)
        for u, v in cell.strands.items()
        if u < v and ((u in in_a) != (v in in_a))
    )
    ids_b, ids_a = [], []
    strands = dict(cell.strands)
    for _, pu, pv in crossing:        # pu in A, pv in B
        na = counter[0]
        nb = counter[0] + 1
        counter[0] += 2
        ids_a.append(na)              # on the A copy of the arc
        ids_b.append(nb)
        del strands[pu], strands[pv]
        strands[pu] = na
        strands[na] = pu
        strands[pv] = nb
        strands[nb] = pv

    # cell A traverses the arc from corner cj back to ci: reversed order
    side_a = DiscSide(key_j, list(reversed(ids_a)), cj)
    side_b = DiscSide(key_i, list(ids_b), ci)
    cell_a = DiscCell(part_a + [side_a])
    cell_b = DiscCell(part_b + [side_b])
    for c2 in (cell_a, cell_b):
        pts = {p for s in c2.sides for p in s.points}
        c2.strands = {u: v for u, v in strands.items() if u in pts}
        for u, v in c2.strands.items():
            if v not in pts:
                raise AssertionError("strand crosses an arc it should not")
    return [cell_a, cell_b]


# ---------------------------------------------------------------------------
# diagonal slide transport


def slide_sutures(c: SquareComplex, g: CurveSystem, edge: GluingPair | tuple,
                  direction: str) -> CurveSystem:
    """The same curves re-coordinatized in the slid quadrangulation.

    Expects an edge-efficient (normalized) system, so no strand meets the old
    diagonal twice in a row and no closed strand lives on the diagonal alone.
    The strands of the hexagon are the two squares' chords joined through
    the old diagonal. The new diagonal runs from the hexagon's corner 1
    (ccw) or 2 (cw), corner k being the one before outer side k, to the
    corner three sides on. A strand with one end on those three sides
    crosses it, and the crossings are ranked by that end, as on the fan
    disc's arcs: crossing k is point len - 1 - k on the new
    diagonal of the square those sides go to and point k on the other's.
    """
    pair = _norm_pair(*edge)
    if pair not in c.gluings:
        raise ValueError(f"no internal edge {edge}")
    g = normalize(c, g)
    (p_sq, p), (q_sq, q) = pair
    mapping = slide_slot_map(c, pair, direction)
    hexagon = list(mapping)             # the outer sides, in order
    first = 1 if direction == "ccw" else 2
    near = {slot: i for i, slot in enumerate(hexagon[first:first + 3])}
    diagonal = {p_sq: p, q_sq: q}       # each square keeps its diagonal side

    # points are (slot, position); those of the old diagonal are dropped
    m = g.side_count(pair[0])
    cut = [((pair[0], i), (pair[1], m - 1 - i)) for i in range(m)]
    links = cut + [(((sq, a[0]), a[1]), ((sq, b[0]), b[1]))
                   for sq in (p_sq, q_sq) for a, b in g.chords[sq]]
    strands, cycles = _splice(links, {u for ends in cut for u in ends})

    chords = dict(enumerate(g.chords))
    chords[p_sq], chords[q_sq] = [], []
    crossing = []
    for u, v in strands:
        if (u[0] in near) != (v[0] in near):
            crossing.append((u, v) if u[0] in near else (v, u))
        else:
            (sq, k), (_, l) = mapping[u[0]], mapping[v[0]]
            chords[sq].append(((k, u[1]), (l, v[1])))
    crossing.sort(key=lambda ends: (near[ends[0][0]], ends[0][1]))
    last = len(crossing) - 1
    for i, ends in enumerate(crossing):
        for (slot, pos), at in zip(ends, (last - i, i)):
            sq, k = mapping[slot]
            chords[sq].append(((k, pos), (diagonal[sq], at)))

    loops = dict(enumerate(g.loops))
    loops[p_sq] += cycles
    return CurveSystem.build(g.square_count, chords, loops)


# ---------------------------------------------------------------------------
# slack square collapse transport


def transport_collapse(c: SquareComplex, g: CurveSystem,
                       rec: CollapseRecord) -> CurveSystem:
    """Curve data after collapsing the recorded square, for a normalized g.

    The square's chords are re-routed: chords parallel to a collapsing side
    pair fuse into single crossings of the merged edge; everything else wraps
    around the surviving vertex, picking up one innermost crossing on each
    intermediate edge of the fan. The strands and loops are moved off the
    square, whose own chords are left as they are, on a whole diagram of g;
    the square is then sliced out of the frozen result, shifting the later
    squares down by one as remove_square does.
    """
    d = Diagram(g)
    w = rec.square
    if rec.n == 1:
        _collapse_degenerate(c, d, rec)
    else:
        _collapse_generic(c, d, rec)
    full = d.freeze()
    return CurveSystem(full.chords[:w] + full.chords[w + 1:],
                       full.loops[:w] + full.loops[w + 1:])


def _collapse_degenerate(c: SquareComplex, d: Diagram, rec: CollapseRecord) -> None:
    """n = 1: the square's two y-sides are glued to each other."""
    w = rec.square
    a1, a2, b1, b2 = rec.sides()
    if c.partner(a1) != a2:
        raise AssertionError("degenerate collapse expects a self-glued pair")
    t1, t2 = c.partner(b1), c.partner(b2)

    # the self-gluing pairs, then the square's chords, those at b-side
    # points first in b1-then-b2 order, so each strand starts at its first
    # b-side point
    la1, la2 = d.order[a1], d.order[a2]
    links = list(zip(la1, reversed(la2)))
    seen: set[int] = set()
    for pid in d.order[b1] + d.order[b2] + la1 + la2:
        if pid not in seen:
            q = d.mate[pid]
            seen.update((pid, q))
            links.append((pid, q))
    strands, cycles = _splice(links, set(la1 + la2))

    host = next((t[0] for t in (t1, t2) if t is not None), None)

    # the outer crossing of every b-side point, read before the loop below
    # drops any point from the outer sides
    outer: dict[int, int] = {}
    for b, t in ((b1, t1), (b2, t2)):
        if t is not None:
            lo, lt = d.order[b], d.order[t]
            outer.update((u, lt[len(lo) - 1 - i]) for i, u in enumerate(lo))

    on_b1 = set(d.order[b1])
    for u, v in strands:
        if (u in on_b1) == (v in on_b1):
            # strand doubling back: join the outer chords directly
            slot_t = t1 if u in on_b1 else t2
            if slot_t is None:
                raise AssertionError("doubled strand on a boundary side")
            ou, ov = outer[u], outer[v]
            if d.mate.get(ou) == ov:
                d.disconnect(ou)
                d.loops[slot_t[0]] += 1
            else:
                x = d.disconnect(ou)
                y = d.disconnect(ov)
                d.connect(x, y)
            for o in (ou, ov):
                d.drop_point(slot_t, o)
        # (b1, b2) strands keep their outer crossings: nothing to rewire,
        # the merged edge pairs the surviving t1/t2 points in reverse order

    total_loops = cycles + d.loops[w]
    if host is None:
        # the component was a lone slack vacuum; only standard sutures
        # vanish, other curves leave a loop on a square that stays
        if total_loops or len(strands) != 1:
            if c.square_count == 1:
                raise UnsupportedConfiguration(
                    "trivial sutures on a vacuum-only complex have no "
                    "carrier square")
            d.loops[1 if w == 0 else 0] += 1
    else:
        d.loops[host] += total_loops


def _collapse_generic(c: SquareComplex, d: Diagram, rec: CollapseRecord) -> None:
    w, n = rec.square, rec.n
    a1, a2, b1, b2 = rec.sides()
    s1, s2 = c.partner(a1), c.partner(a2)
    if s1 is None or s2 is None or s1[0] == w or s2[0] == w:
        raise AssertionError("fan sides must glue to other squares")

    # the intermediate fan edges e_j = (L_j, R_j), j = 2..n-1: L_j in
    # wedge j-1's square ending at y, R_j in wedge j's square starting at y
    tips: list[tuple[Slot, Slot]] = []
    wedges = rec.wedges
    for edge, (sL, kL), (sR, kR) in zip(rec.fan[1:], wedges, wedges[1:]):
        tips.append(((sL, (kL - 1) % 4), (sR, kR)))
        if _norm_pair(*tips[-1]) != edge:
            raise AssertionError("fan record inconsistent")

    # per point of w: its side, its rank in w's points cut at the internal
    # vertex (sides a2, b2, b1, a1 from y round to y) and its index on its side
    row: dict[int, tuple[Slot, int, int]] = {}
    for slot in (a2, b2, b1, a1):
        for i, pid in enumerate(d.order[slot]):
            row[pid] = (slot, len(row), i)

    # the merged edge (s, t) of each collapsing pair (a, b) takes b's points
    # in order. A chord from b to a fuses with the crossing of s across from
    # its end on a. Every other chord end gets an anchor, the point its
    # strand goes on from: a fresh point of s for an end on b; for an end on
    # a, the point of s across from it, which dies, its own chord stitched
    # in below. So a chord is fused exactly when its ends have no anchor.
    anchors: dict[int, int] = {}
    dying: list[int] = []
    for b, a, s in ((b1, a1, s1), (b2, a2, s2)):
        la, ls = d.order[a], d.order[s]
        last = len(la) - 1
        merged = []
        for pid in d.order[b]:
            side, _, i = row[d.mate[pid]]
            if side == a:
                merged.append(ls[last - i])
            else:
                anchors[pid] = d.new_point(s[0])
                merged.append(anchors[pid])
        fused = set(merged)
        for x, sid in enumerate(ls):
            if sid not in fused:
                anchors[la[last - x]] = sid
                dying.append(sid)
        d.order[s] = merged

    # each other chord wraps around y from its end on b1 or a1, the end of
    # higher rank, and crosses every intermediate fan edge; the crossings
    # are ordered by the other end, the innermost at the vertex, and each
    # chord's chain of links is built as they are made
    strands = [(u, d.mate[u]) for u in anchors
               if row[u][1] > row[d.mate[u]][1]]
    strands.sort(key=lambda chord: -row[chord[1]][1])
    ends = [anchors[u] for u, _ in strands]
    links: list[tuple[int, int]] = []
    for slot_l, slot_r in tips:
        back = [d.new_point(slot_l[0]) for _ in strands]
        front = [d.new_point(slot_r[0]) for _ in strands]
        links += zip(ends, back)
        ends = front
        d.order[slot_r] = front + d.order[slot_r]
        d.order[slot_l] = d.order[slot_l] + back[::-1]
    links += [(e, anchors[v]) for e, (_, v) in zip(ends, strands)]

    # stitch through the dying points' own chords, each once even when it
    # joins two dying points
    links += [(s, d.disconnect(s)) for s in dying if s in d.mate]
    for s in dying:
        del d.square_of[s]
    paths, cycles = _splice(links, set(dying))
    for p, q in paths:
        d.connect(p, q)
    d.loops[wedges[0][0]] += cycles + d.loops[w]
