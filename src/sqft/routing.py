"""Re-routing curve systems when the quadrangulation changes.

Two operations re-cut squares: the diagonal slide (two squares re-split along
the other diagonal of their hexagonal union) and the slack square collapse
(a square is squeezed onto two of its sides, its chords re-routed around the
surviving vertex). Both reduce to planar bookkeeping: strands in a disc are
determined up to isotopy by their boundary endpoints, so crossings with any
new cut are forced, including their order along the cut. Both, like the
bypass in sutures.py, join the arcs that meet at the points they drop end to
end with one helper, sutures._splice, and keep the closed curves it counts
as loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .quad import CollapseRecord, slide_slot_map
from .surface import (
    GluingPair, Slot, SquareComplex, UnsupportedConfiguration, _norm_pair,
)
from .sutures import CurveSystem, Diagram, _splice


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
    """
    from .sutures import normalize

    g = normalize(c, g)
    pair = _norm_pair(*edge)
    (p_sq, p), (q_sq, q) = pair
    mapping = slide_slot_map(c, pair, direction)

    outer = [
        (p_sq, (p + 1) % 4), (p_sq, (p + 2) % 4), (p_sq, (p + 3) % 4),
        (q_sq, (q + 1) % 4), (q_sq, (q + 2) % 4), (q_sq, (q + 3) % 4),
    ]
    ids: dict[tuple[int, int, int], int] = {}
    counter = 0
    sides = []
    for k, slot in enumerate(outer):
        pts = []
        for pos in range(g.side_count(slot)):
            ids[(slot[0], slot[1], pos)] = counter
            pts.append(counter)
            counter += 1
        sides.append(DiscSide(key=mapping[slot], points=pts, corner=k))
    for slot in pair:                 # old diagonal points
        for pos in range(g.side_count(slot)):
            ids[(slot[0], slot[1], pos)] = counter
            counter += 1

    # strands: the two squares' chords joined through the old diagonal
    m = g.side_count(pair[0])
    diagonal = [(ids[(*pair[0], pos)], ids[(*pair[1], m - 1 - pos)])
                for pos in range(m)]
    links = diagonal + [(ids[(sq, *a)], ids[(sq, *b)])
                        for sq in (p_sq, q_sq) for a, b in g.chords[sq]]
    paths, loops_extra = _splice(links, {u for ends in diagonal for u in ends})
    strands: dict[int, int] = {}
    for u, v in paths:
        strands[u] = v
        strands[v] = u

    if direction == "ccw":
        arc = (1, 4, (p_sq, p), (q_sq, q))
    else:
        arc = (2, 5, (q_sq, q), (p_sq, p))
    cells = split_disc(sides, strands, [arc], counter)

    chords: dict[int, list] = {s: list(g.chords[s]) for s in range(g.square_count)}
    chords[p_sq] = []
    chords[q_sq] = []
    for cell in cells:
        pos_of: dict[int, tuple[int, int]] = {}
        sq = cell.sides[0].key[0]
        for side in cell.sides:
            if side.key[0] != sq:
                raise AssertionError("cell mixes squares")
            for i, pid in enumerate(side.points):
                pos_of[pid] = (side.key[1], i)
        done = set()
        for u, v in cell.strands.items():
            if u in done:
                continue
            done.add(u)
            done.add(v)
            chords[sq].append((pos_of[u], pos_of[v]))

    loops = {s: g.loops[s] for s in range(g.square_count)}
    loops[p_sq] = loops.get(p_sq, 0) + loops_extra
    out = CurveSystem.build(g.square_count, chords, loops)
    return out


# ---------------------------------------------------------------------------
# slack square collapse transport


def transport_collapse(c: SquareComplex, g: CurveSystem,
                       rec: CollapseRecord) -> CurveSystem:
    """Curve data after collapsing the recorded square.

    The square's chords are re-routed: chords parallel to a collapsing side
    pair fuse into single crossings of the merged edge; everything else wraps
    around the surviving vertex, picking up one innermost crossing on each
    intermediate edge of the fan.
    """
    d = Diagram.from_system(g)
    w = rec.square
    if rec.n == 1:
        _collapse_degenerate(c, d, rec)
    else:
        _collapse_generic(c, d, rec)

    perm = {s: (s if s < w else s - 1) for s in range(c.square_count) if s != w}
    d2 = d.remap_squares(perm, c.square_count - 1)
    return d2.freeze()


def _consume_square(d: Diagram, w: int) -> None:
    for k in range(4):
        slot = (w, k)
        for pid in list(d.order[slot]):
            if pid in d.mate:
                d.disconnect(pid)
            d.drop_point(slot, pid)
    d.loops[w] = 0


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

    host = None
    for t in (t1, t2):
        if t is not None:
            host = t[0]
            break

    # the outer crossing of every b-side point, read before the loop below
    # drops any point from the outer sides
    outer: dict[int, int] = {}
    for b, t in ((b1, t1), (b2, t2)):
        if t is not None:
            lo, lt = d.order[b], d.order[t]
            outer.update((u, lt[len(lo) - 1 - i]) for i, u in enumerate(lo))

    for u, v in strands:
        su = b1 if u in d.order[b1] else b2
        sv = b1 if v in d.order[b1] else b2
        if su == sv:
            # strand doubling back: join the outer chords directly
            slot_t = t1 if su == b1 else t2
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
        # the component was a lone slack vacuum; only standard sutures vanish
        if total_loops or len(strands) != 1:
            host_sq = 0 if c.square_count > 1 else None
            if host_sq is None:
                raise UnsupportedConfiguration(
                    "trivial sutures on a vacuum-only complex have no "
                    "carrier square")
            d.loops[host_sq] += 1
    else:
        d.loops[host] += total_loops

    _consume_square(d, w)


def _collapse_generic(c: SquareComplex, d: Diagram, rec: CollapseRecord) -> None:
    w = rec.square
    n = rec.n
    a1, a2, b1, b2 = rec.sides()
    s1, s2 = c.partner(a1), c.partner(a2)
    t1, t2 = c.partner(b1), c.partner(b2)
    if s1 is None or s2 is None or s1[0] == w or s2[0] == w:
        raise AssertionError("fan sides must glue to other squares")

    # fan edge slots: e_j = (L_j, R_j), L_j in wedge j-1's square ending at y,
    # R_j in wedge j's square starting at y
    wedge = list(rec.wedges)                      # (S_i, kappa_i), i = 1..n-1
    tips: dict[int, tuple[Slot, Slot]] = {}
    for j in range(2, n):
        sL, kL = wedge[j - 2]
        sR, kR = wedge[j - 1]
        tips[j] = ((sL, (kL - 1) % 4), (sR, kR))
        if _norm_pair(*tips[j]) != rec.fan[j - 1]:
            raise AssertionError("fan record inconsistent")

    station = {a1[1]: 1, a2[1]: n - 1, b1[1]: 0, b2[1]: n}
    # linear order of the square's points, cut at the internal vertex; chords
    # nest around the target corner, tighter nests stay closer to it
    lin: dict[int, int] = {}
    for slot in (a2, b2, b1, a1):
        for pid in d.order[slot]:
            lin[pid] = len(lin)

    w_chords: list[tuple[int, int]] = []
    seen: set[int] = set()
    for slot in (a1, a2, b1, b2):
        for pid in d.order[slot]:
            if pid in seen:
                continue
            q = d.mate[pid]
            seen.add(pid)
            seen.add(q)
            w_chords.append((pid, q))

    def side_of(pid: int) -> Slot:
        for slot in (a1, a2, b1, b2):
            if pid in d.order[slot]:
                return slot
        raise AssertionError

    info = []
    for u, v in w_chords:
        su, sv = station[side_of(u)[1]], station[side_of(v)[1]]
        if su > sv:
            u, v = v, u
            su, sv = sv, su
        info.append((u, v, su, sv))

    # fresh crossings at each intermediate fan edge, innermost at the vertex
    tip_ids: dict[tuple[int, int], tuple[int, int]] = {}    # (chord idx, j)
    for j in range(2, n):
        crossing = [idx for idx, (u, v, su, sv) in enumerate(info)
                    if su <= j - 1 and sv >= j]
        crossing.sort(key=lambda idx: -min(lin[info[idx][0]], lin[info[idx][1]]))
        slot_l, slot_r = tips[j]
        front, back = [], []
        for idx in crossing:
            pid_r = d.new_point(slot_r[0])
            pid_l = d.new_point(slot_l[0])
            tip_ids[(idx, j)] = (pid_l, pid_r)
            front.append(pid_r)
            back.append(pid_l)
        d.order[slot_r] = front + d.order[slot_r]
        d.order[slot_l] = d.order[slot_l] + list(reversed(back))

    # rebuild the merged edges E1 = (s1, t1), E2 = (s2, t2); anchors[pid] is
    # the point continuing chord-endpoint pid's strand, possibly one of the
    # dying fan stubs whose own chords get stitched in afterwards
    anchors: dict[int, int] = {}
    parallel: set[int] = set()
    dying: list[int] = []

    def chord_of(pid: int) -> tuple[int, int, int, int]:
        return next(rec_ for rec_ in info if pid in rec_[:2])

    def rebuild(bs: Slot, as_: Slot, ss: Slot):
        lb, la_, ls = d.order[bs], list(d.order[as_]), list(d.order[ss])
        new_s: list[int] = []
        reused: set[int] = set()
        for bpt in lb:
            u, v, _, _ = chord_of(bpt)
            other = v if u == bpt else u
            if other in la_:
                # chord parallel to the collapsing pair: the two crossings fuse
                sid = ls[len(la_) - 1 - la_.index(other)]
                new_s.append(sid)
                reused.add(sid)
                parallel.add(bpt)
                parallel.add(other)
            else:
                fresh = d.new_point(ss[0])
                new_s.append(fresh)
                anchors[bpt] = fresh
        for x, sid in enumerate(ls):
            if sid in reused:
                continue
            apt = la_[len(la_) - 1 - x]   # rerouted stub's old crossing
            anchors[apt] = sid
            dying.append(sid)
        d.order[ss] = new_s

    rebuild(b1, a1, s1)
    rebuild(b2, a2, s2)

    # corridor chains, endpoints possibly at dying stubs
    proposed: list[tuple[int, int]] = []
    for idx, (u, v, su, sv) in enumerate(info):
        if u in parallel:
            continue
        chain: list[int] = [anchors[u]]
        for j in range(max(su + 1, 2), min(sv, n - 1) + 1):
            pid_l, pid_r = tip_ids[(idx, j)]
            chain.append(pid_l)
            chain.append(pid_r)
        chain.append(anchors[v])
        for i in range(0, len(chain), 2):
            proposed.append((chain[i], chain[i + 1]))

    # stitch through the dying stubs' own chords, each once even when it
    # joins two dying stubs
    links = proposed + [(s, d.disconnect(s)) for s in dying if s in d.mate]
    for s in dying:
        del d.square_of[s]
    paths, cycles = _splice(links, set(dying))
    for p, q in paths:
        d.connect(p, q)
    d.loops[wedge[0][0]] += cycles + d.loops[w]
    d.loops[w] = 0
    _consume_square(d, w)
