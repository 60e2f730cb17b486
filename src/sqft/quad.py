"""Quadrangulation rewriting: slack square collapse, tightening, diagonal
slides, and the dual ribbon graph.

A slack square collapse removes one internal vertex y by collapsing a square
that has y at one corner and a boundary vertex of the same sign at the
opposite corner. The two sides of the square at y are isotoped onto the two
sides at the opposite corner; everything else stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .surface import (
    Corner, CornerTable, GluingPair, InvalidComplex, Slot, SquareComplex,
    VertexClass, _norm_pair, _require_valid, remove_square, tight_copy,
)


@dataclass(frozen=True)
class CollapseRecord:
    """One slack square collapse.

    `square` is the collapsed square, with the internal vertex at its corner
    `y_corner` and the (same-sign, boundary) target vertex opposite. The fan
    lists the edges at the internal vertex anticlockwise as gluing pairs
    e_1..e_n, where e_1 and e_n are the collapsed square's own sides at y.
    `wedges` are the corners between consecutive fan edges, excluding the
    collapsed square's own corner, so their squares are w_1..w_{n-1}.
    """

    square: int
    y_corner: int
    sign: int
    internal_corners: frozenset[Corner]
    target_corners: frozenset[Corner]
    fan: tuple[GluingPair, ...]
    wedges: tuple[Corner, ...]

    @property
    def n(self) -> int:
        return len(self.fan)

    @property
    def wedge_squares(self) -> tuple[int, ...]:
        return tuple(sq for sq, _ in self.wedges)

    def sides(self) -> tuple[Slot, Slot, Slot, Slot]:
        """(a1, a2, b1, b2): the y-sides and their collapse partners."""
        s, c = self.square, self.y_corner
        return ((s, (c - 1) % 4), (s, c), (s, (c + 2) % 4), (s, (c + 1) % 4))


@dataclass(frozen=True)
class SlideRecord:
    squares: tuple[int, int]
    removed_edge: GluingPair
    added_edge: GluingPair
    direction: str                        # "ccw" | "cw"
    slot_map: tuple[tuple[Slot, Slot], ...]   # old outer slot -> new slot


def _fan(c: SquareComplex, start: Corner) -> tuple[tuple[GluingPair, ...], tuple[Corner, ...]]:
    """Fan of edges around the internal vertex at `start`, anticlockwise."""
    fan: list[GluingPair] = []
    wedges: list[Corner] = []
    cur = start
    while True:
        sq, cc = cur
        side = (sq, (cc - 1) % 4)
        mate = c.partner(side)
        if mate is None:
            raise InvalidComplex("fan walk left the surface; vertex not internal")
        fan.append(_norm_pair(side, mate))
        cur = mate
        if cur == start:
            return tuple(fan), tuple(wedges)
        wedges.append(cur)
        if len(fan) > 4 * c.square_count:
            raise InvalidComplex("fan walk does not close")


def find_collapsible_square(c: SquareComplex, y: VertexClass) -> tuple[int, int, VertexClass]:
    """Locate a square to collapse, searching from the internal vertex y.

    Returns (square, corner-at-internal-vertex, target class). Breadth-first
    over the same-sign diagonal graph; the square found may sit at another
    internal vertex of the same sign, which is then the one collapsed first.
    Expects a valid complex; `collapse_steps` checks it.

    No square found has a side at y glued to its own opposite side: by the
    gluing rule (see surface), with y at corner (s, c), gluing (s, c - 1) to
    (s, c + 2) or (s, c) to (s, c + 1) makes corner (s, c + 2) y itself,
    not a boundary vertex.
    """
    if not y.internal:
        raise ValueError("vertex is not internal")
    t = c.corner_table
    sq, corner = y.key
    x = _collapsible_corner(t, t.of[4 * sq + corner])
    return x >> 2, x & 3, t.vertex_class(t.of[x ^ 2])


def _collapsible_corner(t: CornerTable, y: int) -> int:
    """The corner number at which to collapse, searching from the internal
    class y of t: the least corner of the first class, breadth-first over
    the same-sign diagonals, whose opposite corner (x ^ 2) is on the
    boundary."""
    of, internal = t.of, t.internal
    members: list[list[int]] = [[] for _ in t.keys]
    for x, k in enumerate(of):
        members[k].append(x)
    seen = {y}
    queue = [y]
    for z in queue:
        for x in members[z]:
            opp = of[x ^ 2]
            if not internal[opp]:
                return x
            if opp not in seen:
                seen.add(opp)
                queue.append(opp)
    raise InvalidComplex("no collapsible square reachable; complex inconsistent")


def make_collapse_record(c: SquareComplex, sq: int, y_corner: int) -> CollapseRecord:
    t = c.corner_table
    y = t.of[4 * sq + y_corner]
    x = t.of[(4 * sq + y_corner) ^ 2]
    if not t.internal[y]:
        raise ValueError("collapse corner is not at an internal vertex")
    if t.internal[x] or t.sign(x) != t.sign(y):
        raise ValueError("target corner is not a boundary vertex of equal sign")
    fan, wedges = _fan(c, (sq, y_corner))
    return CollapseRecord(
        square=sq,
        y_corner=y_corner,
        sign=t.sign(y),
        internal_corners=frozenset(t.corners(y)),
        target_corners=frozenset(t.corners(x)),
        fan=fan,
        wedges=wedges,
    )


def collapse_slack_square(c: SquareComplex, r: CollapseRecord) -> SquareComplex:
    """Perform the collapse on the complex: remove the square, splice gluings.

    Expects a valid complex; `collapse_steps` checks it.
    """
    a1, a2, b1, b2 = r.sides()
    t = c.corner_table
    y = t.of[4 * r.square + r.y_corner]
    if frozenset(t.corners(y)) != r.internal_corners:
        raise ValueError("collapse record does not match the complex")

    own = {a1: b1, b1: a1, a2: b2, b2: a2}     # arc identifications
    w_sides = set(own)

    new_pairs: list[GluingPair] = [
        g for g in c.gluings if g[0] not in w_sides and g[1] not in w_sides
    ]
    resolved: set[Slot] = set()
    for side in (a1, a2, b1, b2):
        att = c.partner(side)
        if side in resolved or (att is not None and att in w_sides):
            continue
        # walk the identification chain from this free end
        resolved.add(side)
        cur = own[side]
        while True:
            resolved.add(cur)
            nxt = c.partner(cur)
            if nxt is None or nxt not in w_sides:
                break
            resolved.add(nxt)
            cur = own[nxt]
        far = c.partner(cur)
        if att is not None and far is not None:
            if (att[1] + far[1]) % 2 == 0:
                raise InvalidComplex("collapse produced a parity-violating edge")
            new_pairs.append(_norm_pair(att, far))
        # one or both ends on the boundary: the surviving side stays unglued

    trimmed = SquareComplex.build(c.square_count, new_pairs, slack=True)
    return remove_square(trimmed, r.square)


def collapse_steps(c: SquareComplex) -> Iterator[
        tuple[SquareComplex, CollapseRecord, SquareComplex]]:
    """The collapses that tighten c, in order, each with the complex before
    and after it.

    c is validated once; every later complex is valid by construction.
    """
    _require_valid(c)
    cur = c
    while True in (t := cur.corner_table).internal:
        # the first internal vertex in key order
        x = _collapsible_corner(t, t.internal.index(True))
        rec = make_collapse_record(cur, x >> 2, x & 3)
        after = collapse_slack_square(cur, rec)
        yield cur, rec, after
        cur = after


def tighten(c: SquareComplex) -> tuple[SquareComplex, list[CollapseRecord]]:
    """Collapse slack squares until no internal vertices remain."""
    records: list[CollapseRecord] = []
    cur = c
    for _, rec, cur in collapse_steps(c):
        records.append(rec)
    return tight_copy(cur), records


# ---------------------------------------------------------------------------
# diagonal slides


def _hexagon_outer(c: SquareComplex, edge: GluingPair) -> tuple[int, int, int, int, list[Slot]]:
    (p_sq, p), (q_sq, q) = edge
    if p_sq == q_sq:
        raise ValueError("diagonal slide needs two distinct squares")
    outer = [
        (p_sq, (p + 1) % 4), (p_sq, (p + 2) % 4), (p_sq, (p + 3) % 4),
        (q_sq, (q + 1) % 4), (q_sq, (q + 2) % 4), (q_sq, (q + 3) % 4),
    ]
    return p_sq, p, q_sq, q, outer


def slide_slot_map(c: SquareComplex, edge: GluingPair, direction: str) -> dict[Slot, Slot]:
    """Where each outer side of the two-square hexagon lands after the slide.

    New squares keep the old diagonal side indices: the square at P's index is
    the hexagon cell sharing exactly one outer side with old P, its diagonal
    labeled p; likewise for Q. This makes three same-direction slides the
    literal identity.
    """
    p_sq, p, q_sq, q, h = _hexagon_outer(c, edge)
    if direction == "ccw":
        return {
            h[0]: (p_sq, (p + 3) % 4),
            h[1]: (q_sq, (q + 1) % 4),
            h[2]: (q_sq, (q + 2) % 4),
            h[3]: (q_sq, (q + 3) % 4),
            h[4]: (p_sq, (p + 1) % 4),
            h[5]: (p_sq, (p + 2) % 4),
        }
    if direction == "cw":
        return {
            h[0]: (q_sq, (q + 2) % 4),
            h[1]: (q_sq, (q + 3) % 4),
            h[2]: (p_sq, (p + 1) % 4),
            h[3]: (p_sq, (p + 2) % 4),
            h[4]: (p_sq, (p + 3) % 4),
            h[5]: (q_sq, (q + 1) % 4),
        }
    raise ValueError("direction must be 'ccw' or 'cw'")


def diagonal_slide(c: SquareComplex, edge: GluingPair | tuple[Slot, Slot],
                   direction: str) -> tuple[SquareComplex, SlideRecord]:
    _require_valid(c)
    pair = _norm_pair(*edge)
    if pair not in c.gluings:
        raise ValueError(f"no internal edge {edge}")
    if c.internal_vertices():
        raise InvalidComplex("diagonal slide requires a bona fide complex")
    (p_sq, p), (q_sq, q) = pair
    mapping = slide_slot_map(c, pair, direction)

    new_pairs: list[GluingPair] = []
    for a, b in c.gluings:
        if (a, b) == pair:
            continue
        new_pairs.append(_norm_pair(mapping.get(a, a), mapping.get(b, b)))
    new_pairs.append(_norm_pair((p_sq, p), (q_sq, q)))
    out = SquareComplex.build(c.square_count, new_pairs, slack=c.slack)
    record = SlideRecord(
        squares=(p_sq, q_sq),
        removed_edge=pair,
        added_edge=_norm_pair((p_sq, p), (q_sq, q)),
        direction=direction,
        slot_map=tuple(sorted(mapping.items())),
    )
    return out, record


# ---------------------------------------------------------------------------
# dual ribbon graph


@dataclass(frozen=True)
class RibbonGraph:
    vertex_count: int
    edges: tuple[GluingPair, ...]
    cyclic: tuple[tuple[Optional[int], ...], ...]   # per vertex, side order 0..3

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.cyclic[v] if e is not None)


def dual_graph(c: SquareComplex) -> RibbonGraph:
    if c.internal_vertices():
        raise InvalidComplex("dual graph is defined for bona fide complexes")
    edges = tuple(c.sorted_gluings())
    index = {e: i for i, e in enumerate(edges)}
    cyclic = []
    for s in range(c.square_count):
        row = []
        for k in range(4):
            mate = c.partner((s, k))
            row.append(None if mate is None else index[_norm_pair((s, k), mate)])
        cyclic.append(tuple(row))
    return RibbonGraph(c.square_count, edges, tuple(cyclic))
