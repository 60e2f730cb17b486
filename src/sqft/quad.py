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
    VertexClass, _norm_pair, _require_valid, tight_copy,
)


@dataclass(frozen=True)
class CollapseRecord:
    """One slack square collapse.

    `square` is the collapsed square, with the internal vertex y at its
    corner `y_corner` and the (same-sign, boundary) target vertex opposite.
    The fan lists the edges at y anticlockwise, e_1..e_n, where e_1 and e_n
    are the collapsed square's own sides at y. `wedges` are the corners
    between consecutive fan edges, the corners of y met walking ahead from
    (square, y_corner) until the walk comes back to it, so their squares
    are w_1..w_{n-1}; y's corners are (square, y_corner) and the wedges.
    """

    square: int
    y_corner: int
    sign: int
    wedges: tuple[Corner, ...]

    @property
    def n(self) -> int:
        return len(self.wedges) + 1

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


def _wedges(part: list[int], x: int) -> tuple[Corner, ...]:
    """The wedges of the internal vertex at corner number x: the corners
    met walking ahead round it on the gluing table `part`, anticlockwise,
    as in `SquareComplex.corner_table`, up to x itself."""
    wedges: list[Corner] = []
    # the side before a corner is written out, as in corner_table
    cur = part[x - 1 if x & 3 else x + 3]
    while cur != x:
        if cur < 0:
            raise InvalidComplex("fan walk left the surface; vertex not internal")
        wedges.append((cur >> 2, cur & 3))
        if len(wedges) >= len(part):
            raise InvalidComplex("fan walk does not close")
        cur = part[cur - 1 if cur & 3 else cur + 3]
    return tuple(wedges)


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
    """The record of collapsing square sq at its corner y_corner, which
    must be at an internal vertex whose opposite corner is a boundary
    vertex of the same sign (ValueError otherwise)."""
    t = c.corner_table
    x = 4 * sq + y_corner
    y, z = t.of[x], t.of[x ^ 2]
    if not t.internal[y]:
        raise ValueError("collapse corner is not at an internal vertex")
    if t.internal[z] or t.sign(z) != t.sign(y):
        raise ValueError("target corner is not a boundary vertex of equal sign")
    return CollapseRecord(sq, y_corner, t.sign(y), _wedges(c.partner_index, x))


def collapse_slack_square(c: SquareComplex, r: CollapseRecord) -> SquareComplex:
    """Perform the collapse on the complex: remove the square, splice gluings.

    The collapsed square's sides a1, b1 and a2, b2 (see `sides`) are
    identified: side k of it with side 2 * y_corner + 1 - k. Each chain of
    identifications from a side glued off the square joins that gluing to
    the one at the chain's far end; a chain that ends on the boundary
    leaves its surviving side unglued. The squares after it shift down by
    one. Expects a valid complex; `collapse_steps` checks it. ValueError
    if r is not a record of a collapse of c.
    """
    w = r.square
    try:
        same = 0 <= w < c.square_count and \
            _wedges(c.partner_index, 4 * w + r.y_corner) == r.wedges
    except InvalidComplex:
        same = False
    if not same:
        raise ValueError("collapse record does not match the complex")
    return _collapse(c, r)


def _collapse(c: SquareComplex, r: CollapseRecord) -> SquareComplex:
    """`collapse_slack_square` of a record made from c itself, unchecked."""
    part = c.partner_index
    w = r.square
    lo, hi = 4 * w, 4 * w + 4

    def slot(v: int) -> Slot:
        s = v >> 2
        return (s - 1 if s > w else s, v & 3)

    m = 2 * r.y_corner + 1
    pairs = [(slot(u), slot(v)) for u, v in enumerate(part)
             if u < v and not (lo <= u < hi or lo <= v < hi)]
    resolved: set[int] = set()
    for side in (4 * s + k for s, k in r.sides()):
        att = part[side]
        if side in resolved or lo <= att < hi:
            continue
        # walk the identification chain from this free end
        resolved.add(side)
        cur = lo + ((m - side) & 3)
        while True:
            resolved.add(cur)
            nxt = part[cur]
            if not lo <= nxt < hi:
                break
            resolved.add(nxt)
            cur = lo + ((m - nxt) & 3)
        far = part[cur]
        if att >= 0 and far >= 0:
            if (att + far) & 1 == 0:
                raise InvalidComplex("collapse produced a parity-violating edge")
            pairs.append((slot(att), slot(far)))
    return SquareComplex.build(c.square_count - 1, pairs, slack=True)


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
        # the record's wedges are this very complex's: no second walk
        after = _collapse(cur, rec)
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
    edge_of: dict[int, int] = {}            # side number -> edge index
    for i, (a, b) in enumerate(edges):
        edge_of[4 * a[0] + a[1]] = edge_of[4 * b[0] + b[1]] = i
    cyclic = tuple(tuple(edge_of.get(x) for x in range(4 * s, 4 * s + 4))
                   for s in range(c.square_count))
    return RibbonGraph(c.square_count, edges, cyclic)
