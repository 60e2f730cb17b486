"""Sutures on square complexes.

A curve system records, per square, a chord diagram: marked points on the four
sides and a perfect non-crossing matching of those points, plus a count of
closed components living entirely inside the square (loose loops). Points on a
side are indexed 0..m-1 in the side's direction; across a gluing, point k on
one side is the same suture crossing as point m-1-k on the partner side. Every
boundary side carries exactly one point and every glued side an odd number.

These rules force the complement regions to 2-color coherently with the corner
signs, so no explicit sign data is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from typing import (
    Collection, Hashable, Iterable, NamedTuple, Optional, Sequence,
)

from .surface import (
    GluingPair, Slot, SquareComplex, ValidationReport, _norm_pair,
    validate_complex,
)

EP = tuple[int, int]                  # (side, position) within a square
Chord = tuple[EP, EP]


def _norm_chord(a: EP, b: EP) -> Chord:
    return (a, b) if a <= b else (b, a)


class PairFacts:
    """What a curve system is known to satisfy, out of its fields, which
    alone define ==, hash and repr. Three facts are None or the complex
    object their check holds on: `valid` (validate_sutures found no
    problem, or the system is a bypass child of one valid there), `normal`
    (_is_normal) and `open` (`strands` found no closed strand; it alone
    sets the fact). The fourth, `mates`, is None or the mate of each
    boundary point of the checked matching the system was built from
    (`disc.matching_mates`). A census root,
    `disc.fan_system`'s system of a checked or enumerated matching, holds
    the first three on the shared `disc.disc_complex(n)` by construction,
    and its mates, which `disc.fan_element` peels on that complex with no
    walk. No other system gets a fact from one: a surgery child or a
    relabelled copy is a new system with facts of its own.

    The facts are about a pair. What a system is on its own, its chord
    diagrams' problems and its endpoint numbering, is its
    `CurveSystem.endpoint_table`."""

    __slots__ = ("valid", "normal", "open", "mates")

    def __init__(self) -> None:
        self.valid = self.normal = self.open = self.mates = None


class EndpointTable(NamedTuple):
    """A curve system's endpoints by number, and its diagrams' problems.

    Endpoints are numbered square after square, each square's sorted, so
    in a valid system the points of side k of square s, which is slot
    number 4*s + k, are numbers start[4*s + k] + 0, 1, 2, ...; start has
    one more entry, the number of endpoints. `slot` gives each endpoint's
    slot number and `mate` the number of the other end of its chord. So an
    endpoint's position on its side is its number less its slot's start,
    and across a gluing of slots x and y, the point numbered e on x is the
    point numbered start[y] + start[x + 1] - 1 - e on y.

    `problems` lists the problems of every square's chord diagram in
    square order, and `on_sides` says whether every endpoint lies on a
    side 0..3. `start`, `slot` and `mate` are read only when there is no
    problem. The lists are never changed once the table is made.
    """

    problems: list[str]
    on_sides: bool
    start: list[int]
    slot: list[int]
    mate: list[int]


@dataclass(frozen=True)
class CurveSystem:
    """Per square, its chords, sorted, and its count of loose loops.

    Caches sit out of the fields, which alone define ==, hash and repr:
    `facts`, what the system is known to satisfy on a complex, and what it
    is on its own: the points on each side (`side_count`), and the
    `endpoint_table` built on them, each endpoint's number, slot and mate
    and its chord diagrams' problems.
    """

    chords: tuple[tuple[Chord, ...], ...]     # per square, sorted
    loops: tuple[int, ...]                    # per square

    @staticmethod
    def build(square_count: int,
              chords: dict[int, Iterable[tuple[EP, EP]]],
              loops: Optional[dict[int, int]] = None) -> "CurveSystem":
        loops = loops or {}
        per_square = []
        for s in range(square_count):
            per_square.append(tuple(sorted(
                _norm_chord(a, b) for a, b in chords.get(s, ())
            )))
        return CurveSystem(tuple(per_square),
                           tuple(loops.get(s, 0) for s in range(square_count)))

    @property
    def square_count(self) -> int:
        return len(self.chords)

    def side_count(self, slot: Slot) -> int:
        sq, k = slot
        return self._side_counts[sq][k]

    @cached_property
    def facts(self) -> PairFacts:
        return PairFacts()

    @cached_property
    def _side_counts(self) -> list[tuple[int, int, int, int]]:
        """The points on each side 0..3 of each square, the one count of
        them: a point on no side is left out, and the endpoint table names
        it. A push through a script reads these counts alone."""
        table = []
        for chords in self.chords:
            n = [0, 0, 0, 0]
            for (ka, _), (kb, _) in chords:
                if 0 <= ka < 4:
                    n[ka] += 1
                if 0 <= kb < 4:
                    n[kb] += 1
            table.append((n[0], n[1], n[2], n[3]))
        return table

    @cached_property
    def endpoint_table(self) -> EndpointTable:
        """The endpoint table, made in one pass over the squares on their
        side counts: the one check of each chord diagram."""
        return _endpoint_table(self.chords, self.loops, self._side_counts)

    def total_loops(self) -> int:
        return sum(self.loops)

    def permute_squares(self, perm: dict[int, int]) -> "CurveSystem":
        n = self.square_count
        chords: list = [None] * n
        loops = [0] * n
        for old in range(n):
            chords[perm[old]] = self.chords[old]
            loops[perm[old]] = self.loops[old]
        return CurveSystem(tuple(chords), tuple(loops))


def _endpoint_table(chords_of: Sequence[tuple[Chord, ...]],
                    loops_of: Sequence[int],
                    counts: Sequence[tuple[int, int, int, int]]
                    ) -> EndpointTable:
    """The endpoint table of a system given by its squares' chords, loop
    counts and side counts, each square's problems in a fixed order. This
    is the one numbering of a system's endpoints:
    `CurveSystem.endpoint_table` and the parser `formats.sutures_from_obj`
    both make their tables with it.

    A valid square's endpoints are numbered straight from its chords, side
    by side in position order (`_number`). A square that cannot be
    numbered so has a problem on a side, which `_square_problems` names.
    """
    problems: list[str] = []
    on_sides = True
    start: list[int] = []
    slot: list[int] = []
    mate: list[int] = []
    for sq, (chords, loops, n) in enumerate(zip(chords_of, loops_of,
                                                counts)):
        base = len(mate)
        size = 2 * len(chords)
        mate += [-1] * size
        at = (base, base + n[0], base + n[0] + n[1],
              base + n[0] + n[1] + n[2])
        start += at
        # every point lies on a side 0..3 when the sides count them all
        if sum(n) == size and _number(chords, at, n, mate):
            if loops < 0:
                problems.append(f"square {sq}: negative loop count")
            if not _nested(mate, base):
                problems.append(f"square {sq}: chords cross")
            x = 4 * sq
            slot += ([x] * n[0] + [x + 1] * n[1] + [x + 2] * n[2]
                     + [x + 3] * n[3])
        else:
            found, square_on_sides = _square_problems(sq, chords, loops)
            problems += found
            on_sides = on_sides and square_on_sides
            # the system is invalid, so these numbers are never read
            slot += [-1] * size
    start.append(len(mate))
    return EndpointTable(problems, on_sides, start, slot, mate)


def _number(chords: tuple[Chord, ...], at: tuple[int, int, int, int],
            n: tuple[int, int, int, int], mate: list[int]) -> bool:
    """Write the mate of each endpoint of a square whose points all lie on
    sides 0..3, n[k] of them on side k, into mate, numbered from at[k] on
    side k in position order. False, with mate left unfinished, unless each
    side's positions are 0, 1, 2, ... and each point ends one chord."""
    for (ka, pa), (kb, pb) in chords:
        if not (0 <= pa < n[ka] and 0 <= pb < n[kb]):
            return False
        i, j = at[ka] + pa, at[kb] + pb
        mate[i] = j
        mate[j] = i
    # a number written twice leaves another unwritten
    return -1 not in mate[at[0]:]


def _nested(mate: list[int], base: int) -> bool:
    """Whether the chords numbered from base on in mate are nested: each
    closes the last one still open."""
    stack: list[int] = []
    for i, j in enumerate(mate[base:], base):
        if j > i:
            stack.append(i)
        elif not stack or stack.pop() != j:
            return False
    return True


def _square_problems(sq: int, chords: tuple[Chord, ...], loops: int
                     ) -> tuple[list[str], bool]:
    """The problems of a square that `_number` refused, in a fixed order,
    and whether every endpoint lies on a side 0..3.

    One sort of the endpoints puts the points on no side at its two ends
    and each side's positions in a run, which must read 0, 1, 2, ...; a
    point used twice leaves a run that does not.
    """
    eps = sorted(chain.from_iterable(chords))
    on_sides = not eps or (eps[0][0] >= 0 and eps[-1][0] < 4)
    problems = [] if on_sides else [
        f"square {sq}: endpoint {ep} on no side"
        for ep in eps if not 0 <= ep[0] < 4]
    gapped: list[int] = []
    side, nxt = None, 0
    for k, p in eps:
        if k != side:
            side, nxt = k, 0
        if p != nxt:
            gapped.append(k)
        nxt += 1
    distinct = True
    if gapped:
        distinct = len(set(eps)) == len(eps)
        if not distinct:
            problems.append(f"square {sq}: point used by two chords")
        problems.extend(f"square {sq} side {k}: positions not dense"
                        for k in dict.fromkeys(gapped) if 0 <= k < 4)
    if loops < 0:
        problems.append(f"square {sq}: negative loop count")
    # crossing is defined only for distinct points, numbered here by their
    # order
    if distinct:
        index = {ep: i for i, ep in enumerate(eps)}
        mate = [0] * len(eps)
        for a, b in chords:
            mate[index[a]], mate[index[b]] = index[b], index[a]
        if not _nested(mate, 0):
            problems.append(f"square {sq}: chords cross")
    return problems, on_sides


# ---------------------------------------------------------------------------
# strands: one walk over a valid pair's arcs and closed curves


class Strands(NamedTuple):
    """The strands of a valid pair, on the numbers of the system's
    endpoint table and the complex's sides.

    `end` gives, for each boundary side's number, the number of the
    boundary side at the other end of its arc, and -1 for each glued side.
    `closed` lists the endpoints of each closed strand in walk order, from
    its least endpoint, the strands in the order of those.
    """

    end: list[int]
    closed: list[list[int]]


def strands(c: SquareComplex, g: CurveSystem) -> Strands:
    """The arcs and the closed strands of a valid pair, in one walk.

    A strand steps along a chord, then across the gluing of the side it
    reaches: across a gluing of slots x and y, the point numbered f on x is
    the point numbered start[y] + start[x + 1] - 1 - f on y. The walk takes
    each arc from one boundary side to the other, then each endpoint that
    no arc reached round its closed strand. Finding none sets g's `open`
    fact to c: this is the one place that fact is set.
    """
    t = g.endpoint_table
    start, slot, mate = t.start, t.slot, t.mate
    partner = c.partner_index
    end = [-1] * len(partner)
    reached = bytearray(len(slot))
    for s, across in enumerate(partner):
        if across >= 0 or end[s] >= 0:
            continue
        # a boundary side meets one point, numbered start[s]
        e = start[s]
        while True:
            f = mate[e]
            reached[e] = reached[f] = 1
            x = slot[f]
            across = partner[x]
            if across < 0:
                break
            e = start[across] + start[x + 1] - 1 - f
        end[s], end[x] = x, s
    closed = []
    first = reached.find(0)
    while first >= 0:
        # every side a closed strand reaches is glued
        e, points = first, []
        while True:
            f = mate[e]
            points += (e, f)
            x = slot[f]
            e = start[partner[x]] + start[x + 1] - 1 - f
            if e == first:
                break
        for p in points:
            reached[p] = 1
        closed.append(points)
        first = reached.find(0, first)
    if not closed:
        g.facts.open = c
    return Strands(end, closed)


# ---------------------------------------------------------------------------
# mutable diagram used by all rewriting code
#
# Points are opaque integer ids. Per (square, side) an ordered list of ids
# gives the positions; a global involution `mate` pairs chord endpoints within
# squares. Gluing matching is positional: list[i] on one side corresponds to
# list[m-1-i] on the partner side.
#
# A diagram is made whole from a curve system, and `freeze` rebuilds every
# square in the canonical form that CurveSystem.build gives: chords
# canonical and sorted, each side's positions 0, 1, 2, ... in list order.


class Diagram:
    def __init__(self, base: CurveSystem):
        self.square_count = base.square_count
        self.mate: dict[int, int] = {}
        self.square_of: dict[int, int] = {}
        self.loops: list[int] = list(base.loops)
        self.order: dict[Slot, list[int]] = {}
        self._ids = count()
        order, square_of = self.order, self.square_of
        for sq, chords in enumerate(base.chords):
            for k in range(4):
                order[(sq, k)] = []
            # sorted, so each side's points come in position order; an
            # endpoint on no side 0..3 is a KeyError naming its slot
            ids: dict[EP, int] = {}
            for ep in sorted(chain.from_iterable(chords)):
                pid = ids[ep] = next(self._ids)
                square_of[pid] = sq
                order[(sq, ep[0])].append(pid)
            for a, b in chords:
                self.connect(ids[a], ids[b])

    def freeze(self) -> CurveSystem:
        pos: dict[int, EP] = {}
        for (_, k), points in self.order.items():
            for i, pid in enumerate(points):
                pos[pid] = (k, i)
        chords: list[list[Chord]] = [[] for _ in range(self.square_count)]
        square_of = self.square_of
        for pid, qid in self.mate.items():
            if pid < qid:
                sq = square_of[pid]
                if square_of[qid] != sq:
                    raise AssertionError("chord spans squares")
                chords[sq].append(_norm_chord(pos[pid], pos[qid]))
        return CurveSystem(tuple(tuple(sorted(found)) for found in chords),
                           tuple(self.loops))

    # -- primitives ----------------------------------------------------------

    def new_point(self, square: int) -> int:
        pid = next(self._ids)
        self.square_of[pid] = square
        return pid

    def connect(self, a: int, b: int) -> None:
        if a == b:
            raise AssertionError("degenerate chord")
        self.mate[a] = b
        self.mate[b] = a

    def disconnect(self, a: int) -> int:
        b = self.mate.pop(a)
        del self.mate[b]
        return b

    def drop_point(self, slot: Slot, pid: int) -> None:
        self.order[slot].remove(pid)
        del self.square_of[pid]

    def insert(self, slot: Slot, index: int) -> int:
        pid = self.new_point(slot[0])
        self.order[slot].insert(index, pid)
        return pid

    def edge_lists(self, edge: GluingPair) -> tuple[Slot, Slot, list[int], list[int]]:
        a, b = edge
        return a, b, self.order[a], self.order[b]


# ---------------------------------------------------------------------------
# validation


def validate_sutures(c: SquareComplex, g: CurveSystem) -> "ValidationReport":
    """Problems of a curve system on a complex, in a fixed order.

    A system known to be valid on this very complex object (its `valid`
    fact is c) reads nothing and gets the empty report; any other system is
    checked whole: its chord diagrams' problems, which its endpoint table
    holds, then the point counts of the boundary sides and gluings, which
    depend on c and are read only when every endpoint lies on a side 0..3.
    An empty report sets the fact to c.
    """
    if g.facts.valid is c:
        return ValidationReport()
    if g.square_count != c.square_count:
        return ValidationReport((f"curve system has {g.square_count} squares, "
                                 f"complex has {c.square_count}",))
    if not validate_complex(c).ok:
        return ValidationReport(("underlying complex invalid",))

    table = g.endpoint_table
    problems = list(table.problems)
    if not table.on_sides:
        return ValidationReport(tuple(problems))

    # the point counts, read off the table's numbers: boundary sides in
    # number order, then gluings in the order of their lesser sides
    start = table.start
    edges = []
    for x, y in enumerate(c.partner_index):
        m = start[x + 1] - start[x]
        if y < 0:
            if m != 1:
                problems.append(f"boundary side {(x >> 2, x & 3)} meets {m} "
                                "points, wants 1")
        elif x < y:
            my = start[y + 1] - start[y]
            if m != my:
                edges.append(f"edge {(x >> 2, x & 3)}-{(y >> 2, y & 3)}: "
                             f"point counts {m} != {my}")
            elif m % 2 == 0:
                edges.append(f"edge {(x >> 2, x & 3)}-{(y >> 2, y & 3)}: "
                             f"even intersection count {m}")
    problems += edges
    if not problems:
        g.facts.valid = c
    return ValidationReport(tuple(problems))


def require_valid_pair(c: SquareComplex, g: CurveSystem) -> None:
    """Raise ValueError unless g is a valid curve system on c.

    A system known to be valid on this very complex object is not checked
    again: both are immutable, and the fact is set only by an empty report
    or by a bypass on a valid parent. An equal complex that is another
    object, or a system with no such fact, gets the full check.
    """
    if g.facts.valid is c:
        return
    report = validate_sutures(c, g)
    if not report.ok:
        raise ValueError("invalid curve system: " + "; ".join(report.problems))


# ---------------------------------------------------------------------------
# basic sutures


def basic_square_chords(positive: bool) -> list[tuple[EP, EP]]:
    """The two standard sutures on a lone square (one point per side)."""
    if positive:
        return [((0, 0), (1, 0)), ((2, 0), (3, 0))]   # cuts the odd corners
    return [((1, 0), (2, 0)), ((3, 0), (0, 0))]       # cuts the even corners


def basic_system(c: SquareComplex, bits: int) -> CurveSystem:
    """Basic sutures: square i carries the sign given by bit i."""
    chords = {
        s: basic_square_chords(bool((bits >> s) & 1))
        for s in range(c.square_count)
    }
    return CurveSystem.build(c.square_count, chords)


def basic_bits(c: SquareComplex, g: CurveSystem) -> Optional[int]:
    """The sign word if g is basic for c, else None."""
    bits = 0
    pos = tuple(sorted(_norm_chord(a, b) for a, b in basic_square_chords(True)))
    neg = tuple(sorted(_norm_chord(a, b) for a, b in basic_square_chords(False)))
    for s in range(c.square_count):
        if g.loops[s]:
            return None
        if g.chords[s] == pos:
            bits |= 1 << s
        elif g.chords[s] != neg:
            return None
    return bits


# ---------------------------------------------------------------------------
# normalization: remove innermost edge-bigons until no chord has both
# endpoints on one side


def normalize(c: SquareComplex, g: CurveSystem) -> CurveSystem:
    """g with every innermost bigon across a glued edge removed, in the
    canonical form that CurveSystem.build gives.

    An innermost bigon is a chord joining two neighbouring points of one
    glued side. So a valid g that is already in canonical form (each chord
    (a, b) with a <= b, each square's chords sorted) and has no chord with
    both endpoints on one glued side is returned as it is. A system whose
    `normal` fact is c, as every surgery child on c is, is returned
    unread; any other system is read whole.
    """
    if _is_normal(c, g):
        return g
    d = Diagram(g)
    _normalize_diagram(c, d)
    return d.freeze()


def _is_normal(c: SquareComplex, g: CurveSystem) -> bool:
    facts = g.facts
    if facts.normal is c:
        return True
    part = c.partner_index
    for sq, chords in enumerate(g.chords):
        prev = None
        for chord in chords:
            a, b = chord
            if b < a or (prev is not None and chord < prev):
                return False
            if a[0] == b[0] and part[4 * sq + a[0]] >= 0:
                return False
            prev = chord
    facts.normal = c
    return True


def _normalize_diagram(c: SquareComplex, d: Diagram) -> None:
    """Remove innermost bigons from d until none is left."""
    edges = c.sorted_gluings()
    while (hit := _find_bigon(d, edges)) is not None:
        _remove_bigon(c, d, *hit)


def _find_bigon(d: Diagram, edges: list[GluingPair]):
    order, mate = d.order, d.mate
    for edge in edges:
        for slot in edge:
            lst = order[slot]
            for i in range(len(lst) - 1):
                if mate.get(lst[i]) == lst[i + 1]:
                    return edge, slot, i
    return None


def _remove_bigon(c: SquareComplex, d: Diagram, edge: GluingPair,
                  slot: Slot, i: int) -> None:
    other = edge[1] if slot == edge[0] else edge[0]
    la, lb = d.order[slot], d.order[other]
    m = len(la)
    p1, p2 = la[i], la[i + 1]
    q1, q2 = lb[m - 1 - i], lb[m - 2 - i]    # partners of p1, p2
    d.disconnect(p1)                          # the bigon chord
    if d.mate.get(q1) == q2:
        d.disconnect(q1)
        d.loops[slot[0]] += 1                # strand closed up into a loop
    else:
        x1 = d.disconnect(q1)
        x2 = d.disconnect(q2)
        d.connect(x1, x2)
    for pid in (p1, p2):
        d.drop_point(slot, pid)
    for qid in (q1, q2):
        d.drop_point(other, qid)


# ---------------------------------------------------------------------------
# bypass surgery
#
# Disc model: the edge's canonical first slot is A; positions t, t+1, t+2 give
# three consecutive crossings. Going anticlockwise around the disc, the stub
# points are P0..P5 = B(t), B(t+1), B(t+2), A(t+2), A(t+1), A(t). The strands
# form configuration C1 = {P1P4, P2P3, P5P0}; "up" rewires to
# C2 = {P2P5, P3P4, P0P1}, "down" to C0 = {P0P3, P1P2, P4P5}. The C2/C0
# diameter crosses the edge at one new point replacing the three old ones.


def bypass_surgery(c: SquareComplex, g: CurveSystem, edge: GluingPair,
                   triple_start: int, direction: str) -> CurveSystem:
    """The child of g by the bypass at crossings t, t+1, t+2 of edge, with
    every innermost bigon it leaves removed.

    The surgery rewires a whole diagram of g, and the bigon search reads
    every glued side. The child is normalized, so its `normal` fact is c.
    A bypass re-routes sutures inside a disc, so the child of a system
    valid on c is valid on c: its `valid` fact is c when g's is. It keeps no
    reference to g.
    """
    d = Diagram(g)
    _surgery_raw(c, d, _norm_pair(*edge), triple_start, direction)
    _normalize_diagram(c, d)
    child = d.freeze()
    facts = child.facts
    facts.normal = c
    if g.facts.valid is c:
        facts.valid = c
    return child


def _surgery_raw(c: SquareComplex, d: Diagram, edge: GluingPair,
                 t: int, direction: str) -> None:
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    slot_a, slot_b, la, lb = d.edge_lists(edge)
    m = len(la)
    if m < 3:
        raise ValueError("edge carries fewer than 3 intersection points")
    if not 0 <= t <= m - 3:
        raise ValueError("triple start out of range")

    aB, aM, aT = la[t], la[t + 1], la[t + 2]
    bB, bM, bT = lb[m - 1 - t], lb[m - 2 - t], lb[m - 3 - t]
    stubs = (aB, aM, aT, bB, bM, bT)
    if direction == "up":
        cross, short1, short2 = (aB, bT), (aM, aT), (bB, bM)
    else:
        cross, short1, short2 = (aT, bB), (aM, aB), (bM, bT)

    # the old chords at the stubs, each once even when it joins two stubs
    # (the edge self-glues one square)
    links = [(s, d.disconnect(s)) for s in stubs if s in d.mate]
    for pid in stubs[:3]:
        d.drop_point(slot_a, pid)
    for pid in stubs[3:]:
        d.drop_point(slot_b, pid)
    new_a = d.insert(slot_a, t)
    new_b = d.insert(slot_b, m - 3 - t)
    # the crossing link is cut where it meets the edge, so a strand that
    # crosses ends at the new points, one path on each side
    links += [(cross[0], new_a), (new_b, cross[1]), short1, short2]
    paths, cycles = _splice(links, set(stubs))
    for p, q in paths:
        d.connect(p, q)
    d.loops[slot_a[0]] += cycles


def _splice(links: Sequence[tuple[Hashable, Hashable]],
            inner: Collection[Hashable],
            ) -> tuple[list[tuple[Hashable, Hashable]], int]:
    """Join the point pairs `links` end to end through the points of `inner`.

    A point is any hashable name: a diagram's point id, or a slide's
    (slot, position). Every move that re-routes sutures does this: sutures in a disc are fixed
    up to isotopy by their endpoints, so the arcs that meet at the points a
    move drops join end to end, and the closed curves that leaves are
    counted. Each inner point must end exactly two links (AssertionError
    otherwise); every other point is outer and ends one.

    Returns the (start, end) outer points of each path and the number of
    closed paths, which are made only of inner points. A path starts at the
    first outer point of the first link that ends at one of its outer
    points, and the paths come in the order of those links.
    """
    ends: dict[Hashable, list[int]] = {}
    for i, (u, v) in enumerate(links):
        ends.setdefault(u, []).append(i)
        ends.setdefault(v, []).append(i)
    for p in inner:
        if len(ends.get(p, ())) != 2:
            raise AssertionError(
                f"point {p} ends {len(ends.get(p, ()))} links, wants 2")
    used = [False] * len(links)

    def walk(node: Hashable, i: int) -> Hashable:
        # from node along link i, until an outer point or a used link
        while not used[i]:
            used[i] = True
            u, v = links[i]
            node = v if node == u else u
            if node not in inner:
                break
            a, b = ends[node]
            i = b if i == a else a
        return node

    paths = []
    for i, (u, v) in enumerate(links):
        if not used[i] and (u not in inner or v not in inner):
            start = u if u not in inner else v
            paths.append((start, walk(start, i)))
    cycles = 0
    for i, (u, _) in enumerate(links):
        if not used[i]:
            walk(u, i)
            cycles += 1
    return paths, cycles


def bypass_triples(c: SquareComplex, g: CurveSystem) -> list[tuple[GluingPair, int]]:
    out = []
    for edge in c.sorted_gluings():
        m = g.side_count(edge[0])
        for t in range(m - 2):
            out.append((edge, t))
    return out


# ---------------------------------------------------------------------------
# transport across a gluing


def transport_glue(c: SquareComplex, g: CurveSystem, a: Slot, b: Slot) -> CurveSystem:
    """Curve data after gluing boundary sides a and b (each meets one point)."""
    for slot in (a, b):
        if g.side_count(slot) != 1:
            raise AssertionError(f"boundary side {slot} must meet one point")
    return g


# ---------------------------------------------------------------------------
# finger move: push a chord across an edge, creating an innermost bigon on
# the far side. Inverse of one bigon removal; used to set up bypass triples.


def finger_push(c: SquareComplex, g: CurveSystem, slot: Slot, gap: int,
                chord_ep: EP) -> CurveSystem:
    pair = c.partner(slot)
    if pair is None:
        raise ValueError("can only push across an internal edge")
    d = Diagram(g)
    lst = d.order[slot]
    m = len(lst)
    if not 0 <= gap <= m:
        raise ValueError("gap out of range")
    side, posn = chord_ep
    u = d.order[(slot[0], side)][posn]
    w = d.mate[u]

    p1 = d.insert(slot, gap)
    p2 = d.insert(slot, gap + 1)
    q2 = d.insert(pair, m - gap)      # partner of p2
    q1 = d.insert(pair, m + 1 - gap)  # partner of p1
    d.connect(q1, q2)
    d.disconnect(u)
    for first in (True, False):
        if first:
            d.connect(u, p1)
            d.connect(p2, w)
        else:
            d.disconnect(u)
            d.disconnect(w)
            d.connect(u, p2)
            d.connect(p1, w)
        out = d.freeze()
        if validate_sutures(c, out).ok:
            return out
    raise ValueError("chord cannot reach that gap")
