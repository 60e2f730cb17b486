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
from itertools import chain
from typing import Iterable, Optional

from .surface import (
    GluingPair, Slot, SquareComplex, _norm_pair, validate_complex,
)

EP = tuple[int, int]                  # (side, position) within a square
Chord = tuple[EP, EP]


def _norm_chord(a: EP, b: EP) -> Chord:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CurveSystem:
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
    def _side_counts(self) -> tuple[tuple[int, int, int, int], ...]:
        # points per (square, side), built on the first side_count and kept
        # out of the fields, which alone define == and hash. Every endpoint
        # side must be in 0..3: validate_sutures checks that before it reads
        # a count
        table = []
        for chords in self.chords:
            counts = [0, 0, 0, 0]
            for a, b in chords:
                counts[a[0]] += 1
                counts[b[0]] += 1
            table.append(tuple(counts))
        return tuple(table)

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


# ---------------------------------------------------------------------------
# mutable diagram used by all rewriting code
#
# Points are opaque integer ids. Per (square, side) an ordered list of ids
# gives the positions; a global involution `mate` pairs chord endpoints within
# squares. Gluing matching is positional: list[i] on one side corresponds to
# list[m-1-i] on the partner side.


class Diagram:
    def __init__(self, square_count: int):
        self.square_count = square_count
        self.order: dict[Slot, list[int]] = {
            (s, k): [] for s in range(square_count) for k in range(4)
        }
        self.mate: dict[int, int] = {}
        self.loops: list[int] = [0] * square_count
        self.square_of: dict[int, int] = {}
        self._next = 0

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_system(g: CurveSystem) -> "Diagram":
        d = Diagram(g.square_count)
        ids: dict[tuple[int, EP], int] = {}
        for sq in range(g.square_count):
            eps = sorted(ep for ch in g.chords[sq] for ep in ch)
            for ep in eps:
                pid = d.new_point(sq)
                ids[(sq, ep)] = pid
                d.order[(sq, ep[0])].append(pid)
            for a, b in g.chords[sq]:
                d.connect(ids[(sq, a)], ids[(sq, b)])
            d.loops[sq] = g.loops[sq]
        return d

    def freeze(self) -> CurveSystem:
        pos: dict[int, EP] = {}
        for (sq, k), lst in self.order.items():
            for i, pid in enumerate(lst):
                pos[pid] = (k, i)
        chords: dict[int, list[tuple[EP, EP]]] = {}
        done: set[int] = set()
        for pid, qid in self.mate.items():
            if pid in done:
                continue
            done.add(pid)
            done.add(qid)
            sq = self.square_of[pid]
            if self.square_of[qid] != sq:
                raise AssertionError("chord spans squares")
            chords.setdefault(sq, []).append((pos[pid], pos[qid]))
        return CurveSystem.build(self.square_count, chords,
                                 {s: n for s, n in enumerate(self.loops)})

    # -- primitives ----------------------------------------------------------

    def new_point(self, square: int) -> int:
        pid = self._next
        self._next += 1
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

    def insert(self, slot: Slot, index: int, square_hint: Optional[int] = None) -> int:
        pid = self.new_point(square_hint if square_hint is not None else slot[0])
        self.order[slot].insert(index, pid)
        return pid

    def edge_lists(self, edge: GluingPair) -> tuple[Slot, Slot, list[int], list[int]]:
        a, b = edge
        return a, b, self.order[a], self.order[b]

    def remap_squares(self, perm: dict[int, int], new_count: int) -> "Diagram":
        d = Diagram(new_count)
        d._next = self._next
        for (sq, k), lst in self.order.items():
            if sq in perm:
                d.order[(perm[sq], k)] = list(lst)
        d.mate = dict(self.mate)
        for s, cnt in enumerate(self.loops):
            if s in perm:
                d.loops[perm[s]] = cnt
        d.square_of = {pid: perm[sq] for pid, sq in self.square_of.items()}
        return d


# ---------------------------------------------------------------------------
# validation


def validate_sutures(c: SquareComplex, g: CurveSystem) -> "ValidationReport":
    """Problems of a curve system on a complex, in a fixed order.

    Each square is checked with one sort of its endpoints. Side counts are
    read only when every endpoint lies on a side 0..3.
    """
    from .surface import ValidationReport

    problems: list[str] = []
    if g.square_count != c.square_count:
        return ValidationReport((f"curve system has {g.square_count} squares, "
                                 f"complex has {c.square_count}",))
    if not validate_complex(c).ok:
        return ValidationReport(("underlying complex invalid",))

    on_sides = True
    for sq in range(c.square_count):
        found, square_on_sides = _square_problems(sq, g.chords[sq], g.loops[sq])
        if found:
            problems.extend(found)
            on_sides = on_sides and square_on_sides
    if not on_sides:
        return ValidationReport(tuple(problems))

    for slot in c.boundary_slots:
        m = g.side_count(slot)
        if m != 1:
            problems.append(f"boundary side {slot} meets {m} points, wants 1")
    for a, b in c.sorted_gluings():
        ma, mb = g.side_count(a), g.side_count(b)
        if ma != mb:
            problems.append(f"edge {a}-{b}: point counts {ma} != {mb}")
        elif ma % 2 == 0:
            problems.append(f"edge {a}-{b}: even intersection count {ma}")
    return ValidationReport(tuple(problems))


def _square_problems(sq: int, chords: tuple[Chord, ...],
                     loops: int) -> tuple[list[str], bool]:
    """The problems of one square's chord diagram, in a fixed order (none
    for a valid square), and whether every endpoint lies on a side 0..3.

    One sort of the endpoints puts the points on no side at its two ends and
    each side's positions in a run, which must read 0, 1, 2, ...; a point
    used twice leaves a run that does not.
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
    # crossing is defined only for distinct points
    if distinct and not _noncrossing(chords, eps):
        problems.append(f"square {sq}: chords cross")
    return problems, on_sides


def _noncrossing(chords: tuple[Chord, ...], eps: list[EP]) -> bool:
    """Whether chords with distinct endpoints `eps`, sorted, are nested."""
    index = {ep: i for i, ep in enumerate(eps)}
    pair: dict[int, int] = {}
    for a, b in chords:
        pair[index[a]] = index[b]
        pair[index[b]] = index[a]
    stack: list[int] = []
    for i in range(len(eps)):
        if stack and stack[-1] == pair[i]:
            stack.pop()
        elif pair[i] > i:
            stack.append(i)
        else:
            return False
    return not stack


def require_valid_pair(c: SquareComplex, g: CurveSystem) -> None:
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
    both endpoints on one glued side is returned as it is, with the side
    counts it has cached. Surgery children, which bypass_surgery normalizes
    and freezes, take this path.
    """
    if _canonical_without_edge_chords(c, g):
        return g
    d = Diagram.from_system(g)
    _normalize_diagram(c, d)
    return d.freeze()


def _canonical_without_edge_chords(c: SquareComplex, g: CurveSystem) -> bool:
    for sq, chords in enumerate(g.chords):
        prev = None
        for chord in chords:
            a, b = chord
            if b < a or (prev is not None and chord < prev):
                return False
            if a[0] == b[0] and c.is_glued((sq, a[0])):
                return False
            prev = chord
    return True


def _normalize_diagram(c: SquareComplex, d: Diagram) -> None:
    edges = c.sorted_gluings()
    while True:
        hit = _find_bigon(d, edges)
        if hit is None:
            return
        _remove_bigon(c, d, *hit)


def _find_bigon(d: Diagram, edges: list[GluingPair]):
    for edge in edges:
        for slot in edge:
            lst = d.order[slot]
            for i in range(len(lst) - 1):
                if d.mate.get(lst[i]) == lst[i + 1]:
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
    d = Diagram.from_system(g)
    _surgery_raw(c, d, _norm_pair(*edge), triple_start, direction)
    _normalize_diagram(c, d)
    return d.freeze()


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
    stubs = [aB, aM, aT, bB, bM, bT]
    if direction == "up":
        cross, short1, short2 = (aB, bT), (aM, aT), (bB, bM)
    else:
        cross, short1, short2 = (aT, bB), (aM, aB), (bM, bT)

    # old chords at the stubs (deduped; a chord may join two stubs when the
    # edge self-glues one square)
    old_edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    for s in stubs:
        if s in seen:
            continue
        w = d.mate[s]
        seen.add(s)
        if w in stubs:
            seen.add(w)
        old_edges.append((s, w))
    for u, _ in old_edges:
        d.disconnect(u)

    links: list[tuple[int, int, bool]] = [(u, v, False) for u, v in old_edges]
    links.append((cross[0], cross[1], True))
    links.append((short1[0], short1[1], False))
    links.append((short2[0], short2[1], False))
    incid: dict[int, list[int]] = {}
    for ei, (u, v, _) in enumerate(links):
        incid.setdefault(u, []).append(ei)
        incid.setdefault(v, []).append(ei)

    for pid in stubs:
        d.drop_point(slot_a if pid in la else slot_b, pid)
    new_a = d.insert(slot_a, t)
    new_b = d.insert(slot_b, m - 3 - t)

    used = [False] * len(links)
    a_stubs = {aB, aM, aT}

    def walk(node: int, ei: int) -> tuple[list[int], int]:
        """Follow unused links from node; returns (chain, cross position)."""
        chain = [node]
        cross_pos = -1
        while True:
            used[ei] = True
            u, v, is_cross = links[ei]
            if is_cross:
                cross_pos = len(chain) - 1
            node = v if node == u else u
            chain.append(node)
            remaining = [e for e in incid.get(node, ()) if not used[e]]
            if not remaining:
                return chain, cross_pos
            ei = remaining[0]

    for x, incident in incid.items():
        if len(incident) != 1 or used[incident[0]]:
            continue
        chain, cross_pos = walk(x, incident[0])
        y = chain[-1]
        if cross_pos < 0:
            d.connect(x, y)
        else:
            # the path enters the edge crossing from the A side or the B side
            enters_from_a = chain[cross_pos] in a_stubs
            d.connect(x, new_a if enters_from_a else new_b)
            d.connect(new_b if enters_from_a else new_a, y)
    for ei, (u, _, _) in enumerate(links):
        if used[ei]:
            continue
        chain, cross_pos = walk(u, ei)        # a closed all-stub component
        if cross_pos >= 0:
            if slot_a[0] != slot_b[0]:
                raise AssertionError("closed crossing strand needs one square")
            d.connect(new_a, new_b)
        else:
            d.loops[slot_a[0]] += 1


def disc_externals(d: Diagram, edge: GluingPair, t: int) -> tuple[int, ...]:
    """The six chord endpoints just outside a bypass disc, C1 stub order.

    Usable for iterated surgery at one disc (set_disc_config) when they are
    six distinct points not themselves on the disc.
    """
    slot_a, slot_b, la, lb = d.edge_lists(edge)
    m = len(la)
    stubs = [la[t], la[t + 1], la[t + 2],
             lb[m - 1 - t], lb[m - 2 - t], lb[m - 3 - t]]
    ext = tuple(d.mate[s] for s in stubs)
    if len(set(ext)) != 6 or set(ext) & set(stubs):
        raise ValueError("disc externals are not six separate points")
    return ext


def set_disc_config(d: Diagram, edge: GluingPair, gap: int,
                    externals: tuple[int, ...], k: int) -> None:
    """Rewire the three disc strands among fixed externals to configuration
    C_k; C1 crosses the edge three times, C0 and C2 once."""
    slot_a, slot_b, la, lb = d.edge_lists(edge)
    ab, am, at_, bb, bm, bt = externals
    for e in externals:
        w = d.mate.get(e)
        if w is None:
            continue
        d.disconnect(e)
        if w in la:
            d.drop_point(slot_a, w)
        elif w in lb:
            d.drop_point(slot_b, w)
        elif w in externals:
            pass                        # a short chord between externals
        else:
            raise ValueError("disc content leaked outside the edge")
    m = len(d.order[slot_a])
    if k == 1:
        a_ids = [d.new_point(slot_a[0]) for _ in range(3)]
        b_ids = [d.new_point(slot_b[0]) for _ in range(3)]
        d.order[slot_a][gap:gap] = a_ids
        # crossing i sits at A position gap+i and B position (m+3)-1-(gap+i)
        d.order[slot_b][m - gap:m - gap] = list(reversed(b_ids))
        for aid, ext in zip(a_ids, (ab, am, at_)):
            d.connect(aid, ext)
        for bid, ext in zip(b_ids, (bb, bm, bt)):
            d.connect(bid, ext)
    else:
        na = d.new_point(slot_a[0])
        nb = d.new_point(slot_b[0])
        d.order[slot_a].insert(gap, na)
        d.order[slot_b].insert(m - gap, nb)
        if k == 2:
            d.connect(ab, na)
            d.connect(nb, bt)
            d.connect(am, at_)
            d.connect(bb, bm)
        elif k == 0:
            d.connect(at_, na)
            d.connect(nb, bb)
            d.connect(am, ab)
            d.connect(bm, bt)
        else:
            raise ValueError("k must be 0, 1, or 2")


def bypass_triples(c: SquareComplex, g: CurveSystem) -> list[tuple[GluingPair, int]]:
    out = []
    for edge in c.sorted_gluings():
        m = g.side_count(edge[0])
        for t in range(m - 2):
            out.append((edge, t))
    return out


# ---------------------------------------------------------------------------
# transport across gluing / ungluing


def transport_glue(c: SquareComplex, g: CurveSystem, a: Slot, b: Slot) -> CurveSystem:
    """Curve data after gluing boundary sides a and b (each meets one point)."""
    require_valid_pair(c, g)
    for slot in (a, b):
        if g.side_count(slot) != 1:
            raise AssertionError(f"boundary side {slot} must meet one point")
    return g


def transport_unglue(c: SquareComplex, g: CurveSystem, edge: GluingPair) -> CurveSystem:
    require_valid_pair(c, g)
    pair = _norm_pair(*edge)
    if pair not in c.gluings:
        raise ValueError(f"no gluing {edge}")
    if g.side_count(pair[0]) != 1:
        raise ValueError("cut along an edge meeting the sutures once")
    return g


# ---------------------------------------------------------------------------
# finger move: push a chord across an edge, creating an innermost bigon on
# the far side. Inverse of one bigon removal; used to set up bypass triples.


def finger_push(c: SquareComplex, g: CurveSystem, slot: Slot, gap: int,
                chord_ep: EP) -> CurveSystem:
    pair = c.partner(slot)
    if pair is None:
        raise ValueError("can only push across an internal edge")
    d = Diagram.from_system(g)
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
