"""Code the tests use and the program does not need.

- `transport_unglue` checks that cutting a gluing leaves a curve system
  that meets the cut once, and returns the system as it is.
- `matching_system_oracle` realizes a census matching by cutting the
  polygon of the fan disc along its arcs with `routing.split_disc`, the
  general disc splitter; `disc.fan_system` looks up the chords of each
  square in a table of square diagrams. `matchings_oracle` lists the
  non-crossing matchings by recursion, in the order of
  `census.noncrossing_matchings`.
- `slide_sutures_oracle` re-routes sutures across a diagonal slide by
  cutting the hexagon along the new diagonal with `routing.split_disc`;
  `routing.slide_sutures` places the crossings directly.
- `enumerate_basic` lists the basic systems of a complex, and
  `boundary_hugging_system` builds boundary-parallel arcs and loops.
- `confining_oracle` decides confinement by a flood fill over faces found
  by bracket nesting, apart from the half-edge trace of `_Analysis` and
  the union-find of `regions`.
- `_SquareFaces` and `_Analysis` find the regions of a pair by a
  half-edge face trace and a cell-by-cell count of each region's
  completion; `regions._decompose` counts the same cells locally, gap by
  gap.
- `block_power` is the n-th power of a 2x2 block over GF(2).
- `rotate` is the rotation p -> p + 2 of a disc matching acting on its
  element, and `rotation_peel_oracle` evaluates a matching by rotating
  each outermost chord to (0, 1) or (2n - 1, 0); `disc._peel` inserts a
  bit at the chord's own factor instead.
- `partner_oracle`, `boundary_cycles_oracle`,
  `canonical_permutation_oracle` and `arc_ends_oracle` read a complex's
  gluings and a pair's arcs through a dict of slots;
  `SquareComplex.partner_index`, `surface.canonical_permutation` and
  `sutures.strands` read them on integer tables.
- `fan_oracle` and `collapse_oracle` are the slack square collapse on slot
  tuples, through that dict: the fan of gluing pairs round the internal
  vertex, and the collapsed complex built whole and then rebuilt without
  its square (`remove_square_oracle`); `quad` walks and builds on side
  numbers, once.
- `closed_components` lists the closed strands of `sutures.strands` as
  sets of endpoint keys; `disjoint_union` places two complexes side by
  side; `surface_to_obj`, `sutures_to_obj`, `move_to_obj` and
  `script_to_obj` give a document's object form, which `json.dumps`
  writes as the oracle of the `formats.emit_*` text.
- `_surface_from_obj_oracle` and `_sutures_from_obj_oracle` are the
  parsers as they were: each slot or endpoint checked on its own, the
  object built from the lists, and its gluing table, side counts and
  endpoint table made when first read; the `formats` parsers fill those
  tables as they read. `check_parse` compares the two on a pair of
  documents.
"""

import json
from functools import lru_cache
from typing import Optional

from sqft import formats
from sqft._derived import SLIDE_BLOCK
from sqft.disc import disc_complex
from sqft.quad import slide_slot_map
from sqft.regions import Region, RegionDecomposition
from sqft.routing import DiscSide, split_disc
from sqft.engine import CreateSquare, Fold, Glue, MorphismScript, Zip
from sqft.surface import (
    Corner, GluingPair, InvalidComplex, Slot, SquareComplex, _norm_pair,
    validate_complex,
)
from sqft.sutures import (
    EP, CurveSystem, _splice, basic_system, normalize, require_valid_pair,
    strands, validate_sutures,
)
from sqft.tensor import Z2Tensor, slide_map


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
    c = disc_complex(n)
    cycle = c.boundary_cycles[0]
    sides = [DiscSide(key=slot, points=[g], corner=g)
             for g, slot in enumerate(cycle)]
    # arc i runs from its inner corner (i, 2) to its outer corner (i, 3);
    # a corner's position is that of the boundary side it starts
    corner_pos = {c.edge_endpoints(slot)[0].key: g
                  for g, slot in enumerate(cycle)}
    arcs = [(corner_pos[c.corner_class[(i, 2)].key],
             corner_pos[c.corner_class[(i, 3)].key]) for i in range(n - 2)]
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


def matchings_oracle(points):
    """The non-crossing perfect matchings of points in convex position,
    each as its chords: the first point matched to each point it may take
    in turn, the points inside its chord before the points outside."""
    if not points:
        yield ()
        return
    for i in range(1, len(points), 2):
        for inside in matchings_oracle(points[1:i]):
            for outside in matchings_oracle(points[i + 1:]):
                yield ((points[0], points[i]),) + inside + outside


def slide_sutures_oracle(c: SquareComplex, g: CurveSystem, edge,
                         direction: str) -> CurveSystem:
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
    return CurveSystem.build(g.square_count, chords, loops)


def enumerate_basic(c: SquareComplex) -> list[CurveSystem]:
    if c.internal_vertices():
        raise ValueError("basic census needs a bona fide complex")
    return [basic_system(c, bits) for bits in range(1 << c.square_count)]


# ---------------------------------------------------------------------------
# boundary-hugging fixtures: arcs around one sign of vertex per cycle plus
# closed curves parallel to a cycle


def _cycle_hops(c: SquareComplex, cycle: tuple[Slot, ...]):
    """Per boundary edge of the cycle, the glued sides crossed at its end."""
    hops = []
    for slot in cycle:
        sq, k = slot
        cur = (sq, (k + 1) % 4)
        crossing = []
        while c.is_glued(cur):
            mate = c.partner(cur)
            crossing.append((cur, mate))
            cur = (mate[0], (mate[1] + 1) % 4)
        hops.append(crossing)
    return hops


def boundary_hugging_system(c: SquareComplex, arc_sign: int = +1,
                            loops_per_cycle: Optional[dict[int, int]] = None
                            ) -> CurveSystem:
    """Arcs cutting off every arc_sign vertex, plus closed parallel curves.

    The arcs realize the extremal boundary-parallel sutures; each extra loop
    follows a whole boundary cycle just inside them. Crossing positions place
    shallower tracks nearer the boundary. An arc round a vertex that meets
    no gluing is one chord of its square, and a loop round a cycle that
    crosses no gluing (a lone square's) is a loose loop of that square.
    """
    loops_per_cycle = loops_per_cycle or {}
    cycles = c.boundary_cycles
    # tracks: (depth, crossing events, first and last boundary side of an
    # arc or None, None for a loop)
    tracks = []
    loops: dict[int, int] = {}
    for ci, cycle in enumerate(cycles):
        hops = _cycle_hops(c, cycle)
        for ei, slot in enumerate(cycle):
            end_class = c.edge_endpoints(slot)[1]
            if end_class.sign == arc_sign:
                nxt = cycle[(ei + 1) % len(cycle)]
                tracks.append((0, hops[ei], slot, nxt))
        lap = [ev for h in hops for ev in h]
        if not lap:
            # a cycle that crosses no gluing runs round one square
            loops[cycle[0][0]] = loops_per_cycle.get(ci, 0)
            continue
        for depth in range(1, loops_per_cycle.get(ci, 0) + 1):
            tracks.append((depth, lap, None, None))

    front: dict[Slot, list] = {}
    back: dict[Slot, list] = {}
    for ti, (depth, events, *_rest) in enumerate(tracks):
        for ei, (out_side, in_side) in enumerate(events):
            front.setdefault(out_side, []).append((depth, ti, ei))
            back.setdefault(in_side, []).append((depth, ti, ei))

    pos: dict[tuple[int, int], tuple[int, int]] = {}
    counts: dict[Slot, int] = {}
    for slot in c.slots():
        f = sorted(front.get(slot, []))             # depth 0 nearest the start
        b = sorted(back.get(slot, []), reverse=True)
        for i, (_, ti, ei) in enumerate(f):
            pos[(ti, 2 * ei)] = (slot[1], i)        # crossing's out endpoint
        for i, (_, ti, ei) in enumerate(b):
            pos[(ti, 2 * ei + 1)] = (slot[1], len(f) + i)
        counts[slot] = len(f) + len(b)
    for slot in c.boundary_slots:
        counts[slot] = counts.get(slot, 0) + 1

    chords: dict[int, list] = {}

    def add(sq: int, a, b) -> None:
        chords.setdefault(sq, []).append((a, b))

    for ti, track in enumerate(tracks):
        depth, events, prev_edge, next_edge = track
        if prev_edge is not None:
            # arc: boundary point of prev_edge .. hops .. point of next_edge
            start = (prev_edge[1], counts[prev_edge] - 1)
            end = (next_edge[1], counts[next_edge] - 1)
            if not events:
                add(prev_edge[0], start, end)
                continue
            add(prev_edge[0], start, pos[(ti, 0)])
            for ei in range(len(events) - 1):
                add(events[ei][1][0], pos[(ti, 2 * ei + 1)],
                    pos[(ti, 2 * ei + 2)])
            add(next_edge[0], pos[(ti, 2 * len(events) - 1)], end)
        else:
            for ei in range(len(events)):
                nxt = (ei + 1) % len(events)
                add(events[ei][1][0], pos[(ti, 2 * ei + 1)],
                    pos[(ti, 2 * nxt)])
    g = CurveSystem.build(c.square_count, chords, loops)
    report = validate_sutures(c, g)
    if not report.ok:
        raise AssertionError("hugging system invalid: " + "; ".join(report.problems))
    return g


# ---------------------------------------------------------------------------
# independent flood-fill oracle for confinement (different face algorithm:
# stack coloring of the cyclic bracket sequence instead of a half-edge trace)


def confining_oracle(c: SquareComplex, g: CurveSystem) -> bool:
    require_valid_pair(c, g)
    if g.total_loops() > 0:
        return True

    gap_face: dict[tuple[int, int], int] = {}
    face_count: dict[int, int] = {}
    for s in range(c.square_count):
        points = sorted(ep for ch in g.chords[s] for ep in ch)
        index = {ep: i for i, ep in enumerate(points)}
        pair: dict[int, int] = {}
        for a, b in g.chords[s]:
            pair[index[a]] = index[b]
            pair[index[b]] = index[a]
        # faces by bracket nesting: walk points once, stack of face ids
        fresh = [0]
        stack = [0]
        opened: dict[int, int] = {}
        for i in range(len(points)):
            if pair[i] > i:
                fresh[0] += 1
                opened[i] = fresh[0]
                stack.append(fresh[0])
            else:
                stack.pop()
        # second pass records the face right after each point
        stack = [0]
        gap_face[(s, len(points) - 1)] = 0    # gap before point 0
        for i in range(len(points)):
            if pair[i] > i:
                stack.append(opened[i])
            else:
                stack.pop()
            gap_face[(s, i)] = stack[-1]      # gap from point i to i+1
        face_count[s] = fresh[0] + 1

    # nodes and adjacency across glued segments
    def node(s: int, f: int) -> tuple[int, int]:
        return (s, f)

    side_offsets: dict[tuple[int, int], tuple[int, int, int]] = {}
    for s in range(c.square_count):
        eps = sorted(ep for ch in g.chords[s] for ep in ch)
        total = len(eps)
        for k in range(4):
            pos = [i for i, ep in enumerate(eps) if ep[0] == k]
            side_offsets[(s, k)] = (pos[0], len(pos), total)

    def seg_gap(s: int, k: int, j: int) -> int:
        off, m, total = side_offsets[(s, k)]
        if j < m:
            return (off + j - 1) % total
        return off + m - 1

    adj: dict[tuple[int, int], set[tuple[int, int]]] = {}
    boundary_nodes: set[tuple[int, int]] = set()
    for edge in c.sorted_gluings():
        (sa, ka), (sb, kb) = edge
        m = g.side_count((sa, ka))
        for j in range(m + 1):
            na = node(sa, gap_face[(sa, seg_gap(sa, ka, j))])
            nb = node(sb, gap_face[(sb, seg_gap(sb, kb, m - j))])
            adj.setdefault(na, set()).add(nb)
            adj.setdefault(nb, set()).add(na)
    for slot in c.boundary_slots:
        sq, k = slot
        for j in range(2):
            boundary_nodes.add(node(sq, gap_face[(sq, seg_gap(sq, k, j))]))

    all_nodes = {node(s, f) for s in range(c.square_count)
                 for f in range(face_count[s])}
    reached = set(boundary_nodes)
    frontier = list(boundary_nodes)
    while frontier:
        n = frontier.pop()
        for nb in adj.get(n, ()):
            if nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    return reached != all_nodes


# ---------------------------------------------------------------------------
# the half-edge region analysis: faces traced per square, merged across
# gluings, then each region's completion counted cell by cell


class _SquareFaces:
    """Half-edge face trace of one square's chord diagram."""

    def __init__(self, chords: tuple[tuple[EP, EP], ...]):
        self.points: list[EP] = sorted(ep for ch in chords for ep in ch)
        index = {ep: i for i, ep in enumerate(self.points)}
        m = len(self.points)
        self.pair = {}
        for a, b in chords:
            self.pair[index[a]] = index[b]
            self.pair[index[b]] = index[a]
        # gap g runs from points[g] to points[(g+1) % m]
        self.face_of_gap: dict[int, int] = {}
        self.face_of_half: dict[tuple[int, int], int] = {}
        face = 0
        for g0 in range(m):
            if g0 in self.face_of_gap:
                continue
            g = g0
            while g not in self.face_of_gap:
                self.face_of_gap[g] = face
                u = (g + 1) % m
                v = self.pair[u]
                self.face_of_half[(u, v)] = face
                g = v
            face += 1
        self.face_count = face

        self.idx = index
        self.last_of_side = {}
        for i, (side, _) in enumerate(self.points):
            self.last_of_side[side] = i

    def corner_gap(self, k: int) -> int:
        # corner k lies between the last point of side k-1 and the first of k
        return self.last_of_side[(k - 1) % 4]

    def gap_sign(self, g: int) -> int:
        g0 = self.corner_gap(0)
        m = len(self.points)
        return -1 if (g - g0) % m % 2 == 0 else +1

    def gaps_at(self, i: int) -> tuple[int, int]:
        """The two gaps adjacent to point i (ending at it, starting at it)."""
        m = len(self.points)
        return ((i - 1) % m, i)

    def segment_gap(self, side: int, j: int, m_side: int) -> int:
        """Gap covering segment j of `side` (j in 0..m_side)."""
        if j < m_side:
            return (self.idx[(side, j)] - 1) % len(self.points)
        return self.idx[(side, m_side - 1)]

    def gap_touches_boundary(self, g: int, c: SquareComplex, sq: int) -> bool:
        u = self.points[g]
        v = self.points[(g + 1) % len(self.points)]
        return (not c.is_glued((sq, u[0]))) or (not c.is_glued((sq, v[0])))


class _Analysis:
    """Regions of a pair its caller has already validated."""

    def __init__(self, c: SquareComplex, g: CurveSystem):
        self.c, self.g = c, g
        self.sqf = [_SquareFaces(g.chords[s]) for s in range(c.square_count)]

        # union-find over (square, face)
        nodes = [(s, f) for s in range(c.square_count)
                 for f in range(self.sqf[s].face_count)]
        self.parent = {n: n for n in nodes}

        for edge in c.sorted_gluings():
            (sa, ka), (sb, kb) = edge
            m = g.side_count((sa, ka))
            for j in range(m + 1):
                fa = self.sqf[sa].segment_gap(ka, j, m)
                fb = self.sqf[sb].segment_gap(kb, m - j, m)
                na = (sa, self.sqf[sa].face_of_gap[fa])
                nb = (sb, self.sqf[sb].face_of_gap[fb])
                if self.sqf[sa].gap_sign(fa) != self.sqf[sb].gap_sign(fb):
                    raise AssertionError("sign coloring mismatch across gluing")
                self._union(na, nb)

        self.region_of: dict[tuple[int, int], int] = {}
        for n in nodes:
            r = self._find(n)
            if r not in self.region_of:
                self.region_of[r] = len(self.region_of)
        self.region_count = len(self.region_of)
        self._build()

    def _find(self, n):
        p = self.parent
        while p[n] != n:
            p[n] = p[p[n]]
            n = p[n]
        return n

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def region(self, sq: int, face: int) -> int:
        return self.region_of[self._find((sq, face))]

    def region_of_gap(self, sq: int, gap: int) -> int:
        return self.region(sq, self.sqf[sq].face_of_gap[gap])

    def _build(self) -> None:
        c, g = self.c, self.g
        nr = self.region_count
        V = [0] * nr
        E = [0] * nr
        F = [0] * nr
        sign = [0] * nr
        touches = [False] * nr

        for s in range(c.square_count):
            sf = self.sqf[s]
            for f in range(sf.face_count):
                F[self.region(s, f)] += 1
            for gp in range(len(sf.points)):
                r = self.region_of_gap(s, gp)
                gs = sf.gap_sign(gp)
                if sign[r] and sign[r] != gs:
                    raise AssertionError("region with mixed signs")
                sign[r] = gs
                if sf.gap_touches_boundary(gp, c, s):
                    touches[r] = True
            for k in range(4):
                corner_sign = +1 if k % 2 else -1
                if sf.gap_sign(sf.corner_gap(k)) != corner_sign:
                    raise AssertionError("corner color mismatch")

        # 0-cells at quadrangulation vertices
        for vc in c.vertex_classes:
            regs = {
                self.region_of_gap(sq, self.sqf[sq].corner_gap(k))
                for sq, k in vc.corners
            }
            if len(regs) != 1:
                raise AssertionError("vertex wedges land in several regions")
            V[regs.pop()] += 1

        # 0-cells at suture crossings: the two same-sign sectors at an interior
        # crossing meet along a glued segment, so each sign contributes one
        for edge in c.sorted_gluings():
            (sa, ka), (sb, kb) = edge
            m = g.side_count((sa, ka))
            for j in range(m):
                per_sign: dict[int, set[int]] = {}
                for sq, side, pos in ((sa, ka, j), (sb, kb, m - 1 - j)):
                    sf = self.sqf[sq]
                    for gp in sf.gaps_at(sf.idx[(side, pos)]):
                        per_sign.setdefault(sf.gap_sign(gp), set()).add(
                            self.region_of_gap(sq, gp))
                for regs in per_sign.values():
                    if len(regs) != 1:
                        raise AssertionError("crossing sectors disagree")
                    V[regs.pop()] += 1
        for slot in c.boundary_slots:
            sq, side = slot
            sf = self.sqf[sq]
            for gp in sf.gaps_at(sf.idx[(side, 0)]):
                V[self.region_of_gap(sq, gp)] += 1

        # 1-cells: edge segments (one per class) and chord sides
        for edge in c.sorted_gluings():
            (sa, ka), _ = edge
            m = g.side_count((sa, ka))
            for j in range(m + 1):
                gp = self.sqf[sa].segment_gap(ka, j, m)
                E[self.region_of_gap(sa, gp)] += 1
        for slot in c.boundary_slots:
            sq, side = slot
            for j in range(2):
                gp = self.sqf[sq].segment_gap(side, j, 1)
                E[self.region_of_gap(sq, gp)] += 1
        for s in range(c.square_count):
            for half, f in self.sqf[s].face_of_half.items():
                E[self.region(s, f)] += 1

        chis = [V[r] - E[r] + F[r] for r in range(nr)]

        # loose loops: concentric inside the corner-0 face of their square
        extra: list[Region] = []
        for s in range(c.square_count):
            count = g.loops[s]
            if not count:
                continue
            host_gap = self.sqf[s].corner_gap(0)
            host = self.region_of_gap(s, host_gap)
            chis[host] -= 1
            cur = -sign[host]
            for depth in range(count - 1):
                extra.append(Region(cur, 0, False))
                cur = -cur
            extra.append(Region(cur, 1, False))

        base = [Region(sign[r], chis[r], touches[r]) for r in range(nr)]
        self.decomposition = RegionDecomposition(tuple(base + extra))


# ---------------------------------------------------------------------------
# GF(2) blocks


def block_power(block: tuple[tuple[int, int], ...], n: int) -> tuple[tuple[int, int], ...]:
    def mul(a, b):
        return tuple(
            tuple((a[r][0] * b[0][c] + a[r][1] * b[1][c]) % 2 for c in range(2))
            for r in range(2)
        )
    out = ((1, 0), (0, 1))
    for _ in range(n):
        out = mul(out, block)
    return out


def with_circle(c, g, edge) -> CurveSystem:
    """g plus a small closed curve crossing the glued edge twice.

    The circle takes the two points after the last one on the edge's first
    side, which are the two points before the first one on its second side.
    """
    (sa, ka), (sb, kb) = edge
    m = g.side_count((sa, ka))

    def shift(ep):
        return (ep[0], ep[1] + 2) if ep[0] == kb else ep

    chords = {s: list(g.chords[s]) for s in range(c.square_count)}
    chords[sb] = [(shift(a), shift(b)) for a, b in chords[sb]]
    chords[sa].append(((ka, m), (ka, m + 1)))
    chords[sb].append(((kb, 0), (kb, 1)))
    return CurveSystem.build(c.square_count, chords)


def slide_map_oracle(words: frozenset[int], i: int, j: int,
                     block: tuple[tuple[int, int], ...]) -> frozenset[int]:
    """tensor.slide_map word by word: each word's image, added mod 2."""
    out: set[int] = set()
    for w in words:
        bi, bj = (w >> i) & 1, (w >> j) & 1
        if bi == bj:
            out ^= {w}
            continue
        col = 0 if (bi, bj) == (0, 1) else 1
        base = w & ~(1 << i) & ~(1 << j)
        if block[0][col]:
            out ^= {base | (1 << j)}          # 01: bit_j set
        if block[1][col]:
            out ^= {base | (1 << i)}          # 10: bit_i set
    return frozenset(out)


# ---------------------------------------------------------------------------
# disc elements by rotation


def rotate(x: Z2Tensor, steps: int) -> Z2Tensor:
    """R^steps of an element of arity n - 1, where R (p -> p + 2 mod 2n on
    points) is the ccw diagonal slides at factors (i, i + 1) for
    i = 0, ..., n - 3 in that order and R^-1 the cw slides in reverse
    order; negative steps apply R^-1."""
    if steps >= 0:
        block, order = SLIDE_BLOCK["ccw"], range(x.arity - 1)
    else:
        block, order = SLIDE_BLOCK["cw"], range(x.arity - 2, -1, -1)
    for _ in range(abs(steps)):
        for i in order:
            x = slide_map(x, i, i + 1, block)
    return x


@lru_cache(maxsize=None)
def rotation_peel_oracle(mate: tuple[int, ...]) -> frozenset[int]:
    """The words of the matching with these mates, peeling an outermost
    chord (p, p + 1): with k = ceil(p / 2), the matching shifted by -2k has
    its chord at (0, 1) (p even) or (2n - 1, 0) (p odd); drop it, renumber
    the rest q -> q mod (2n - 2), insert bit 1 or 0 at factor 0, then apply
    R^k, or R^-(n - k) when that is shorter. Of the outermost chords, the
    one needing the fewest rotation steps is peeled."""
    size = len(mate)
    n = size // 2
    if n == 1:
        return frozenset({0})
    best = None
    for p in range(size):
        if mate[p] == (p + 1) % size:
            k = (p + 1) // 2
            steps = k if k <= n - k else k - n
            if best is None or abs(steps) < abs(best[0]):
                best = steps, p, k
                if not steps:
                    break
    steps, p, k = best
    shift, small = 2 * k, size - 2
    sub = [0] * small
    for q in range(size):
        if q != p and q != mate[p]:
            sub[(q - shift) % size % small] = \
                (mate[q] - shift) % size % small
    low = 1 - p % 2          # the bit that chord (0, 1) or (2n - 1, 0) adds
    x = Z2Tensor(n - 1, frozenset(
        2 * w + low for w in rotation_peel_oracle(tuple(sub))))
    return rotate(x, steps).words


# ---------------------------------------------------------------------------
# the gluing table and the strands by slots: a partner dict built from the
# gluings, walked on (square, side) and (square, (side, position)) tuples


def partner_oracle(c: SquareComplex) -> dict[Slot, Slot]:
    out: dict[Slot, Slot] = {}
    for a, b in c.gluings:
        out[a] = b
        out[b] = a
    return out


def boundary_cycles_oracle(c: SquareComplex) -> tuple[tuple[Slot, ...], ...]:
    """The boundary cycles of a complex whose sides are each glued at most
    once: after boundary side (s, k) comes (s, k + 1), or, while that side
    is glued, the side after its partner. Each cycle starts at its least
    side, in the order of those."""
    part = partner_oracle(c)
    seen: set[Slot] = set()
    cycles = []
    for start in [(s, k) for s in range(c.square_count) for k in range(4)]:
        if start in part or start in seen:
            continue
        cycle, cur = [], start
        while True:
            cycle.append(cur)
            seen.add(cur)
            cur = (cur[0], (cur[1] + 1) % 4)
            while cur in part:
                sq, k = part[cur]
                cur = (sq, (k + 1) % 4)
            if cur == start:
                break
        cycles.append(tuple(cycle))
    return tuple(cycles)


def canonical_permutation_oracle(c: SquareComplex) -> dict[int, int]:
    """Squares renumbered breadth-first from the least square not yet
    reached, each square's neighbours in side order."""
    part = partner_oracle(c)
    perm: dict[int, int] = {}
    for start in range(c.square_count):
        if start in perm:
            continue
        queue = [start]
        perm[start] = len(perm)
        head = 0
        while head < len(queue):
            sq = queue[head]
            head += 1
            for k in range(4):
                mate = part.get((sq, k))
                if mate is not None and mate[0] not in perm:
                    perm[mate[0]] = len(perm)
                    queue.append(mate[0])
    return perm


def arc_ends_oracle(c: SquareComplex, g: CurveSystem) -> dict[Slot, Slot]:
    """The boundary side at the other end of each boundary side's arc, of
    a valid pair: a strand steps along a chord of its square, then across
    a gluing, where point p of m on one side is point m - 1 - p on the
    other."""
    part = partner_oracle(c)
    other = {}
    for sq, chords in enumerate(g.chords):
        for a, b in chords:
            other[(sq, a)] = (sq, b)
            other[(sq, b)] = (sq, a)
    out = {}
    for sq in range(c.square_count):
        for k in range(4):
            if (sq, k) in part:
                continue
            at, (side, p) = other[(sq, (k, 0))]
            while (at, side) in part:
                m = g.side_count((at, side))
                nxt, nside = part[(at, side)]
                at, (side, p) = other[(nxt, (nside, m - 1 - p))]
            out[(sq, k)] = (at, side)
    return out


# ---------------------------------------------------------------------------
# the slack square collapse on slot tuples


def fan_oracle(c: SquareComplex, start: Corner) -> tuple[
        tuple[GluingPair, ...], tuple[Corner, ...]]:
    """The fan of edges round the internal vertex at corner `start`,
    anticlockwise, as gluing pairs e_1..e_n, and the corners between
    consecutive edges (the wedges). InvalidComplex if the walk leaves
    the surface or does not close."""
    part = partner_oracle(c)
    fan: list[GluingPair] = []
    wedges: list[Corner] = []
    cur = start
    while True:
        sq, cc = cur
        side = (sq, (cc - 1) % 4)
        mate = part.get(side)
        if mate is None:
            raise InvalidComplex("fan walk left the surface; vertex not internal")
        fan.append(_norm_pair(side, mate))
        cur = mate
        if cur == start:
            return tuple(fan), tuple(wedges)
        wedges.append(cur)
        if len(fan) > 4 * c.square_count:
            raise InvalidComplex("fan walk does not close")


def remove_square_oracle(c: SquareComplex, sq: int) -> SquareComplex:
    """Drop square sq, which has no gluings, and shift higher indices
    down."""
    if any(slot[0] == sq for pair in c.gluings for slot in pair):
        raise ValueError("square still glued")
    perm = {s: (s if s < sq else s - 1) for s in range(c.square_count)
            if s != sq}
    pairs = [((perm[a[0]], a[1]), (perm[b[0]], b[1])) for a, b in c.gluings]
    return SquareComplex.build(c.square_count - 1, pairs, slack=c.slack)


def collapse_oracle(c: SquareComplex, sq: int, y_corner: int) -> SquareComplex:
    """The complex after collapsing square sq at its corner y_corner: its
    sides a1, b1 and a2, b2 are identified, each chain of identifications
    from a free end joins the gluings at its two ends, and the square,
    left unglued, is removed."""
    part = partner_oracle(c)
    a1, a2 = (sq, (y_corner - 1) % 4), (sq, y_corner)
    b1, b2 = (sq, (y_corner + 2) % 4), (sq, (y_corner + 1) % 4)
    own = {a1: b1, b1: a1, a2: b2, b2: a2}     # arc identifications
    w_sides = set(own)

    new_pairs: list[GluingPair] = [
        g for g in c.gluings if g[0] not in w_sides and g[1] not in w_sides
    ]
    resolved: set[Slot] = set()
    for side in (a1, a2, b1, b2):
        att = part.get(side)
        if side in resolved or (att is not None and att in w_sides):
            continue
        resolved.add(side)
        cur = own[side]
        while True:
            resolved.add(cur)
            nxt = part.get(cur)
            if nxt is None or nxt not in w_sides:
                break
            resolved.add(nxt)
            cur = own[nxt]
        far = part.get(cur)
        if att is not None and far is not None:
            if (att[1] + far[1]) % 2 == 0:
                raise InvalidComplex("collapse produced a parity-violating edge")
            new_pairs.append(_norm_pair(att, far))

    trimmed = SquareComplex.build(c.square_count, new_pairs, slack=True)
    return remove_square_oracle(trimmed, sq)


# ---------------------------------------------------------------------------
# views and object forms that only the tests read


def closed_components(c: SquareComplex,
                      g: CurveSystem) -> list[set[tuple[int, EP]]]:
    """Closed suture components of a valid pair, as sets of endpoint keys
    (square, ep): the closed strands of `strands`, in the order of their
    least endpoints. A system whose `open` fact is this very complex
    object has none and is not read."""
    if g.facts.open is c:
        return []
    t = g.endpoint_table
    start, slot = t.start, t.slot
    return [{(slot[p] >> 2, (slot[p] & 3, p - start[slot[p]])) for p in points}
            for points in strands(c, g).closed]


def disjoint_union(c1: SquareComplex, c2: SquareComplex) -> SquareComplex:
    off = c1.square_count
    pairs = list(c1.gluings) + [
        ((a[0] + off, a[1]), (b[0] + off, b[1])) for a, b in c2.gluings
    ]
    return SquareComplex.build(c1.square_count + c2.square_count, pairs,
                               slack=c1.slack or c2.slack)


def surface_to_obj(c: SquareComplex) -> dict:
    return {
        "squares": c.square_count,
        "slack": c.slack,
        "gluings": [[list(a), list(b)] for a, b in c.sorted_gluings()],
    }


def sutures_to_obj(g: CurveSystem) -> dict:
    chords = {
        str(s): [[list(a), list(b)] for a, b in g.chords[s]]
        for s in range(g.square_count) if g.chords[s]
    }
    loops = {str(s): g.loops[s] for s in range(g.square_count) if g.loops[s]}
    return {"chords": chords, "loops": loops}


def move_to_obj(m) -> dict:
    if isinstance(m, CreateSquare):
        return {"create": "+" if m.sign > 0 else "-"}
    key = {Glue: "glue", Fold: "fold", Zip: "zip"}[type(m)]
    return {key: [list(m.a), list(m.b)]}


def script_to_obj(s: MorphismScript) -> dict:
    return {
        "source": surface_to_obj(s.source),
        "moves": [move_to_obj(m) for m in s.moves],
    }


# ---------------------------------------------------------------------------
# the parsers as they were: check the form, build, then make the tables


def _surface_from_obj_oracle(obj) -> SquareComplex:
    """`formats.surface_from_obj` slot by slot: each slot checked on its
    own, then the complex built from the list, its gluing table made when
    it is first read."""
    path = "surface"
    if not isinstance(obj, dict):
        formats._fail(f"{path}: expected an object")
    formats._keys_once(obj, path)
    if "squares" not in obj or type(obj["squares"]) is not int:
        formats._fail(f"{path}.squares: expected an integer")
    squares = obj["squares"]
    if squares < 0:
        formats._fail(f"{path}.squares: negative")
    if squares > formats.MAX_SQUARES:
        formats._fail(f"{path}.squares: {squares} is more than "
                      f"{formats.MAX_SQUARES}")
    slack = obj.get("slack", False)
    if not isinstance(slack, bool):
        formats._fail(f"{path}.slack: expected a boolean")
    gluings = []
    raw = obj.get("gluings", [])
    if not isinstance(raw, list):
        formats._fail(f"{path}.gluings: expected a list")
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            formats._fail(f"{path}.gluings[{i}]: expected a pair of slots")
        a = formats._check_slot(pair[0], f"{path}.gluings[{i}][0]", squares)
        b = formats._check_slot(pair[1], f"{path}.gluings[{i}][1]", squares)
        gluings.append((a, b))
    return SquareComplex.build(squares, gluings, slack=slack)


def _endpoint_oracle(ep, key: str, i: int) -> EP:
    if type(ep) in (list, tuple) and len(ep) == 2:
        side, pos = ep
        if type(side) is int and type(pos) is int:
            if not 0 <= side < 4:
                formats._fail(f"sutures.chords[{key}][{i}]: side index "
                              f"{side} out of range 0..3")
            if pos < 0:
                formats._fail(f"sutures.chords[{key}][{i}]: negative "
                              "position")
            return side, pos
    formats._fail(f"sutures.chords[{key}][{i}]: bad endpoint "
                  f"{json.dumps(ep)}")


def _sutures_from_obj_oracle(obj, square_count: int) -> CurveSystem:
    """`formats.sutures_from_obj` endpoint by endpoint: each endpoint
    checked on its own, then the system built, each chord put the right
    way round and each square sorted, its side counts and endpoint table
    made when they are first read."""
    if not isinstance(obj, dict):
        formats._fail("sutures: expected an object")
    formats._keys_once(obj, "sutures")
    chords: dict[int, list] = {}
    for key, sq, lst in formats._per_square(obj, "chords", square_count):
        if not isinstance(lst, list):
            formats._fail(f"sutures.chords[{key}]: expected a list")
        out = []
        for i, ch in enumerate(lst):
            if type(ch) not in (list, tuple) or len(ch) != 2:
                formats._fail(f"sutures.chords[{key}][{i}]: expected two "
                              "endpoints")
            a, b = ch
            out.append((_endpoint_oracle(a, key, i),
                        _endpoint_oracle(b, key, i)))
        chords[sq] = out
    loops: dict[int, int] = {}
    for key, sq, cnt in formats._per_square(obj, "loops", square_count):
        if type(cnt) is not int or cnt < 0:
            formats._fail(f"sutures.loops[{key}]: expected a non-negative "
                          "count")
        loops[sq] = cnt
    return CurveSystem.build(square_count, chords, loops)


def _parsed(parse, *args):
    """(value, None) or (None, the ParseError's message)."""
    try:
        return parse(*args), None
    except formats.ParseError as exc:
        return None, str(exc)


def check_surface_parse(text: str
                        ) -> Optional[tuple[SquareComplex, SquareComplex]]:
    """Assert that `formats.parse_surface` agrees with its oracle on a
    document: the same complex, emitted text and validation problems, and
    a gluing table, if seeded, equal to the one a fresh copy makes; or the
    same ParseError. The parsed complex and the oracle's, or None."""
    c, error = _parsed(formats.parse_surface, text)
    want, want_error = _parsed(
        lambda t: _surface_from_obj_oracle(formats._loads(t, "surface")),
        text)
    assert error == want_error
    if c is None:
        return None
    assert c == want
    assert formats.emit_surface(c) == formats.emit_surface(want)
    assert validate_complex(c).problems == validate_complex(want).problems
    if "partner_index" in vars(c):
        fresh = SquareComplex(c.square_count, c.gluings, c.slack)
        assert c.partner_index == fresh.partner_index
    return c, want


def check_sutures_parse(text: str, square_count: int,
                        on: Optional[tuple[SquareComplex, SquareComplex]]
                        = None) -> Optional[CurveSystem]:
    """Assert that `formats.parse_sutures` agrees with its oracle on a
    document read on square_count squares: the same system and emitted
    text, seeded side counts and endpoint table equal to those a fresh
    copy makes and no fact, or the same ParseError; and, on the pair of
    complexes `on` (parsed, oracle's), the same validation problems. The
    parsed system, or None."""
    g, error = _parsed(formats.parse_sutures, text, square_count)
    h, want_error = _parsed(
        lambda t: _sutures_from_obj_oracle(formats._loads(t, "sutures"),
                                           square_count), text)
    assert error == want_error
    if g is None:
        return None
    assert g == h and formats.emit_sutures(g) == formats.emit_sutures(h)
    seeded = vars(g)
    assert "_side_counts" in seeded and "endpoint_table" in seeded
    assert "facts" not in seeded
    fresh = CurveSystem(g.chords, g.loops)
    assert g._side_counts == fresh._side_counts
    assert g.endpoint_table == fresh.endpoint_table == h.endpoint_table
    if on is not None:
        c, want = on
        assert validate_sutures(c, g).problems == \
            validate_sutures(want, h).problems
    return g


def scrambled(obj):
    """A sutures document object of the same system, if it is one: the
    squares named last first, each square's chords in reverse order, each
    chord the other way round."""
    if not isinstance(obj, dict) or not isinstance(obj.get("chords"), dict):
        return obj
    chords = {key: [ch[::-1] if isinstance(ch, list) else ch
                    for ch in lst[::-1]] if isinstance(lst, list) else lst
              for key, lst in reversed(obj["chords"].items())}
    return {**obj, "chords": chords}


def check_parse(surface_text: str, sutures_text: str) -> None:
    """`check_surface_parse`, then `check_sutures_parse` on the parsed
    complex's squares."""
    pair = check_surface_parse(surface_text)
    if pair is not None:
        check_sutures_parse(sutures_text, pair[0].square_count, pair)
