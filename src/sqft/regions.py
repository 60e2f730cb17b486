"""Complement regions of a curve system: signs, Euler characteristics,
triviality and confinement.

Each square's chord diagram cuts it into faces (traced via a half-edge walk);
faces merge into regions across gluings. Signs come from the checkerboard
coloring anchored at corner 0 (negative). Region Euler characteristics are
computed from the honest cell structure of the region's completion: sutures
are counted once per adjacent region side, and a crossing point contributes
one 0-cell per sector, so pinched completions come out right.

The Euler class e = chi(R+) - chi(R-) needs none of that structure: it is
the signed count of the same cells, and every cell but the vertices and
the faces cancels against one of the other sign. What is left is the signs
of the quadrangulation's vertices, the faces of each square (the negative
corner-0 face, and the face just inside each chord, signed by the parity
of its smaller endpoint) and 2 for each square with an odd number of loose
loops; see euler_class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surface import SquareComplex
from .sutures import EP, CurveSystem, _unchecked, require_valid_pair


@dataclass(frozen=True)
class Region:
    sign: int
    chi: int
    touches_boundary: bool


@dataclass(frozen=True)
class RegionDecomposition:
    regions: tuple[Region, ...]

    @property
    def chi_plus(self) -> int:
        return sum(r.chi for r in self.regions if r.sign > 0)

    @property
    def chi_minus(self) -> int:
        return sum(r.chi for r in self.regions if r.sign < 0)


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


def closed_components(c: SquareComplex,
                      g: CurveSystem) -> list[set[tuple[int, EP]]]:
    """Closed suture components of a valid pair, as sets of endpoint keys
    (square, ep).

    A strand steps along a chord, then across the gluing of the side it
    reaches (point k of m there is point m-1-k on the partner side). Each
    walk starts at an endpoint not yet reached and goes one way until it
    leaves the gluings, meets a strand already walked (an arc) or returns
    to its start (a closed strand). A chord's mates are built when a walk
    first enters its square.

    Walks start at the endpoints of the squares the system's `open` fact
    leaves unchecked on c: every square, unless the fact names this very
    complex object. A surgery child of a parent found with no closed
    component on c names the squares the surgery rewrote: its other squares
    are the parent's, so each of its closed strands passes through one of
    them. Finding none sets the fact to (c, ()).
    """
    partner = c.partner_map
    chords, counts = g.chords, g._side_counts
    mate: dict[tuple[int, EP], tuple[int, EP]] = {}
    reached: set[tuple[int, EP]] = set()
    out: list[set[tuple[int, EP]]] = []

    def walk(p: tuple[int, EP]) -> None:
        start, points = p, []
        while True:
            q = mate.get(p)
            if q is None:
                s = p[0]
                for a, b in chords[s]:
                    mate[(s, a)] = (s, b)
                    mate[(s, b)] = (s, a)
                q = mate[p]
            points.append(p)
            points.append(q)
            sq, (side, pos) = q
            other = partner.get((sq, side))
            if other is None:
                break
            osq, oside = other
            p = (osq, (oside, counts[osq][oside] - 1 - pos))
            if p == start:
                out.append(set(points))
                break
            if p in reached:
                break
        reached.update(points)

    for s in _unchecked(g.facts.open, c, c.square_count):
        for a, _ in chords[s]:
            # a walk reaches both ends of each chord it takes
            if (s, a) not in reached:
                walk((s, a))
    if not out:
        g.facts.open = (c, ())
    return out


def regions(c: SquareComplex, g: CurveSystem) -> RegionDecomposition:
    require_valid_pair(c, g)
    return _Analysis(c, g).decomposition


def euler_class(c: SquareComplex, g: CurveSystem) -> int:
    """e = chi(R+) - chi(R-) of a valid pair, by a signed count of local
    cells; ValueError, as from regions(), for an invalid one.

    e is the sum over regions of sign * chi, the signed count of the cells
    _Analysis builds, with each cell's sign that of its region:
    - crossing points and boundary-side points (one 0-cell in each sign),
      the two boundary segments of a boundary side and the two sides of a
      chord come in opposite-sign pairs and cancel;
    - a glued side meets an odd number m of points, so its m + 1 segments
      alternate in sign and cancel;
    - a vertex class is a 0-cell of its corners' sign;
    - a square with chords has one face per chord, the face just inside
      it, and one more, the corner-0 face, which is negative. Every side
      meets an odd number of points, so endpoint (k, p) has sorted index
      k + p mod 2 and the gap after it is positive exactly when k + p is
      even. The face just inside chord (a, b), a < b, starts with the gap
      after a: its sign is sigma(a) = +1 if a's k + p is even, else -1;
    - loose loops sit in the corner-0 face: an odd number of them adds 2
      (the host's chi drops by 1, the innermost disc is positive), an even
      number adds 0.
    So e = sum of vertex signs + sum over squares of
    (-1 + sum of sigma(min(a, b)) over its chords + 2 if its loops are odd).
    Validation glues even sides to odd sides only, so matched corners have
    equal signs and the coloring _Analysis asserts holds. min(a, b), not
    the first endpoint, because a hand-built system need not be canonical.
    """
    require_valid_pair(c, g)
    e = sum(v.sign for v in c.vertex_classes)
    for chords, loops in zip(g.chords, g.loops):
        e += sum(1 if sum(min(a, b)) % 2 == 0 else -1
                 for a, b in chords) - 1
        if loops % 2:
            e += 2
    return e


def is_trivial(c: SquareComplex, g: CurveSystem) -> bool:
    """Whether the curve system has a loose loop or a closed component that
    bounds a disc region, which makes its element zero.

    The checks run in this order: loose loops (trivial); validation of the
    pair, which raises ValueError; no closed component (nontrivial, decided
    without any region data); otherwise the full region analysis, trivial
    when some disc region lies away from the boundary. Such a region
    borders closed components only: each side of an arc lies in the region
    that holds the boundary segment beside the arc's end.
    """
    if g.total_loops() > 0:
        return True
    require_valid_pair(c, g)
    if not closed_components(c, g):
        return False
    return any(r.chi == 1 and not r.touches_boundary
               for r in _Analysis(c, g).decomposition.regions)


def is_confining(c: SquareComplex, g: CurveSystem) -> bool:
    dec = regions(c, g)
    return any(not r.touches_boundary for r in dec.regions)
