"""Complement regions of a curve system: signs, Euler characteristics,
triviality and confinement.

A square's points, sorted, run anticlockwise around it, and gap i runs from
its i-th point to the next. Every side meets an odd number of points, so a
gap turns at most one corner, and the gap after point (k, p) is positive
exactly when k + p is even: the coloring anchored at corner 0, which is
negative. A face is a cycle of gaps (the gap ending at one end of a chord
goes on after the other end), and faces join into regions across the glued
segments of the sides.

A region's Euler characteristic is that of its completion, each cell
shared out among the gaps at it. A gap has one chord side, the one after
it, and a face is one 2-cell. A crossing of a gluing has one 0-cell of
each sign, half to each of its two gaps of that sign (so pinched
completions come out right); a boundary point gives a 0-cell to each gap
at it. A segment is one 1-cell, halved between the gaps on the two sides
of a gluing. A gap that turns a corner pays for each end point with the
segment beside it; a gap between two points of a glued side keeps
1/2 + 1/2 - 1/2. So chi of a region is its vertex classes, plus the sum
over its faces of (1 - gaps), plus the segments of a glued side that lie
between two of its points, counted once per gluing.

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
from itertools import chain

from .surface import SquareComplex
from .sutures import CurveSystem, require_valid_pair, strands


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


def _decompose(c: SquareComplex, g: CurveSystem) -> RegionDecomposition:
    """Regions of a pair its caller has already validated.

    Gaps are numbered square after square. Each square has an even number
    of them, so gap x is positive exactly when x is even. A union-find whose
    root is the least gap of its set joins the gaps of each face, then the
    two gaps at each glued segment; regions come in the order of their
    least gaps. Each gap carries the cells the local count credits to it.
    """
    counts = g._side_counts
    parent: list[int] = []
    credit: list[int] = []               # cells each gap gives its region
    squares: list[tuple[int, int, tuple[int, int, int, int]]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)

    def gap(sq: int, k: int, j: int) -> int:
        """The gap over segment j (0..points) of side k of square sq."""
        base, m, at = squares[sq]
        return base + (at[k] + j - 1) % m

    for chords, (n0, n1, n2, n3) in zip(g.chords, counts):
        at = (0, n0, n0 + n1, n0 + n1 + n2)
        m = at[3] + n3
        base = len(parent)
        squares.append((base, m, at))
        parent.extend(range(base, base + m))
        credit.extend([-1] * m)          # the chord side after each gap
        credit[base + m - 1] += 1        # the corner-0 face
        for (ka, pa), (kb, pb) in chords:
            i, j = at[ka] + pa, at[kb] + pb
            # the gap ending at one end of a chord goes on after the other
            union(base + (i - 1) % m, base + j)
            union(base + (j - 1) % m, base + i)
            credit[base + min(i, j)] += 1    # the face just inside it

    for (sa, ka), (sb, kb) in c.gluings:
        m = counts[sa][ka]
        for j in range(m + 1):
            union(gap(sa, ka, j), gap(sb, kb, m - j))
        for j in range(1, m):
            credit[gap(sa, ka, j)] += 1      # a segment between two points
    on_boundary = [False] * len(parent)
    for sq, k in c.boundary_slots:
        on_boundary[gap(sq, k, 0)] = on_boundary[gap(sq, k, 1)] = True
    for key in c.corner_table.keys:
        credit[gap(key >> 2, key & 3, 0)] += 1

    region_of = [0] * len(parent)
    least: list[int] = []
    chi: list[int] = []
    touches: list[bool] = []
    for x in range(len(parent)):
        root = find(x)
        if root == x:
            region_of[x] = len(least)
            least.append(x)
            chi.append(0)
            touches.append(False)
        elif (root - x) % 2:
            raise AssertionError("region with mixed signs")
        r = region_of[x] = region_of[root]
        chi[r] += credit[x]
        touches[r] = touches[r] or on_boundary[x]

    # loose loops: concentric inside the negative corner-0 face of their
    # square, the outermost positive, the innermost a disc
    extra: list[Region] = []
    for (base, m, _), count in zip(squares, g.loops):
        if count:
            chi[region_of[base + m - 1]] -= 1
            extra.extend(Region(-1 if d % 2 else 1, int(d == count - 1), False)
                         for d in range(count))
    return RegionDecomposition(tuple(
        [Region(-1 if x % 2 else 1, e, t)
         for x, e, t in zip(least, chi, touches)] + extra))


def regions(c: SquareComplex, g: CurveSystem) -> RegionDecomposition:
    require_valid_pair(c, g)
    return _decompose(c, g)


def euler_class(c: SquareComplex, g: CurveSystem) -> int:
    """e = chi(R+) - chi(R-) of a valid pair, by a signed count of local
    cells; ValueError, as from regions(), for an invalid one.

    e is the sum over regions of sign * chi, the signed count of the
    regions' cells, with each cell's sign that of its region:
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
    equal signs and the coloring holds that _decompose checks when it
    refuses a region with mixed signs. min(a, b), not
    the first endpoint, because a hand-built system need not be canonical.
    The count is one pass over the squares' loop counts and one over all
    their chords; the vertex signs are summed once per complex.
    """
    require_valid_pair(c, g)
    e = c.vertex_sign_sum
    for loops in g.loops:
        e += 2 * (loops & 1) - 1
    for a, b in chain.from_iterable(g.chords):
        k, p = a if a < b else b
        e += 1 - 2 * ((k + p) & 1)
    return e


def is_trivial(c: SquareComplex, g: CurveSystem) -> bool:
    """Whether the curve system has a loose loop or a closed component that
    bounds a disc region, which makes its element zero.

    The checks run in this order: loose loops (trivial); validation of the
    pair, which raises ValueError; no closed strand (nontrivial, decided
    by `strands` without any region data, or read from an `open` fact on
    c); otherwise the regions' local count
    (_decompose), trivial when some disc region lies away from the
    boundary. Such a region borders closed components only: each side of
    an arc lies in the region that holds the boundary segment beside the
    arc's end.
    """
    if g.total_loops() > 0:
        return True
    require_valid_pair(c, g)
    if g.facts.open is c or not strands(c, g).closed:
        return False
    return any(r.chi == 1 and not r.touches_boundary
               for r in _decompose(c, g).regions)


def is_confining(c: SquareComplex, g: CurveSystem) -> bool:
    dec = regions(c, g)
    return any(not r.touches_boundary for r in dec.regions)
