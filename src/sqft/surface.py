"""Occupied surfaces presented as square complexes.

A surface is a set of abstract squares glued along sides. Conventions, fixed once
and used everywhere:

* Each square has corners 0..3 in anticlockwise order. Corner k is negative when
  k is even and positive when k is odd.
* Side k runs from corner k to corner k+1 (mod 4), so traversing sides 0,1,2,3
  walks the square's boundary anticlockwise. Even sides are outgoing boundary
  edges (their negative-to-positive direction agrees with the boundary
  orientation), odd sides are incoming.
* A gluing identifies an even side with an odd side, orientation-reversingly:
  gluing (S, a) to (T, b) identifies corner (S, a) with (T, b+1) and corner
  (S, a+1) with (T, b). Matched corners always have equal parity, hence equal
  sign.
* Unglued sides are boundary edges. Points along a side are indexed 0..m-1 in
  the side's own direction; across a gluing, point k matches point m-1-k.

Squares are numbered 0..square_count-1 and double as tensor-factor indices
downstream. All values are immutable; operations return new complexes.

Corners and sides are also numbered as integers: corner c of square s is
4*s + c, and so is side c of square s, which starts at that corner. Then
corner x ends side x - 1 of its square, and the corner opposite x is x ^ 2.
`SquareComplex.partner_index` gives each side's partner by number (-1 on
the boundary): it is the complex's one table of its gluings, which
`partner`, `is_glued`, `boundary_slots` and the walk along the boundary
(`boundary_cycles`) read. One walk over those numbers gives the
`CornerTable`: the vertex class of each corner as an index, the classes in
key order. Every reader of the vertex classes reads that table; the
`VertexClass` objects of `vertex_classes` are a view of it, built on first
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, TypeVar

Slot = tuple[int, int]          # (square, side), side in 0..3
Corner = tuple[int, int]        # (square, corner), corner in 0..3
GluingPair = tuple[Slot, Slot]
_T = TypeVar("_T")


def _norm_pair(a: Slot, b: Slot) -> GluingPair:
    return (a, b) if a <= b else (b, a)


def _next(x: int) -> int:
    """The corner, or side, after number x in its square."""
    return x - 3 if x & 3 == 3 else x + 1


class InvalidComplex(ValueError):
    """Raised when an operation requires a valid complex and gets violations."""


class UnsupportedConfiguration(ValueError):
    """Raised on valid input in a configuration the program does not model."""


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class VertexClass:
    """A vertex of the presented surface: an orbit of square corners."""

    corners: frozenset[Corner]
    sign: int                    # +1 or -1
    internal: bool

    def __contains__(self, corner: Corner) -> bool:
        return corner in self.corners

    @property
    def key(self) -> Corner:
        return min(self.corners)


class CornerTable(NamedTuple):
    """The vertex classes of a complex by number.

    Corner c of square s is number 4*s + c. `of` gives the class index of
    each corner; classes are numbered in the order of their least corners,
    their keys (`keys`), and `internal` says which are internal vertices.
    Matched corners have equal parity, so a class's sign is its key's:
    +1 when odd. The lists are never changed once the table is made; a
    complex built from a parent shares them or gets new ones.
    """

    of: list[int]
    keys: list[int]
    internal: list[bool]

    def sign(self, k: int) -> int:
        return 1 if self.keys[k] & 1 else -1

    def corners(self, k: int) -> list[Corner]:
        """The corners of class k, sorted."""
        return [(x >> 2, x & 3) for x, j in enumerate(self.of) if j == k]

    def vertex_class(self, k: int) -> VertexClass:
        return VertexClass(frozenset(self.corners(k)), self.sign(k),
                           self.internal[k])


@dataclass(frozen=True)
class InvariantSummary:
    square_count: int
    n: int                       # half the boundary vertex count
    chi: int
    boundary_components: int
    components: int
    genus: int
    index: int                   # n - chi
    gluing_number: int           # n - 2*chi


@dataclass(frozen=True)
class SquareComplex:
    square_count: int
    gluings: frozenset[GluingPair] = frozenset()
    slack: bool = False

    @staticmethod
    def build(square_count: int, gluings: Iterable[tuple[Slot, Slot]] = (),
              slack: bool = False) -> "SquareComplex":
        pairs = frozenset(_norm_pair(a, b) for a, b in gluings)
        return SquareComplex(square_count, pairs, slack)

    # -- basic structure -------------------------------------------------

    @cached_property
    def partner_index(self) -> list[int]:
        """The partner of side 4*s + k by number, -1 on the boundary: the
        one table of the complex's gluings. On a side glued twice, the
        gluing read last wins. InvalidComplex if a gluing names a side the
        complex lacks."""
        n = self.square_count
        out = [-1] * (4 * n)
        for a, b in self.gluings:
            for sq, k in (a, b):
                if not (0 <= sq < n and 0 <= k < 4):
                    raise InvalidComplex(
                        f"gluing references nonexistent slot {(sq, k)}")
            x, y = 4 * a[0] + a[1], 4 * b[0] + b[1]
            out[x] = y
            out[y] = x
        return out

    def partner(self, slot: Slot) -> Optional[Slot]:
        """The side glued to `slot`; None on the boundary and for a slot
        the complex lacks."""
        sq, k = slot
        if not (0 <= sq < self.square_count and 0 <= k < 4):
            return None
        y = self.partner_index[4 * sq + k]
        return None if y < 0 else (y >> 2, y & 3)

    def is_glued(self, slot: Slot) -> bool:
        return self.partner(slot) is not None

    def slots(self) -> Iterator[Slot]:
        for s in range(self.square_count):
            for k in range(4):
                yield (s, k)

    @cached_property
    def boundary_slots(self) -> tuple[Slot, ...]:
        return tuple((x >> 2, x & 3)
                     for x, y in enumerate(self.partner_index) if y < 0)

    def sorted_gluings(self) -> list[GluingPair]:
        return sorted(self.gluings)

    # -- per-complex caches: a complex never changes, so each is computed
    # once; they live outside the fields, which alone define == and hash

    @cached_property
    def _report(self) -> "ValidationReport":
        return _check_complex(self)

    @cached_property
    def _canonical(self) -> tuple["SquareComplex", dict[int, int]]:
        perm = canonical_permutation(self)
        return relabel(self, perm), perm

    # -- vertex classes ---------------------------------------------------

    @cached_property
    def corner_table(self) -> CornerTable:
        # Corner x ends side x - 1 and starts side x, and a gluing matches
        # the corners at both ends of its sides, so a corner meets at most
        # two gluings and a class is a path or a cycle of corners. Crossing
        # side x - 1 walks ahead: the partner side's number is the corner
        # reached. Crossing side x walks back to corner partner + 1. A walk
        # ahead that comes back to its start is an internal vertex.
        part = self.partner_index
        size = len(part)
        of = [-1] * size
        keys: list[int] = []
        internal: list[bool] = []
        for start in range(size):
            if of[start] >= 0:
                continue
            # start is the least corner of its class, since a smaller one
            # would have been reached first: classes come in key order
            k = len(keys)
            keys.append(start)
            of[start] = k
            # on a side glued twice a walk can enter a loop that misses its
            # start; no class has more corners than the complex
            members = 1
            # the side before a corner, and `_next`, are written out in
            # these loops
            cur = part[start - 1 if start & 3 else start + 3]
            while cur >= 0 and cur != start:
                of[cur] = k
                members += 1
                if members > size:
                    raise InvalidComplex("vertex walk does not close")
                cur = part[cur - 1 if cur & 3 else cur + 3]
            inside = cur == start
            if not inside:
                mate = part[start]
                while mate >= 0:
                    cur = mate - 3 if mate & 3 == 3 else mate + 1
                    of[cur] = k
                    members += 1
                    if members > size:
                        raise InvalidComplex("vertex walk does not close")
                    mate = part[cur]
            internal.append(inside)
        return CornerTable(of, keys, internal)

    @cached_property
    def vertex_classes(self) -> tuple[VertexClass, ...]:
        """The classes of the corner table as objects, in key order."""
        t = self.corner_table
        members: list[list[Corner]] = [[] for _ in t.keys]
        for x, k in enumerate(t.of):
            members[k].append((x >> 2, x & 3))
        return tuple(VertexClass(frozenset(m), t.sign(k), t.internal[k])
                     for k, m in enumerate(members))

    @cached_property
    def corner_class(self) -> dict[Corner, VertexClass]:
        classes = self.vertex_classes
        return {(x >> 2, x & 3): classes[k]
                for x, k in enumerate(self.corner_table.of)}

    @cached_property
    def _internal_vertices(self) -> tuple[VertexClass, ...]:
        # no class object is built for a complex with no internal vertex
        if True not in self.corner_table.internal:
            return ()
        return tuple(v for v in self.vertex_classes if v.internal)

    def internal_vertices(self) -> tuple[VertexClass, ...]:
        return self._internal_vertices

    @cached_property
    def vertex_sign_sum(self) -> int:
        """The sum of the vertex classes' signs."""
        keys = self.corner_table.keys
        return 2 * sum(key & 1 for key in keys) - len(keys)

    def edge_endpoints(self, slot: Slot) -> tuple[VertexClass, VertexClass]:
        """Start and end vertex classes of a side, in the side's direction."""
        sq, k = slot
        of, classes = self.corner_table.of, self.vertex_classes
        return classes[of[4 * sq + k]], classes[of[4 * sq + (k + 1) % 4]]

    # -- boundary walks ---------------------------------------------------

    @cached_property
    def boundary_cycles(self) -> tuple[tuple[Slot, ...], ...]:
        """The boundary sides in cycles along the boundary: each cycle
        starts at its least side, and the cycles come in the order of
        those. After boundary side x comes side _next(x), or, while that
        side is glued, the side after its partner. The walk is a function
        of the side it is at, so one that comes back to its start has
        reached no side twice; a walk of more steps than the complex has
        sides never comes back (InvalidComplex), as on a side glued
        twice."""
        part = self.partner_index
        seen = bytearray(len(part))
        cycles = []
        for start, mate in enumerate(part):
            if mate >= 0 or seen[start]:
                continue
            cycle = [start]
            x = _next(start)
            for _ in part:
                if x == start:
                    break
                mate = part[x]
                if mate >= 0:
                    x = _next(mate)
                else:
                    cycle.append(x)
                    seen[x] = 1
                    x = _next(x)
            else:
                raise InvalidComplex("boundary walk does not terminate")
            cycles.append(tuple((x >> 2, x & 3) for x in cycle))
        return tuple(cycles)

    def boundary_cycle_of(self, slot: Slot) -> tuple[Slot, ...]:
        for cycle in self.boundary_cycles:
            if slot in cycle:
                return cycle
        raise ValueError(f"{slot} is not a boundary edge")

    # -- components -------------------------------------------------------

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """Component id per square (ids are 0..components-1 by least square)."""
        parent = list(range(self.square_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (sa, _), (sb, _) in self.gluings:
            ra, rb = find(sa), find(sb)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        roots: dict[int, int] = {}
        out = []
        for s in range(self.square_count):
            r = find(s)
            if r not in roots:
                roots[r] = len(roots)
            out.append(roots[r])
        return tuple(out)

    def component_squares(self, comp: int) -> tuple[int, ...]:
        return tuple(s for s in range(self.square_count)
                     if self.component_of[s] == comp)


# ---------------------------------------------------------------------------
# validation and invariants


def validate_complex(c: SquareComplex) -> ValidationReport:
    """The complex's problems, computed on the first call and cached on c."""
    return c._report


def _check_complex(c: SquareComplex) -> ValidationReport:
    problems: list[str] = []
    slot_uses: dict[Slot, int] = {}
    for a, b in c.gluings:
        for slot in (a, b):
            sq, k = slot
            if not (0 <= sq < c.square_count and 0 <= k < 4):
                problems.append(f"gluing references nonexistent slot {slot}")
            slot_uses[slot] = slot_uses.get(slot, 0) + 1
        if a == b:
            problems.append(f"side {a} glued to itself")
        elif (a[1] + b[1]) % 2 == 0:
            problems.append(f"gluing {a}-{b} pairs sides of equal parity")
    for slot, count in slot_uses.items():
        if count > 1:
            problems.append(f"side {slot} glued more than once")
    if problems:
        return ValidationReport(tuple(problems))

    if not c.slack:
        for a, b in c.gluings:
            if a[0] == b[0]:
                problems.append(f"sides {a} and {b} of one square glued (needs slack)")
        t = c.corner_table
        for k, inside in enumerate(t.internal):
            if inside:
                problems.append(f"internal vertex {t.corners(k)} (needs slack)")
    return ValidationReport(tuple(problems))


def _require_valid(c: SquareComplex) -> None:
    report = c._report
    if not report.ok:
        raise InvalidComplex("; ".join(report.problems))


def invariants(c: SquareComplex) -> InvariantSummary:
    _require_valid(c)
    t = c.corner_table
    v = len(t.keys)
    e = len(c.gluings) + len(c.boundary_slots)
    f = c.square_count
    chi = v - e + f
    boundary_keys = [key for key, inside in zip(t.keys, t.internal)
                     if not inside]
    pos = sum(key & 1 for key in boundary_keys)
    neg = len(boundary_keys) - pos
    if pos != neg:
        raise InvalidComplex("boundary vertex signs do not balance")
    n = pos
    b = len(c.boundary_cycles)
    comps = max(c.component_of, default=-1) + 1
    genus2 = 2 * comps - chi - b
    if genus2 % 2:
        raise InvalidComplex("inconsistent Euler data")
    return InvariantSummary(
        square_count=c.square_count,
        n=n,
        chi=chi,
        boundary_components=b,
        components=comps,
        genus=genus2 // 2,
        index=n - chi,
        gluing_number=n - 2 * chi,
    )


def component_index(c: SquareComplex, comp: int) -> int:
    """Index N - chi of one connected component."""
    squares = set(c.component_squares(comp))
    sub_gluings = [g for g in c.gluings if g[0][0] in squares]
    renum = {s: i for i, s in enumerate(sorted(squares))}
    sub = SquareComplex.build(
        len(squares),
        [(((renum[a[0]], a[1])), ((renum[b[0]], b[1]))) for a, b in sub_gluings],
        slack=c.slack,
    )
    return invariants(sub).index


@dataclass(frozen=True)
class BoundaryEdge:
    slot: Slot
    outgoing: bool               # even side: agrees with boundary orientation
    start: VertexClass
    end: VertexClass


def boundary_structure(c: SquareComplex) -> list[list[BoundaryEdge]]:
    _require_valid(c)
    out = []
    for cycle in c.boundary_cycles:
        edges = []
        for slot in cycle:
            start, end = c.edge_endpoints(slot)
            edges.append(BoundaryEdge(slot, slot[1] % 2 == 0, start, end))
        out.append(edges)
    return out


# ---------------------------------------------------------------------------
# glue / unglue


@dataclass(frozen=True)
class GluingKind:
    kind: str                                    # "standard" | "fold" | "zip"
    swallowed: tuple[VertexClass, ...] = ()

    @property
    def sign(self) -> Optional[int]:
        if self.kind == "fold":
            return self.swallowed[0].sign
        return None


def classify_gluing(c: SquareComplex, a: Slot, b: Slot) -> GluingKind:
    """Classify the gluing of two boundary edges without performing it."""
    t = c.corner_table
    of = t.of
    x, y = 4 * a[0] + a[1], 4 * b[0] + b[1]
    # class indices come in key order
    shared = sorted({of[x], of[_next(x)]} & {of[y], of[_next(y)]})
    if not shared:
        return GluingKind("standard")
    return GluingKind("fold" if len(shared) == 1 else "zip",
                      tuple(map(t.vertex_class, shared)))


def glue(c: SquareComplex, a: Slot, b: Slot) -> tuple[SquareComplex, GluingKind]:
    _require_valid(c)
    part = c.partner_index
    for slot in (a, b):
        sq, k = slot
        if not (0 <= sq < c.square_count and 0 <= k < 4):
            raise ValueError(f"no such slot {slot}")
        if part[4 * sq + k] >= 0:
            raise ValueError(f"side {slot} is already glued")
    if a == b:
        raise ValueError("cannot glue a side to itself")
    if (a[1] + b[1]) % 2 == 0:
        raise ValueError("gluing must pair an even side with an odd side")

    kind = classify_gluing(c, a, b)
    if kind.kind == "zip":
        cycle = c.boundary_cycle_of(a)
        if set(cycle) != {a, b}:
            raise ValueError("edges share both endpoints but are not a whole "
                             "2-edge boundary cycle")
        comp = c.component_of[a[0]]
        comp_cycles = sum(
            1 for cyc in c.boundary_cycles if c.component_of[cyc[0][0]] == comp
        )
        if comp_cycles < 2:
            raise ValueError("zip needs a second boundary component")
        if component_index(c, comp) == 2:
            raise ValueError("zip would close the component into a vacuum")
    glued = SquareComplex(
        c.square_count,
        c.gluings | {_norm_pair(a, b)},
        slack=c.slack or kind.kind != "standard",
    )
    # a standard gluing joins two distinct classes on two distinct squares,
    # and a fold or a zip makes the complex slack: either way c's report
    # holds for the glued complex
    return _seeded(glued, corner_table=_glued_table(c.corner_table, a, b),
                   _report=c._report), kind


def _glued_table(t: CornerTable, a: Slot, b: Slot) -> CornerTable:
    """The corner table t once boundary sides a and b are glued.

    The gluing identifies corner (S, a) with (T, b + 1) and (S, a + 1) with
    (T, b). Each of those corners ends its class, as its side is unglued,
    so the two classes of a pair join into one, or close into an internal
    vertex when they are one class. The two pairs have opposite signs, so
    they meet disjoint classes.
    """
    of, internal = t.of, list(t.internal)
    x, y = 4 * a[0] + a[1], 4 * b[0] + b[1]
    joined: dict[int, int] = {}         # a class index -> the one it joins
    for u, v in ((x, _next(y)), (_next(x), y)):
        p, q = of[u], of[v]
        if p == q:
            internal[p] = True
        else:
            # the joined class takes the index with the lesser key, so the
            # classes stay in key order
            joined[max(p, q)] = min(p, q)
    if not joined:
        return CornerTable(of, t.keys, internal)
    renumber = []
    kept = 0
    for k in range(len(t.keys)):
        renumber.append(kept)
        kept += k not in joined
    for q, p in joined.items():
        renumber[q] = renumber[p]
    return CornerTable(
        list(map(renumber.__getitem__, of)),
        [key for k, key in enumerate(t.keys) if k not in joined],
        [x for k, x in enumerate(internal) if k not in joined])


def unglue(c: SquareComplex, a: Slot, b: Slot) -> SquareComplex:
    _require_valid(c)
    pair = _norm_pair(a, b)
    if pair not in c.gluings:
        raise ValueError(f"no gluing {a}-{b} to cut")
    return SquareComplex(c.square_count, c.gluings - {pair}, slack=c.slack)


# ---------------------------------------------------------------------------
# relabeling and canonical form


def relabel(c: SquareComplex, perm: dict[int, int]) -> SquareComplex:
    """Renumber squares by perm (old index -> new index)."""
    pairs = [(((perm[a[0]], a[1])), ((perm[b[0]], b[1]))) for a, b in c.gluings]
    return SquareComplex.build(c.square_count, pairs, slack=c.slack)


def canonical_permutation(c: SquareComplex) -> dict[int, int]:
    """BFS renumbering from the lowest-index square, neighbors in side order,
    read off the gluing table."""
    part = c.partner_index
    perm: dict[int, int] = {}
    for start in range(c.square_count):
        if start in perm:
            continue
        queue = [start]
        perm[start] = len(perm)
        for sq in queue:
            for mate in part[4 * sq:4 * sq + 4]:
                if mate >= 0 and mate >> 2 not in perm:
                    perm[mate >> 2] = len(perm)
                    queue.append(mate >> 2)
    return perm


def canonical_form(c: SquareComplex) -> tuple[SquareComplex, dict[int, int]]:
    """The relabelled complex and the permutation (old index -> new index).

    Both are computed on the first call and cached on c; each call returns a
    fresh copy of the permutation, so a caller may change it freely.
    """
    canon, perm = c._canonical
    return canon, dict(perm)


def add_square(c: SquareComplex) -> SquareComplex:
    out = SquareComplex(c.square_count + 1, c.gluings, slack=c.slack)
    report = c._report
    if not report.ok:
        return out
    # the new square's four corners are four classes, with keys past all
    # of c's; an unglued square adds no problem to a valid complex
    t = c.corner_table
    k, x = len(t.keys), 4 * c.square_count
    return _seeded(out, corner_table=CornerTable(
        t.of + [k, k + 1, k + 2, k + 3], t.keys + [x, x + 1, x + 2, x + 3],
        t.internal + [False] * 4), _report=report)


def tight_copy(c: SquareComplex) -> SquareComplex:
    """The tightened form of c, a valid complex with no internal vertex: c
    itself when it is not slack, else a copy marked not slack, with c's
    gluings and so with c's corner table."""
    if not c.slack:
        return c
    return _seeded(SquareComplex(c.square_count, c.gluings, slack=False),
                   corner_table=c.corner_table)


def _seeded(c: _T, **caches) -> _T:
    """c, just built, with caches filled by whatever built it.

    From a valid parent: the corner table, always (`add_square` appends
    the new square's four classes, `glue` joins two pairs of class indices
    or closes one into an internal vertex, `tight_copy` keeps its
    original's), and the report, after `add_square` and `glue`, where it is
    the parent's. So c is neither walked nor checked; every other complex
    walks its own. No `VertexClass` object is carried: the view is built
    from the table when it is first read.

    From a document: the parsers fill the tables they make as they read,
    `partner_index` of a complex with no side glued twice and the side
    counts and endpoint table of a curve system; no fact and no report is
    seeded so.
    """
    c.__dict__.update(caches)
    return c
