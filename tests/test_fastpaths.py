"""The fast paths of the bypass recursion against the full paths they skip,
the exact work of one element, and the safety of the cached values.

Fast paths and their oracles:
- `normalize` returns a system in canonical form with no chord on one
  glued side as it is; the oracle makes a diagram, runs
  `_normalize_diagram` and freezes every time.
- `sutures.strands` walks each arc from a boundary side and then each
  closed strand, on integer tables; the oracles walk slot tuples
  (`arc_ends_oracle`) and search every component
  (`_closed_components_oracle`). `helpers.closed_components` is a view of
  its closed strands that reads nothing of a system already found with no
  closed component on the same complex object.
- `partner`, `is_glued`, `boundary_slots`, `boundary_cycles` and
  `canonical_permutation` read the complex's one gluing table,
  `partner_index`; the oracles read a dict built from its gluings
  (`partner_oracle`, `boundary_cycles_oracle`,
  `canonical_permutation_oracle`).
- A slack square collapse walks round its vertex on `partner_index` and
  builds its complex once; the oracles walk and build on slot tuples
  (`fan_oracle`, `collapse_oracle`).
- `validate_sutures` reads each square's problems from the system's
  endpoint table, which numbers a valid square's endpoints straight from
  its chords and sorts only a square it cannot number; the oracle is the
  per-problem loop below, which must give byte-identical problem lists.
  The table's numbering is checked against a search over the sorted
  endpoints (`endpoint_table_oracle`).
- `SquareComplex.corner_table` walks each corner orbit once, on integer
  side partners, and `vertex_classes` is a view of it; the oracle is the
  union-find over corners (`vertex_classes_oracle`, `corner_table_oracle`),
  on valid complexes and on complexes with sides glued in any pairs.
- A complex that the compile builds by a creation or a gluing carries the
  corner table and the report that its parent's give it, and a tight copy
  carries its slack original's table; the oracles are a fresh copy's walk
  and check, and the union-find.
- A fan disc parsed from JSON is checked and peeled with no `VertexClass`
  object; the oracle is `disc.disc_element` of its matching.
- The parsers fill a complex's `partner_index` and a system's side counts
  and endpoint table as they read; the oracles are the parsers as they
  were, which check each slot and endpoint on its own, build, and make the
  tables when first read (`helpers.check_parse`), on the corpus, its
  documents scrambled, and the bench's pool documents.
- `compile_script` returns the last script it compiled as it is; the
  oracle is a fresh compile of an equal script.
- `bypass_surgery` normalizes its child and marks it so; the oracle
  freezes the rewired diagram and normalizes that from scratch
  (`surgery_oracle`). `normalize` reads nothing of a child; its oracle is
  the same call on a twin of the child that carries no facts.
- A surgery child of a pair valid on a complex object is trusted valid
  there, and a push through a script checks only its entry pair; the
  oracles check every surgery child of the corpora, and every pair a push
  passes through, in full (`validate_oracle`).
- `euler_class` is a signed count of local cells; the oracle is
  chi_plus - chi_minus of the region decomposition (`regions`).
- `require_valid_pair` trusts a system known valid on the same complex
  object; every other pair gets the full check.
- `transport_collapse` edits the curves in place and slices its square out
  of the frozen system; the oracle is the same collapse of a twin with no
  facts.
- A diagram freezes back to the system it was made from, and a hand-built
  system to the canonical form that `CurveSystem.build` gives.
- `slide_sutures` places the crossings of the new diagonal directly; the
  oracle cuts the hexagon along it with `routing.split_disc`
  (`slide_sutures_oracle`).
- `sutures._splice`, the strand join of every re-routing move, is one walk
  over the links; the oracle is a union-find over the same links.
"""

import itertools
import json
import random
import re
import resource
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqft import engine, formats, quad, surface, sutures
from sqft.disc import disc_element
from sqft.census import (
    catalan, disc_complex, enumerate_disc_sutures, matching_system,
    random_extension, random_surface, random_sutures,
)
from sqft.engine import (
    CreateSquare, Fold, Glue, MorphismScript, ScriptError, Zip,
    annihilation_as_fold, apply_script_to_sutures, compile_script,
    compiled_operator, naturality_holds, suture_element,
)
from sqft.regions import euler_class, is_trivial, regions
from sqft.routing import slide_sutures, transport_collapse
from sqft.surface import (
    SquareComplex, ValidationReport, VertexClass, canonical_form,
    canonical_permutation, validate_complex,
)
from sqft.sutures import (
    CurveSystem, Diagram, _normalize_diagram, _surgery_raw,
    basic_square_chords, basic_system, bypass_surgery, bypass_triples,
    finger_push, normalize, require_valid_pair, strands, transport_glue,
    validate_sutures,
)
from helpers import (
    arc_ends_oracle, boundary_cycles_oracle, canonical_permutation_oracle,
    check_parse, closed_components, collapse_oracle, fan_oracle,
    matchings_oracle, partner_oracle, scrambled, slide_sutures_oracle,
    sutures_to_obj, with_circle,
)
from test_triviality import (
    POOL_MATCHINGS, _closed_components_oracle, _surgery_children,
)


# ---------------------------------------------------------------------------
# the oracles


def normalize_oracle(c, g):
    d = Diagram(g)
    _normalize_diagram(c, d)
    return d.freeze()


def surgery_oracle(c, g, edge, t, direction):
    """The surgery frozen straight after the rewiring, with its bigons, and
    then normalized by a diagram of that system."""
    d = Diagram(g)
    _surgery_raw(c, d, surface._norm_pair(*edge), t, direction)
    return normalize_oracle(c, d.freeze())


def _noncrossing_oracle(chords):
    eps = sorted(ep for ch in chords for ep in ch)
    index = {ep: i for i, ep in enumerate(eps)}
    pair = {}
    for a, b in chords:
        pair[index[a]] = index[b]
        pair[index[b]] = index[a]
    stack = []
    for i in range(len(eps)):
        if stack and stack[-1] == pair[i]:
            stack.pop()
        elif pair[i] > i:
            stack.append(i)
        else:
            return False
    return not stack


def validate_oracle(c, g):
    """The per-problem loop over every square, with two additions: an
    endpoint on no side 0..3 is reported first (and then no side count is
    read), and chords sharing a point are not tested for crossing."""
    if g.square_count != c.square_count:
        return (f"curve system has {g.square_count} squares, "
                f"complex has {c.square_count}",)
    if not validate_complex(c).ok:
        return ("underlying complex invalid",)
    problems = []
    on_sides = True
    for sq in range(c.square_count):
        eps = [ep for ch in g.chords[sq] for ep in ch]
        for ep in sorted(ep for ep in eps if not 0 <= ep[0] < 4):
            problems.append(f"square {sq}: endpoint {ep} on no side")
            on_sides = False
        distinct = len(set(eps)) == len(eps)
        if not distinct:
            problems.append(f"square {sq}: point used by two chords")
        for k in range(4):
            pos = sorted(p for s, p in eps if s == k)
            if pos != list(range(len(pos))):
                problems.append(f"square {sq} side {k}: positions not dense")
        if g.loops[sq] < 0:
            problems.append(f"square {sq}: negative loop count")
        if distinct and not _noncrossing_oracle(g.chords[sq]):
            problems.append(f"square {sq}: chords cross")
    if not on_sides:
        return tuple(problems)

    def count(slot):
        sq, k = slot
        return sum(1 for ch in g.chords[sq] for ep in ch if ep[0] == k)

    for slot in c.boundary_slots:
        m = count(slot)
        if m != 1:
            problems.append(f"boundary side {slot} meets {m} points, wants 1")
    for a, b in c.sorted_gluings():
        ma, mb = count(a), count(b)
        if ma != mb:
            problems.append(f"edge {a}-{b}: point counts {ma} != {mb}")
        elif ma % 2 == 0:
            problems.append(f"edge {a}-{b}: even intersection count {ma}")
    return tuple(problems)


# ---------------------------------------------------------------------------
# the corpus: valid pairs that reach every branch


def _census_pairs():
    for n in range(2, 8):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n):
            yield c, g


def _pool_children():
    for n, matching in POOL_MATCHINGS.items():
        c = disc_complex(n)
        for child in _surgery_children(c, matching_system(n, matching)):
            yield c, child


def _circle_pairs():
    for n in range(3, 6):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n):
            for edge in c.sorted_gluings():
                yield c, with_circle(c, g, edge)


def _fingers(c, g):
    """Every system one finger move away from g: each has a bigon."""
    for edge in c.sorted_gluings():
        for slot in edge:
            sq = slot[0]
            m = g.side_count(slot)
            for gap in range(m + 1):
                for a, b in g.chords[sq]:
                    for ep in (a, b):
                        if ep[0] == slot[1]:
                            continue
                        try:
                            yield finger_push(c, g, slot, gap, ep)
                        except ValueError:
                            pass


def _finger_pairs():
    for n in range(3, 6):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n)[:12]:
            for once in _fingers(c, g):
                yield c, once
    # nested bigons: normalization removes them one after another
    hexagon = SquareComplex.build(2, [((0, 0), (1, 1))])
    for bits in range(4):
        for once in _fingers(hexagon, basic_system(hexagon, bits)):
            for twice in _fingers(hexagon, once):
                yield hexagon, twice


def _loop_pair():
    # facing bigons on both sides of the edge close up into a loose loop
    hexagon = SquareComplex.build(2, [((0, 0), (1, 1))])
    return hexagon, CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 1), (0, 2)), ((1, 0), (2, 0))],
        1: [((1, 0), (1, 1)), ((0, 0), (3, 0)), ((1, 2), (2, 0))],
    })


@pytest.fixture(scope="module")
def corpus_parts(random_pairs):
    parts = {
        "census": list(_census_pairs()),
        "random": list(random_pairs),
        "pool children": list(_pool_children()),
        "circles": list(_circle_pairs()),
        "fingers": list(_finger_pairs()) + [_loop_pair()],
    }
    for pairs in parts.values():
        for c, g in pairs:
            assert validate_oracle(c, g) == ()
    return parts


@pytest.fixture(scope="module")
def corpus(corpus_parts):
    return [pair for pairs in corpus_parts.values() for pair in pairs]


def test_corpus_sizes(corpus_parts):
    sizes = {name: len(pairs) for name, pairs in corpus_parts.items()}
    assert sizes["census"] == sum(
        len(enumerate_disc_sutures(n)) for n in range(2, 8))
    assert sizes["random"] == 200
    assert sizes["pool children"] == 140
    assert sizes["circles"] == 159
    assert sizes["fingers"] > 500


# ---------------------------------------------------------------------------
# each fast path against its oracle


def test_normalize_against_full_normalization(corpus):
    fast = slow = 0
    for c, g in corpus:
        out = normalize(c, g)
        assert out == normalize_oracle(c, g)
        if out is g:
            fast += 1
        else:
            slow += 1
            # the result holds no bigon, so it takes the fast path
            assert normalize(c, out) is out
    assert fast > 900 and slow > 1000


def test_normalize_fast_path_skips_the_diagram(monkeypatch):
    # surgery children are normalized by bypass_surgery: no diagram, no
    # freeze
    children = list(_pool_children())
    made = _count_calls(monkeypatch, Diagram, "__init__")
    freeze = _count_calls(monkeypatch, Diagram, "freeze")
    for c, child in children:
        assert normalize(c, child) is child
    assert made[0] == freeze[0] == 0


def _hand_built(g, flip=True, reverse=True):
    """g as a hand-built system, outside build's canonical form: with flip
    every chord (b, a), with reverse each square's chords in reverse order."""
    return CurveSystem(
        tuple(tuple((b, a) if flip else (a, b)
                    for a, b in (reversed(chords) if reverse else chords))
              for chords in g.chords),
        g.loops)


@pytest.mark.parametrize("flip, reverse",
                         [(True, False), (False, True), (True, True)])
def test_normalize_canonicalizes_hand_built_systems(corpus_parts, flip,
                                                    reverse):
    reordered = 0
    for c, g in corpus_parts["census"] + corpus_parts["pool children"]:
        h = _hand_built(g, flip, reverse)
        out = normalize(c, h)
        assert out == normalize_oracle(c, h) == normalize(c, g)
        if h != g:
            reordered += 1
            assert out is not h
    assert reordered > 400


def test_hand_built_lone_square_is_basic():
    square = SquareComplex.build(1)
    for bits in range(2):
        g = basic_system(square, bits)
        h = _hand_built(g)
        assert h != g and validate_sutures(square, h).ok
        engine.clear_cache()
        assert suture_element(square, h) == suture_element(square, g)
    assert suture_element(square, CurveSystem(
        ((((1, 0), (0, 0)), ((3, 0), (2, 0))),), (0,))).words == {1}


def _canonical_components(comps):
    return sorted(sorted(comp) for comp in comps)


def test_closed_components_against_full_search(corpus):
    empty = closed = 0
    for c, g in corpus:
        if g.total_loops():
            continue
        fast = closed_components(c, g)
        full = _closed_components_oracle(c, g)
        assert _canonical_components(fast) == _canonical_components(full)
        if full:
            closed += 1
        else:
            empty += 1
    assert empty > 1000 and closed >= 159


def _strand_pairs(corpus):
    """The corpus, the bench pool's roots and their fact-free twins, and
    census systems carried along random diagonal slides from the fan."""
    yield from corpus
    pool = json.loads((ROOT / "bench" / "disc_chords_pool.json").read_text())
    for n, matchings in pool["pool"].items():
        c = disc_complex(int(n))
        for m in matchings:
            g = matching_system(int(n), map(tuple, m))
            yield c, g
            yield c, CurveSystem(g.chords, g.loops)
    rng = random.Random(20261021)
    for n in range(3, 7):
        systems = enumerate_disc_sutures(n)
        for _ in range(40):
            c, g = disc_complex(n), rng.choice(systems)
            for _ in range(rng.randint(1, 4)):
                edge = rng.choice(c.sorted_gluings())
                d = rng.choice(("ccw", "cw"))
                c, g = quad.diagonal_slide(c, edge, d)[0], \
                    slide_sutures(c, g, edge, d)
                yield c, g


def test_strands_against_slot_walks(corpus):
    arcs = closed = 0
    for c, g in _strand_pairs(corpus):
        walk = strands(c, g)
        assert len(walk.end) == 4 * c.square_count
        ends = {(x >> 2, x & 3): (y >> 2, y & 3)
                for x, y in enumerate(walk.end) if y >= 0}
        assert list(ends) == list(c.boundary_slots)
        assert ends == arc_ends_oracle(c, g)
        t = g.endpoint_table
        found = [{(t.slot[p] >> 2, (t.slot[p] & 3, p - t.start[t.slot[p]]))
                  for p in points} for points in walk.closed]
        assert _canonical_components(found) == \
            _canonical_components(_closed_components_oracle(c, g))
        # each closed strand from its least endpoint, in the order of those
        firsts = [points[0] for points in walk.closed]
        assert firsts == sorted(firsts) == [min(p) for p in walk.closed]
        if walk.closed:
            assert g.facts.open is not c
        else:
            assert g.facts.open is c
        arcs += len(ends) // 2
        closed += len(walk.closed)
    assert arcs > 15000 and closed > 200, (arcs, closed)


def test_validate_sutures_against_loop_on_valid_pairs(corpus):
    for c, g in corpus:
        assert validate_sutures(c, g).problems == validate_oracle(c, g) == ()


def endpoint_table_oracle(g):
    """(start, slot, mate) of a valid system: each square's endpoints,
    sorted, numbered on from the last square's, and a chord's ends found
    by search."""
    start, slot, mate = [], [], []
    for sq, chords in enumerate(g.chords):
        eps = sorted(ep for ch in chords for ep in ch)
        base = len(slot)
        start += [base + sum(1 for ep in eps if ep[0] < k) for k in range(4)]
        slot += [4 * sq + k for k, _ in eps]
        for ep in eps:
            (other,) = [b if a == ep else a for a, b in chords if ep in (a, b)]
            mate.append(base + eps.index(other))
    return start + [len(slot)], slot, mate


def test_endpoint_table_against_search(corpus):
    for _, g in corpus:
        t = g.endpoint_table
        assert (t.start, t.slot, t.mate) == endpoint_table_oracle(g)
        assert t.problems == [] and t.on_sides
        assert g._side_counts == [
            tuple(sum(1 for ch in chords for ep in ch if ep[0] == k)
                  for k in range(4)) for chords in g.chords]


HEXAGON = SquareComplex.build(2, [((0, 0), (1, 1))])
ANNULUS = SquareComplex.build(2, [((0, 0), (1, 1)), ((0, 2), (1, 3))])
SQUARE = SquareComplex.build(1)
DISC12 = SquareComplex.build(5, [
    ((0, 2), (2, 3)), ((2, 2), (3, 3)), ((2, 1), (4, 2)), ((2, 0), (1, 3)),
])

MALFORMED = {
    "duplicate point": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((3, 0), (1, 1))]})),
    "chord on one point": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (0, 0)), ((1, 0), (2, 0))]})),
    "gapped positions": (HEXAGON, CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 2), (2, 0)), ((0, 4), (1, 0))],
        1: [((0, 0), (1, 0)), ((1, 1), (3, 0)), ((1, 2), (2, 0))]})),
    "crossing chords": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (2, 0)), ((1, 0), (3, 0))]})),
    "negative loop count": (HEXAGON, CurveSystem.build(
        2, {0: [((0, 0), (1, 0)), ((2, 0), (3, 0))],
            1: [((1, 0), (2, 0)), ((3, 0), (0, 0))]}, {1: -1})),
    "bad side": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (1, 0)), ((2, 0), (3, 0)), ((5, 0), (4, 0))]})),
    "negative side": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (1, 0)), ((-1, 0), (3, 0))]})),
    # side -1 would read as side 3, which has no point of its own
    "negative side in place of side 3": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (1, 0)), ((2, 0), (-1, 0))]})),
    "positions past a side's count": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (1, 1)), ((2, 0), (3, 0))]})),
    "bad side beside other faults": (HEXAGON, CurveSystem.build(2, {
        0: [((0, 0), (2, 0)), ((1, 0), (3, 0)), ((4, 0), (4, 1))],
        1: [((0, 0), (0, 0)), ((1, 1), (3, 0))]}, {0: -2})),
    "two points on a boundary side": (SQUARE, CurveSystem.build(1, {
        0: [((0, 0), (0, 1)), ((1, 0), (2, 0)), ((3, 0), (1, 1))]})),
    "even edge count": (ANNULUS, CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 1), (1, 0)), ((2, 0), (2, 1))],
        1: [((0, 0), (1, 0)), ((1, 1), (2, 0)), ((3, 0), (3, 1))]})),
    "edge counts differ": (HEXAGON, CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 1), (2, 0)), ((0, 2), (1, 0))],
        1: [((0, 0), (1, 0)), ((2, 0), (3, 0))]})),
    "square count": (HEXAGON, CurveSystem.build(1, {
        0: [((0, 0), (1, 0)), ((2, 0), (3, 0))]})),
    "invalid complex": (SquareComplex.build(1, [((0, 0), (0, 2))]),
                        CurveSystem.build(1, {})),
    "every square at fault": (DISC12, CurveSystem.build(5, {
        0: [((0, 0), (3, 0)), ((1, 0), (2, 0)), ((1, 0), (2, 1))],
        1: [((3, 0), (2, 0)), ((0, 2), (1, 0))],
        2: [((3, 0), (1, 0)), ((2, 0), (0, 0))],
        3: [((0, 0), (1, 0)), ((3, 0), (2, 0))],
        4: [((1, 0), (2, 0)), ((3, 0), (0, 0))]}, {3: -1, 4: -1})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_validate_sutures_against_loop_on_malformed(name):
    c, g = MALFORMED[name]
    problems = validate_sutures(c, g).problems
    assert problems, name
    assert problems == validate_oracle(c, g)


def _damaged(g):
    """Systems one change away from g: a chord dropped, a position moved,
    an endpoint moved onto another chord's, two chords' ends swapped, a loop
    count of -1."""
    for sq, chords in enumerate(g.chords):
        rest = {s: list(ch) for s, ch in enumerate(g.chords)}
        loops = dict(enumerate(g.loops))
        if chords:
            yield CurveSystem.build(g.square_count,
                                    {**rest, sq: chords[1:]}, loops)
            (side, pos), b = chords[0]
            yield CurveSystem.build(g.square_count, {
                **rest, sq: [((side, pos + 1), b)] + list(chords[1:])},
                loops)
        if len(chords) >= 2:
            (a, b), (p, q) = chords[0], chords[1]
            yield CurveSystem.build(g.square_count, {
                **rest, sq: [(p, b)] + list(chords[1:])}, loops)
            yield CurveSystem.build(g.square_count, {
                **rest, sq: [(a, p), (b, q)] + list(chords[2:])}, loops)
        yield CurveSystem.build(g.square_count, rest, {**loops, sq: -1})


def test_validate_sutures_against_loop_on_damaged_census():
    kinds = ("used by two chords", "not dense", "negative loop",
             "chords cross", "meets", "point counts")
    seen = set()
    for n in range(2, 6):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n):
            for bad in _damaged(g):
                # swapping two chords' ends may leave a valid system
                problems = validate_sutures(c, bad).problems
                assert problems == validate_oracle(c, bad)
                seen.update(k for k in kinds for p in problems if k in p)
    assert seen == set(kinds)


def test_parsed_fan_builds_no_vertex_class(monkeypatch):
    # each disc of the bench's chord pool, parsed from JSON as its op does,
    # is checked and peeled on integer tables alone
    pool = json.loads((ROOT / "bench" / "disc_chords_pool.json").read_text())
    built = []
    monkeypatch.setattr(surface, "VertexClass",
                        lambda *args: built.append(args))
    peeled = []
    for n, matchings in sorted(pool["pool"].items()):
        n = int(n)
        surface_text = formats.emit_surface(disc_complex(n))
        for m in matchings:
            m = [tuple(ch) for ch in m]
            c = formats.parse_surface(surface_text)
            g = formats.parse_sutures(
                formats.emit_sutures(matching_system(n, m)), c.square_count)
            engine.clear_cache()
            x = suture_element(c, g)
            assert "vertex_classes" not in vars(c)
            assert "corner_table" in vars(c) and "endpoint_table" in vars(g)
            peeled.append((c, n, m, x))
    monkeypatch.undo()
    assert built == [] and len(peeled) == 70
    for c, n, m, x in peeled:
        want = disc_element(n, m)
        assert (x.arity, x.words) == (want.arity, want.words)
        assert c.vertex_classes == vertex_classes_oracle(c)


def test_corpus_parses_as_the_oracles_do(corpus):
    for c, g in corpus:
        text = formats.emit_surface(c)
        check_parse(text, formats.emit_sutures(g))
        check_parse(text, json.dumps(scrambled(sutures_to_obj(g))))
    # and the malformed systems, some of which no document can name
    for c, g in MALFORMED.values():
        check_parse(formats.emit_surface(c),
                    json.dumps(scrambled(sutures_to_obj(g))))


def test_pool_documents_parse_as_the_oracles_do():
    pool = json.loads((ROOT / "bench" / "disc_chords_pool.json").read_text())
    for n, matchings in sorted(pool["pool"].items()):
        text = formats.emit_surface(disc_complex(int(n)))
        for m in matchings:
            g = matching_system(int(n), [tuple(ch) for ch in m])
            check_parse(text, formats.emit_sutures(g))


# ---------------------------------------------------------------------------
# the side-index bugfix


def test_endpoint_on_no_side_is_a_value_error():
    c, g = MALFORMED["bad side"]
    assert validate_sutures(c, g).problems == (
        "square 0: endpoint (4, 0) on no side",
        "square 0: endpoint (5, 0) on no side",
    )
    with pytest.raises(ValueError, match=r"endpoint \(4, 0\) on no side"):
        suture_element(c, g)


def test_shared_point_is_reported_not_raised():
    c, g = MALFORMED["duplicate point"]
    assert validate_sutures(c, g).problems[0] == \
        "square 0: point used by two chords"
    with pytest.raises(ValueError, match="point used by two chords"):
        suture_element(c, g)


# ---------------------------------------------------------------------------
# exact work of one element


def _count_calls(monkeypatch, owner, name, wrap=None):
    calls = [0]
    original = getattr(owner, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, wrap(counting) if wrap else counting)
    return calls


def _work_cases(disc12, disc12_sutures):
    yield disc12, disc12_sutures, 1
    for n, matching in sorted(POOL_MATCHINGS.items()):
        # a fact-free twin of the census root, which is trusted as built
        g = matching_system(n, matching)
        yield disc_complex(n), CurveSystem(g.chords, g.loops), 36


def test_exact_work_per_element(monkeypatch, disc12, disc12_sutures):
    for c, g, k in _work_cases(disc12, disc12_sutures):
        engine.clear_cache()
        made = _count_calls(monkeypatch, Diagram, "__init__")
        freeze = _count_calls(monkeypatch, Diagram, "freeze")
        canon = _count_calls(monkeypatch, surface, "canonical_permutation")
        valid = _count_calls(monkeypatch, sutures, "validate_sutures")
        # the recursion, which the default path leaves for the digital one
        # on the pool's fan discs, is reached through a chooser
        assert len(suture_element(c, g, chooser=lambda ts: ts[0]).words) == k
        # one diagram and one freeze per surgery child, none in normalize
        assert made[0] == freeze[0] == 2 * (k - 1)
        # the root validated once: every node below is a surgery child of a
        # valid pair, so it is valid
        assert valid[0] == 1
        # the default path computes a canonical form at most once, for the
        # memo key of disc12's recursion; the fan discs are peeled, with no
        # canonical form and no surgery
        made[0] = freeze[0] = 0
        for _ in range(2):
            engine.clear_cache()
            assert len(suture_element(c, g).words) == k
        assert canon[0] == (1 if c is disc12 else 0)
        assert made[0] == freeze[0] == 0
        assert valid[0] == 1
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# cached values


def test_canonical_form_returns_a_copy():
    c = disc_complex(6)
    shift = {s: (s + 2) % c.square_count for s in range(c.square_count)}
    c = surface.relabel(c, shift)
    canon, perm = canonical_form(c)
    want = canonical_permutation(c)
    assert perm == want
    perm[0] = 99
    perm.clear()
    canon2, perm2 = canonical_form(c)
    assert perm2 == want and canon2 == canon


def test_caches_leave_equality_and_hash_alone(disc12, disc12_sutures):
    twin = SquareComplex.build(disc12.square_count, disc12.gluings)
    before = hash(disc12)
    validate_complex(disc12)
    canonical_form(disc12)
    disc12.partner_index
    assert disc12 == twin and hash(disc12) == hash(twin) == before
    assert {twin: 1}[disc12] == 1
    assert repr(disc12) == repr(twin)

    g = disc12_sutures
    g_twin = CurveSystem(g.chords, g.loops)
    before = hash(g)
    assert validate_sutures(disc12, g).ok
    g.side_count((2, 0))
    assert g == g_twin and hash(g) == hash(g_twin) == before
    assert {g_twin: 1}[g] == 1
    assert repr(g) == repr(g_twin)


def test_invalid_complex_report_is_stable():
    c = SquareComplex.build(2, [((0, 0), (0, 2)), ((1, 1), (1, 1))])
    first = validate_complex(c)
    second = validate_complex(c)
    assert not first.ok
    assert first == second == surface._check_complex(c)
    assert isinstance(first, ValidationReport)


def test_caches_filled_by_racing_threads():
    # more workers than cores, switching often: every worker sees the same
    # canonical form, report and element of one fresh complex

    n = 14
    # disc_complex(n) is shared and its caches may be full: c is an equal,
    # fresh object, on which g's facts do not hold
    c = SquareComplex.build(n - 1, disc_complex(n).gluings)
    g = matching_system(n, POOL_MATCHINGS[n])
    want = suture_element(disc_complex(n), g)
    engine.clear_cache()
    results = []

    def work():
        canon, perm = canonical_form(c)
        perm.clear()
        results.append((canon, canonical_form(c)[1], validate_complex(c),
                        suture_element(c, g), g.side_count((0, 2))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 6
    first = results[0]
    assert first[1] == canonical_permutation(disc_complex(n))
    assert first[3] == want
    assert all(r == first for r in results)


# ---------------------------------------------------------------------------
# vertex classes: the orbit walk against the union-find


def vertex_classes_oracle(c):
    """The classes by union-find over all corners, each tested for being
    internal member by member."""
    parent = {(s, k): (s, k) for s in range(c.square_count) for k in range(4)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for (sa, a), (sb, b) in c.gluings:
        union((sa, a), (sb, (b + 1) % 4))
        union((sa, (a + 1) % 4), (sb, b))
    groups = {}
    for corner in parent:
        groups.setdefault(find(corner), []).append(corner)
    classes = []
    for members in groups.values():
        sign = +1 if members[0][1] % 2 == 1 else -1
        internal = all(c.is_glued((sq, k)) and c.is_glued((sq, (k - 1) % 4))
                       for sq, k in members)
        classes.append(VertexClass(frozenset(members), sign, internal))
    classes.sort(key=lambda v: v.key)
    return tuple(classes)


def corner_table_oracle(c):
    """The corner table read off the union-find's classes."""
    classes = vertex_classes_oracle(c)
    of = [0] * (4 * c.square_count)
    for k, v in enumerate(classes):
        for sq, corner in v.corners:
            of[4 * sq + corner] = k
    return surface.CornerTable(of, [4 * v.key[0] + v.key[1] for v in classes],
                               [v.internal for v in classes])


def _oracle_problems(c):
    """validate_complex's problem list, read off a twin that carries the
    oracle's corner table in place of its own walk's."""
    twin = SquareComplex(c.square_count, c.gluings, c.slack)
    twin.__dict__["corner_table"] = corner_table_oracle(twin)
    return surface._check_complex(twin).problems


def _script_complexes(script):
    """The source, every step's complex and every collapse's complex before
    it, of one compiled script."""
    yield script.source
    for step in compile_script(script).steps:
        yield step.complex_after
        for before, _ in step.collapses:
            yield before


def _extension_scripts(seeds):
    for s in seeds:
        base = compile_script(random_surface(s, 4)).target
        if base.square_count:
            yield random_extension(s, base, 8)


ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _walk_corpus(square, hexagon, annulus, punctured_torus, disc12):
    for script in _extension_scripts(range(60)):
        yield from _script_complexes(script)
    for s in range(400):
        yield from _script_complexes(random_surface(s, 8))
    for n in range(2, 21):
        yield disc_complex(n)
    yield from (square, hexagon, annulus, punctured_torus, disc12)
    for path in sorted(FIXTURES.glob("*.surface.json")):
        yield formats.parse_surface(path.read_text())
    # folds within one square: one pair of adjacent sides, both pairs, and
    # a fold beside a gluing to a second square
    for pairs in ([((0, 0), (0, 3))], [((0, 0), (0, 1))],
                  [((0, 1), (0, 2))], [((0, 0), (0, 3)), ((0, 1), (0, 2))],
                  [((0, 0), (0, 1)), ((0, 2), (0, 3))]):
        yield SquareComplex.build(1, pairs, slack=True)
    yield SquareComplex.build(2, [((0, 0), (0, 3)), ((0, 2), (1, 1))],
                              slack=True)


def _check_against_union_find(c):
    """c's corner table, its class view, the summaries read off the table
    and c's report, against the union-find."""
    want = vertex_classes_oracle(c)
    assert c.corner_table == corner_table_oracle(c)
    # tuple order too: collapse_steps reads the first internal class
    assert c.vertex_classes == want
    assert c.internal_vertices() == tuple(v for v in want if v.internal)
    assert c.vertex_sign_sum == sum(v.sign for v in want)
    assert validate_complex(c).problems == _oracle_problems(c)


def test_vertex_classes_against_union_find(square, hexagon, annulus,
                                           punctured_torus, disc12):
    complexes = internal = 0
    for c in _walk_corpus(square, hexagon, annulus, punctured_torus, disc12):
        # the complex as it came, and its twin of the other slackness, whose
        # problem list names each internal vertex when it is not slack
        for twin in (c, SquareComplex(c.square_count, c.gluings,
                                      not c.slack)):
            _check_against_union_find(twin)
        complexes += 1
        internal += bool(c.internal_vertices())
    assert complexes > 5000 and internal > 600


def _random_gluings(seed):
    """A complex of 1-5 squares with random sides glued in pairs, each side
    at most once: equal parities, a square's own sides and sides glued to
    themselves among them, slack or not."""
    rng = random.Random(f"random gluings:{seed}")
    n = rng.randint(1, 5)
    slots = [(s, k) for s in range(n) for k in range(4)]
    rng.shuffle(slots)
    pairs = []
    while len(slots) >= 2 and rng.random() < 0.8:
        a = slots.pop()
        pairs.append((a, a if rng.random() < 0.03 else slots.pop()))
    return SquareComplex.build(n, pairs, slack=rng.random() < 0.5)


def test_corner_table_on_invalid_complexes():
    # every side glued at most once, so the walk is defined even where the
    # complex is invalid; the view and the report must still agree
    seen = {"invalid": 0, "equal parity": 0, "glued to itself": 0,
            "internal vertex": 0}
    for seed in range(3000):
        c = _random_gluings(seed)
        _check_against_union_find(c)
        problems = validate_complex(c).problems
        seen["invalid"] += bool(problems)
        for kind in ("equal parity", "glued to itself", "internal vertex"):
            seen[kind] += any(kind in p for p in problems)
    assert seen["invalid"] > 1800 and seen["equal parity"] > 1400, seen
    assert seen["glued to itself"] > 100 and seen["internal vertex"] > 200, \
        seen


def test_vertex_walk_on_a_side_glued_twice_is_an_error():
    # (0, 1) is glued to (0, 0) and to (1, 0), so the walk ahead from corner
    # (0, 2) runs into a loop that misses it; validation reports the fault
    # before it reads any class
    c = SquareComplex.build(2, [((0, 0), (0, 1)), ((0, 1), (1, 0))],
                            slack=True)
    assert validate_complex(c).problems == (
        "side (0, 1) glued more than once",)
    for read in (lambda: c.corner_table, lambda: c.vertex_classes,
                 c.internal_vertices, lambda: c.vertex_sign_sum):
        with pytest.raises(surface.InvalidComplex, match="does not close"):
            read()


def _check_gluing_table(c):
    part = partner_oracle(c)
    slots = [(s, k) for s in range(c.square_count) for k in range(4)]
    for slot in slots:
        assert c.partner(slot) == part.get(slot)
        assert c.is_glued(slot) == (slot in part)
    for slot in ((-1, 0), (c.square_count, 0), (0, 4), (0, -1)):
        assert c.partner(slot) is None and not c.is_glued(slot)
    assert c.boundary_slots == tuple(s for s in slots if s not in part)
    assert c.boundary_cycles == boundary_cycles_oracle(c)
    assert canonical_permutation(c) == canonical_permutation_oracle(c)


def test_gluing_table_against_partner_dict(square, hexagon, annulus,
                                           punctured_torus, disc12):
    complexes = cycles = 0
    for c in _walk_corpus(square, hexagon, annulus, punctured_torus, disc12):
        _check_gluing_table(c)
        complexes += 1
        cycles += len(c.boundary_cycles)
    # sides glued in any pairs, each at most once: the walk along the
    # boundary is defined even where the complex is invalid
    for seed in range(3000):
        _check_gluing_table(_random_gluings(seed))
    assert complexes > 5000 and cycles > 5000


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_boundary_walk_on_a_side_glued_twice_is_an_error():
    # (1, 1) is glued to (0, 0) and to (0, 2), so the walk along the
    # boundary circles (0, 3), (1, 2), (1, 3), (1, 0) and never comes back
    # to (0, 1); it must raise, not loop. annihilation_as_fold does not
    # validate, and reaches the walk through boundary_cycle_of. The reads
    # run in a child process with a time limit and a memory limit, so a
    # walk that loops fails the test instead of hanging the suite
    code = "\n".join([
        "from sqft.engine import annihilation_as_fold",
        "from sqft.surface import InvalidComplex, SquareComplex",
        "gluings = [((0, 0), (1, 1)), ((0, 2), (1, 1))]",
        "for read in (lambda c: c.boundary_cycles,",
        "             lambda c: annihilation_as_fold(",
        "                 c, (0, 1), (0, 3), (1, 2), 1)):",
        "    try:",
        "        read(SquareComplex.build(2, gluings))",
        "    except InvalidComplex as exc:",
        "        print(exc)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == \
        ["boundary walk does not terminate"] * 2


def test_corner_table_of_a_missing_side_is_an_error():
    for slot in ((2, 0), (0, 4), (-1, 1), (0, -1)):
        c = SquareComplex.build(2, [((0, 1), slot)])
        assert validate_complex(c).problems[0] == \
            f"gluing references nonexistent slot {slot}"
        with pytest.raises(surface.InvalidComplex,
                           match="nonexistent slot " + re.escape(str(slot))):
            c.corner_table


# ---------------------------------------------------------------------------
# caches carried from parent to child by the compile


def _carried_corpus():
    """Scripts whose compiles build complexes in every way the compile
    can: random extensions of random surfaces, every annihilation on the
    fan discs n = 3..8, and the fixture scripts."""
    for s in range(120):
        base = engine._compile(random_surface(s, 4)).target
        if base.square_count:
            for max_squares in (8, 16):
                yield random_extension(s, base, max_squares)
    for n in range(3, 9):
        c = disc_complex(n)
        cycle = c.boundary_cycles[0]
        for i in range(len(cycle)):
            for sign in (1, -1):
                yield annihilation_as_fold(
                    c, cycle[i], cycle[(i + 1) % len(cycle)],
                    cycle[(i + 2) % len(cycle)], sign)
    for path in sorted(FIXTURES.glob("*.script.json")):
        yield formats.parse_script(path.read_text())


def _built_by_compile(compiled):
    """(complex, how it was made) for each complex a compile builds."""
    for step in compiled.steps:
        if isinstance(step.move, CreateSquare):
            yield step.complex_after, "creation"
            continue
        glued = step.collapses[0][0] if step.collapses else step.complex_after
        yield glued, "gluing"
        for before, _ in step.collapses[1:]:
            yield before, "collapse"
        if step.collapses:
            yield step.complex_after, "tight copy"


def test_carried_caches_against_walks():
    made = {"creation": 0, "gluing": 0, "collapse": 0, "tight copy": 0}
    internal = 0
    for script in _carried_corpus():
        for c, how in _built_by_compile(engine._compile(script)):
            carried = vars(c)
            if how in ("creation", "gluing"):
                assert "corner_table" in carried and "_report" in carried
            elif how == "tight copy":
                assert "corner_table" in carried
            # the table is carried, never the class objects
            assert "vertex_classes" not in carried
            fresh = SquareComplex(c.square_count, c.gluings, c.slack)
            assert c.corner_table == fresh.corner_table
            # tuple order too: collapse_steps reads the first internal class
            assert c.vertex_classes == fresh.vertex_classes
            assert c.vertex_classes == vertex_classes_oracle(fresh)
            assert c._report == fresh._report == surface._check_complex(fresh)
            # the summaries derived from the carried classes
            assert c.internal_vertices() == fresh.internal_vertices()
            assert c.vertex_sign_sum == fresh.vertex_sign_sum
            made[how] += 1
            internal += bool(c.internal_vertices())
    assert made["creation"] > 1000 and made["gluing"] > 2200, made
    assert made["tight copy"] > 700 and internal > 800, (made, internal)


def test_compile_checks_only_the_source(monkeypatch, disc12):
    checked = []

    def check(c):
        checked.append(c)
        return original(c)

    original = surface._check_complex
    monkeypatch.setattr(surface, "_check_complex", check)
    script = formats.parse_script(
        (FIXTURES / "disc12_fold.script.json").read_text())
    engine.clear_cache()
    compile_script(script)
    assert len(checked) == 1 and checked[0] is script.source
    # scripts with creations, gluings, folds and zips: a tight copy may be
    # checked when the next gluing reads its report, but no complex made
    # by a creation or a gluing is checked
    for script in _work_scripts(disc12):
        checked.clear()
        compiled = engine._compile(script)
        made = {id(c) for c, how in _built_by_compile(compiled)
                if how in ("creation", "gluing")}
        assert len(made) >= 4
        assert not made & {id(c) for c in checked}


# ---------------------------------------------------------------------------
# compile once


def _disc12_annihilation(disc12):
    cycle = disc12.boundary_cycles[0]
    return annihilation_as_fold(disc12, cycle[0], cycle[1], cycle[2], -1)


def _work_scripts(disc12):
    # seeds 1 and 5 give two folds and a zip, and two zips
    return [_disc12_annihilation(disc12)] + list(_extension_scripts((1, 5)))


def _twin(script):
    return MorphismScript(SquareComplex(script.source.square_count,
                                        script.source.gluings,
                                        script.source.slack), script.moves)


def test_compile_script_keeps_the_last_script(disc12):
    engine.clear_cache()
    script = _disc12_annihilation(disc12)
    compiled = compile_script(script)
    assert compile_script(script) is compiled
    # an equal script that is another object compiles afresh
    twin = _twin(script)
    assert twin == script and twin is not script
    again = compile_script(twin)
    assert again is not compiled and again.steps == compiled.steps
    assert compile_script(twin) is again


def test_compile_slot_holds_one_script(disc12):
    engine.clear_cache()
    first, second = _work_scripts(disc12)[:2]
    ref = weakref.ref(compile_script(first))
    assert ref() is not None
    compile_script(second)
    assert ref() is None
    ref = weakref.ref(compile_script(first))
    engine.clear_cache()
    assert ref() is None


def test_script_error_is_not_remembered(hexagon, disc12):
    engine.clear_cache()
    good = _disc12_annihilation(disc12)
    compiled = compile_script(good)
    # a standard gluing presented as a fold
    bad = MorphismScript.build(hexagon, [Fold((0, 2), (1, 3))])
    for _ in range(3):
        with pytest.raises(ScriptError, match="classifies as standard"):
            compile_script(bad)
        with pytest.raises(ScriptError):
            apply_script_to_sutures(bad, basic_system(hexagon, 0))
    assert compile_script(good) is compiled


def _push(script, bits):
    compiled = compile_script(script)
    _, fact = compiled_operator(compiled)
    g = basic_system(script.source, bits)
    target, image = apply_script_to_sutures(script, g)
    return fact.ops, target, image, suture_element(target, image)


def test_compile_slot_under_racing_threads(disc12):
    scripts = _work_scripts(disc12) + list(_extension_scripts((2, 6, 12)))
    engine.clear_cache()
    want = [[_push(s, bits) for bits in range(4)] for s in scripts]
    results = {}

    def work(i):
        out = []
        for _ in range(2):
            for j in range(len(scripts)):
                k = (i + j) % len(scripts)
                out.append((k, [_push(scripts[k], bits)
                                for bits in range(4)]))
        results[i] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,))
                   for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == list(range(6))
    for out in results.values():
        assert len(out) == 2 * len(scripts)
        for k, pushed in out:
            assert pushed == want[k]


def test_exact_work_per_script(monkeypatch, disc12):
    scripts = _work_scripts(disc12)
    moves = [type(m) for script in scripts for m in script.moves]
    assert moves.count(Fold) >= 4 and moves.count(Zip) >= 3
    for script in scripts:
        kinds = [type(m) for m in script.moves]
        gluings = sum(kinds.count(k) for k in (Glue, Fold, Zip))
        collapses = kinds.count(Fold) + 2 * kinds.count(Zip)
        for run in ("push", "naturality"):
            engine.clear_cache()
            glue = _count_calls(monkeypatch, engine, "glue")
            collapse = _count_calls(monkeypatch, quad, "_collapse")
            walks = _count_calls(monkeypatch, quad, "_wedges")
            if run == "push":
                _push(script, 1)
            else:
                assert naturality_holds(script, 1)
            # one walk round each collapsed vertex, the one that makes
            # its record
            assert (glue[0], collapse[0], walks[0]) == \
                (gluings, collapses, collapses), run
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# the push checks only its entry pair: every intermediate pair is valid


def _push_checked(script, g):
    """apply_script_to_sutures's loop, checking every intermediate
    (complex, system) pair in full."""
    compiled = compile_script(script)
    pairs = [(script.source, g)]
    for step in compiled.steps:
        move = step.move
        if isinstance(move, CreateSquare):
            k = g.square_count
            chords = dict(enumerate(g.chords))
            chords[k] = basic_square_chords(move.sign > 0)
            g = CurveSystem.build(k + 1, chords, dict(enumerate(g.loops)))
            pairs.append((step.complex_after, g))
            continue
        glued = step.collapses[0][0] if step.collapses else step.complex_after
        g = transport_glue(glued, g, move.a, move.b)
        pairs.append((glued, g))
        for before, rec in step.collapses:
            g = normalize(before, g)
            pairs.append((before, g))
            g = transport_collapse(before, g, rec)
        pairs.append((step.complex_after, g))
    for c, h in pairs:
        assert validate_oracle(c, h) == ()
    return compiled.target, g, len(pairs)


def _disc_annihilations():
    for n in range(3, 8):
        c = disc_complex(n)
        cycle = c.boundary_cycles[0]
        for i in range(len(cycle)):
            for sign in (1, -1):
                yield annihilation_as_fold(
                    c, cycle[i], cycle[(i + 1) % len(cycle)],
                    cycle[(i + 2) % len(cycle)], sign)


def test_every_pair_a_push_passes_through_is_valid():
    # every word of each extension's 1-4-square source; the all-negative,
    # the all-positive and one seeded word of each annihilation's disc
    rng = random.Random(13)
    cases = [(script, bits) for script in _extension_scripts(range(80))
             for bits in range(1 << script.source.square_count)]
    for script in _disc_annihilations():
        k = script.source.square_count
        cases += [(script, bits)
                  for bits in (0, (1 << k) - 1, rng.getrandbits(k))]
    checked = 0
    for script, bits in cases:
        g = basic_system(script.source, bits)
        target, image, count = _push_checked(script, g)
        assert (target, image) == apply_script_to_sutures(script, g)
        checked += count
    assert len(cases) > 750 and checked > 7000


# ---------------------------------------------------------------------------
# the slack square collapse walks and builds on side numbers; the oracle
# walks and builds on slot tuples


def _compiled_collapses():
    """(complex before, record, complex after) of every collapse that the
    corpus's random surfaces, the carried corpus (random extensions, the
    annihilations on fan discs and the fixture scripts) compile."""
    scripts = itertools.chain(
        (random_surface(s, 8) for s in range(400)), _carried_corpus())
    for script in scripts:
        for step in engine._compile(script).steps:
            befores = [before for before, _ in step.collapses]
            afters = befores[1:] + [step.complex_after]
            for (before, rec), after in zip(step.collapses, afters):
                yield before, rec, after


def _matches(c, rec):
    """Whether the oracle's walk on c from the record's corner gives the
    record's wedges."""
    try:
        return fan_oracle(c, (rec.square, rec.y_corner))[1] == rec.wedges
    except surface.InvalidComplex:
        return False


def test_collapse_against_slot_tuples():
    collapses = degenerate = refused = 0
    last = None
    for before, rec, after in _compiled_collapses():
        x = (rec.square, rec.y_corner)
        fan, wedges = fan_oracle(before, x)
        assert (rec.wedges, rec.n) == (wedges, len(fan))
        assert rec == quad.make_collapse_record(before, *x)
        # the internal vertex's corners are its corner and its wedges, each
        # once
        t = before.corner_table
        assert sorted([x, *rec.wedges]) == t.corners(t.of[4 * x[0] + x[1]])
        # the collapse builds what the oracle builds; the tight copy of the
        # last collapse of a step keeps its gluings
        out = quad.collapse_slack_square(before, rec)
        assert out == collapse_oracle(before, *x)
        assert (out.square_count, out.gluings) == \
            (after.square_count, after.gluings)
        # a record of another complex: the complex it made, where its
        # vertex is gone, and the complex of the collapse before it
        assert not _matches(after, rec)
        for other in (after, last):
            if other is not None and not _matches(other, rec):
                with pytest.raises(ValueError, match="collapse record does "
                                   "not match the complex"):
                    quad.collapse_slack_square(other, rec)
                refused += 1
        last = before
        collapses += 1
        degenerate += rec.n == 1
    assert collapses > 1400 and degenerate > 600, (collapses, degenerate)
    assert refused > 2500, refused


def test_collapse_builds_its_complex_once(monkeypatch):
    cases = list(itertools.islice(_compiled_collapses(), 300))
    build = SquareComplex.build
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(SquareComplex, "build", staticmethod(counted))
    for before, rec, _ in cases:
        built.clear()
        quad.collapse_slack_square(before, rec)
        assert len(built) == 1
    assert len(cases) == 300


def test_one_fan_walk_per_collapse(monkeypatch):
    # collapse_steps hands the record it has just made to the unchecked
    # collapse; the public collapse_slack_square walks the fan again to
    # check the record it is given
    glued = [step.collapses[0][0]
             for script in (random_surface(s, 8) for s in range(100))
             for step in engine._compile(script).steps if step.collapses]
    walks = _count_calls(monkeypatch, quad, "_wedges")
    collapses = 0
    for c in glued:
        steps = list(quad.collapse_steps(c))
        collapses += len(steps)
        assert walks[0] == collapses
    for before, rec, _ in steps:
        quad.collapse_slack_square(before, rec)
    assert walks[0] == collapses + len(steps)
    assert len(glued) > 50 and collapses > len(glued)


# ---------------------------------------------------------------------------
# a collapse edits the curves in place and slices its square out; a slide
# places the crossings of the new diagonal directly


def test_collapse_against_thaw_all(monkeypatch):
    # every collapse of a push through the extension scripts, at every word
    # of their sources: the input as the push passes it on, and a twin with
    # no facts, give the same system, which a diagram freezes back to itself
    collapses = [0]

    def checked(c, g, rec):
        collapses[0] += 1
        out = transport_collapse(c, g, rec)
        assert out == transport_collapse(c, CurveSystem(g.chords, g.loops), rec)
        assert Diagram(out).freeze() == out
        return out

    monkeypatch.setattr(engine, "transport_collapse", checked)
    for script in _extension_scripts(range(80)):
        for bits in range(1 << script.source.square_count):
            apply_script_to_sutures(script, basic_system(script.source, bits))
    assert collapses[0] == 880


def test_slide_against_split_disc(random_pairs):
    # every edge of the random pairs and of the census discs n = 3..6, both
    # ways, against the hexagon cut along the new diagonal by split_disc
    cases = list(random_pairs)
    for n in range(3, 7):
        c = disc_complex(n)
        cases += [(c, g) for g in enumerate_disc_sutures(n)]
    slides = 0
    for c, g in cases:
        for edge in c.sorted_gluings():
            for direction in ("ccw", "cw"):
                assert slide_sutures(c, g, edge, direction) == \
                    slide_sutures_oracle(c, g, edge, direction)
                slides += 1
    assert slides == 2436


# ---------------------------------------------------------------------------
# the surgery against the surgery normalized from scratch


POOL_FILE = Path(__file__).resolve().parent.parent / "bench" / \
    "disc_chords_pool.json"


def _recursion_surgeries(c, g, every_triple=False):
    """(parent, edge, t, direction, child) for the surgeries of the default
    bypass recursion from g, made as the engine makes them: the root
    validated and normalized, each node validated before it is cut. Each
    node is cut both ways at its first triple (with every_triple, at each
    of its triples); only the nontrivial children of the first triple are
    walked on."""
    require_valid_pair(c, g)
    stack = [normalize(c, g)]
    while stack:
        node = stack.pop()
        require_valid_pair(c, node)
        triples = bypass_triples(c, node)
        for i, (edge, t) in enumerate(triples if every_triple
                                      else triples[:1]):
            for direction in ("up", "down"):
                child = bypass_surgery(c, node, edge, t, direction)
                yield node, edge, t, direction, child
                if i == 0 and not is_trivial(c, child):
                    stack.append(normalize(c, child))


def _self_glued_pairs():
    """Every valid normalized system with three crossings on an edge that
    glues two sides of one square: a lone square with sides 0 and 3
    glued, and the same square glued to a second one."""
    cone = SquareComplex.build(1, [((0, 0), (0, 3))], slack=True)
    pair = SquareComplex.build(2, [((0, 0), (0, 3)), ((0, 2), (1, 1))],
                               slack=True)
    layouts = [(cone, [(3, 1, 1, 3)])] + [
        (pair, [(3, 1, m, 3), (1, m, 1, 1)]) for m in (1, 3)]
    for c, counts in layouts:
        per_square = [list(matchings_oracle(
            [(k, p) for k in range(4) for p in range(sides[k])]))
            for sides in counts]
        for chords in itertools.product(*per_square):
            g = CurveSystem.build(c.square_count, dict(enumerate(chords)))
            if validate_sutures(c, g).ok and normalize(c, g) == g:
                yield c, g


def _annulus_torus_pairs():
    torus = formats.parse_surface(
        (FIXTURES / "punctured_torus.surface.json").read_text())
    for c in (ANNULUS, torus):
        for seed in range(30):
            yield c, random_sutures(seed, c, rounds=8)


def _pool_pairs():
    pool = json.loads(POOL_FILE.read_text())["pool"]
    for n, matchings in sorted(pool.items()):
        c = disc_complex(int(n))
        for m in matchings:
            yield c, matching_system(int(n), [tuple(p) for p in m])


def _surgeries_of(pairs, every_triple=True):
    return [(c, surgery) for c, g in pairs
            for surgery in _recursion_surgeries(c, g, every_triple)]


@pytest.fixture(scope="module")
def surgery_corpus(random_pairs):
    # the records name the complex a child was made on, so each pair's
    # surgeries are checked on that same complex object
    return {
        "census": _surgeries_of(_census_pairs()),
        "pool": _surgeries_of(_pool_pairs(), every_triple=False),
        "random": _surgeries_of(random_pairs),
        "annulus and torus": _surgeries_of(_annulus_torus_pairs()),
        "self-glued": _surgeries_of(_self_glued_pairs()),
    }


def test_surgery_corpus_reaches_every_case(surgery_corpus):
    sizes = {name: len(part) for name, part in surgery_corpus.items()}
    assert sizes["pool"] == 70 * 70
    assert sizes["census"] > 1000 and sizes["random"] > 100
    assert sizes["annulus and torus"] > 100 and sizes["self-glued"] >= 20
    # closed components among the children, and edges within one square
    assert sum(1 for c, (*_, child) in surgery_corpus["annulus and torus"]
               if not child.total_loops() and closed_components(c, child)) \
        > 50
    assert sum(1 for _, (_, edge, *_) in surgery_corpus["self-glued"]
               if edge[0][0] == edge[1][0]) >= 16


@pytest.mark.parametrize("part", ["census", "pool", "random",
                                  "annulus and torus", "self-glued"])
def test_surgery_against_thaw_all(surgery_corpus, part):
    for c, (node, edge, t, direction, child) in surgery_corpus[part]:
        assert child == surgery_oracle(c, node, edge, t, direction)
        # the child is known normalized on c, and a twin with no facts is
        # found so
        assert child.facts.normal is c
        twin = CurveSystem(child.chords, child.loops)
        assert normalize(c, child) is child and normalize(c, twin) is twin


@pytest.mark.parametrize("part", ["census", "pool", "random",
                                  "annulus and torus", "self-glued"])
def test_local_validation_against_whole(surgery_corpus, part):
    # a surgery child of a valid parent is trusted valid on the surgery's
    # complex object; the full check of a twin that carries no facts
    # agrees
    for c, (node, edge, t, direction, child) in surgery_corpus[part]:
        assert bypass_surgery(c, node, edge, t, direction).facts.valid is c
        twin = CurveSystem(child.chords, child.loops)
        assert validate_oracle(c, twin) == ()
        assert validate_sutures(c, twin).ok and twin.facts.valid is c


def _damaged_square(g, sq):
    """The _damaged changes, made to square sq alone."""
    for bad in _damaged(g):
        if all(bad.chords[s] == g.chords[s] and bad.loops[s] == g.loops[s]
               for s in range(g.square_count) if s != sq):
            yield bad


def test_damage_to_a_rewritten_square_is_reported(surgery_corpus):
    # the squares of the surgery's edge, which the surgery rewires
    kinds = ("used by two chords", "not dense", "negative loop",
             "chords cross", "meets", "point counts", "even intersection")
    seen = set()
    damaged = 0
    for part in ("census", "random", "annulus and torus", "self-glued"):
        for c, (_, edge, *_, child) in surgery_corpus[part][::7]:
            for sq in {edge[0][0], edge[1][0]}:
                for bad in _damaged_square(child, sq):
                    # a surgery that broke square sq would leave this child
                    whole = validate_oracle(c, bad)
                    assert validate_sutures(c, bad).problems == whole
                    damaged += bool(whole)
                    seen.update(k for k in kinds for p in whole if k in p)
    assert damaged > 1000
    assert seen == set(kinds)


def test_surgery_child_keeps_no_parent():
    n = 16
    c = disc_complex(n)
    parent = CurveSystem.build(c.square_count, dict(enumerate(
        matching_system(n, POOL_MATCHINGS[n]).chords)))
    require_valid_pair(c, parent)
    edge, t = bypass_triples(c, parent)[0]
    child = bypass_surgery(c, parent, edge, t, "up")
    assert child.facts.valid is c and child.facts.normal is c
    ref = weakref.ref(parent)
    del parent
    assert ref() is None
    assert validate_sutures(c, child).ok
    assert normalize(c, child) is child
    assert child.facts.valid is c and child.facts.normal is c


def test_freeze_round_trips_whole_diagrams(corpus_parts, random_pairs):
    # a diagram freezes back to the system it was made from; a hand-built
    # twin freezes to the canonical form that CurveSystem.build gives
    pool = [(c, g) for c, g in _pool_pairs()]
    pairs = corpus_parts["census"] + pool + list(random_pairs)
    assert len(pairs) == 624 + 70 + 200
    reordered = 0
    for c, g in pairs:
        assert Diagram(g).freeze() == g
        h = _hand_built(g)
        built = CurveSystem.build(h.square_count, dict(enumerate(h.chords)),
                                  dict(enumerate(h.loops)))
        assert Diagram(h).freeze() == built == g
        reordered += h != g
    assert reordered == len(pairs)


def test_surgery_on_unnormalized_parents():
    # a parent with bigons (one finger move away from a census system) has
    # bigons in squares the surgery never reads: the search reads them all
    checked = 0
    for c, g in _finger_pairs():
        assert normalize(c, g) != g
        for edge, t in bypass_triples(c, g)[:2]:
            for direction in ("up", "down"):
                child = bypass_surgery(c, g, edge, t, direction)
                assert child == surgery_oracle(c, g, edge, t, direction)
                assert normalize(c, child) is child
                # trusted valid, as census.random_sutures trusts it
                assert child.facts.valid is c
                assert validate_oracle(c, child) == ()
                checked += 1
    assert checked > 1000


def test_fault_outside_the_surgery_of_an_unchecked_parent_is_reported():
    # a child is trusted valid only when its parent was found valid on the
    # same complex object
    n = 14
    c = disc_complex(n)
    good = matching_system(n, POOL_MATCHINGS[n])
    edge, t = bypass_triples(c, good)[0]
    far = max(set(range(c.square_count)) - {edge[0][0], edge[1][0]})
    bad = CurveSystem.build(c.square_count, dict(enumerate(good.chords)),
                            {far: -1})
    fault = f"square {far}: negative loop count"
    assert validate_sutures(c, bad).problems == (fault,)
    child = bypass_surgery(c, bad, edge, t, "up")
    assert child.facts.valid is None
    assert validate_sutures(c, child).problems == (fault,)
    # a valid parent on an equal complex that is another object: the child
    # is checked whole on c
    twin = SquareComplex(c.square_count, c.gluings, c.slack)
    require_valid_pair(twin, good)
    child = bypass_surgery(twin, good, edge, t, "up")
    assert child.facts.valid is twin and child.facts.normal is twin
    assert validate_sutures(c, child).ok


# ---------------------------------------------------------------------------
# the Euler class by a signed count of cells against the region analysis


def _euler_oracle(c, g):
    dec = regions(c, g)
    return dec.chi_plus - dec.chi_minus


def _with_loops(g, sq, count):
    loops = list(g.loops)
    loops[sq] += count
    return CurveSystem(g.chords, tuple(loops))


def test_euler_class_against_regions(corpus, surgery_corpus, annulus,
                                     punctured_torus, disc12, disc12_sutures,
                                     hexagon_superposition):
    # every seventh of the pool's 4,900 children: the region analysis of
    # their 13-19 squares would take most of this test's time
    pairs = list(corpus) + [
        (c, child) for name, part in surgery_corpus.items()
        for c, (*_, child) in (part[::7] if name == "pool" else part)]
    pairs += [(HEXAGON, hexagon_superposition), (disc12, disc12_sutures)]
    pairs += [(HEXAGON, basic_system(HEXAGON, bits)) for bits in range(4)]
    pairs += [(c, random_sutures(seed, c, rounds=8))
              for c in (annulus, punctured_torus) for seed in range(20)]
    grades = set()
    for c, g in pairs:
        e = _euler_oracle(c, g)
        assert euler_class(c, g) == e
        # a hand-built system: every chord (b, a), chords in reverse order
        assert euler_class(c, _hand_built(g)) == e
        grades.add(e)
    assert len(pairs) > 7000 and len(grades) > 10


@pytest.mark.parametrize("flip, reverse",
                         [(True, False), (False, True), (True, True)])
def test_euler_class_of_hand_built_census(corpus_parts, flip, reverse):
    # the face inside a chord starts after its smaller endpoint, whichever
    # endpoint a hand-built chord names first
    flipped = 0
    for c, g in corpus_parts["census"]:
        h = _hand_built(g, flip, reverse)
        assert euler_class(c, h) == _euler_oracle(c, h) == euler_class(c, g)
        flipped += h.chords != g.chords
    assert flipped > 400


def test_euler_class_with_loose_loops(corpus_parts):
    sample = corpus_parts["census"][::7] + corpus_parts["random"][::4]
    for c, g in sample:
        for sq in range(c.square_count):
            for count in (1, 2, 3):
                h = _with_loops(g, sq, count)
                e = _euler_oracle(c, h)
                assert euler_class(c, h) == e
                assert e == euler_class(c, g) + 2 * (count % 2)


def test_euler_class_one_loop_against_regions(random_pairs):
    """Every census root up to n = 8, the random surface and suture pairs
    with seeded loose loops added, and hand-built copies of all of them
    with their chords out of canonical order."""
    pairs = [(disc_complex(n), g)
             for n in range(2, 9) for g in enumerate_disc_sutures(n)]
    rng = random.Random(20261020)
    looped = 0
    for c, g in random_pairs:
        loops = tuple(rng.randrange(4) for _ in g.loops)
        pairs.append((c, CurveSystem(g.chords, loops)))
        looped += sum(loops) % 2
    for c, g in pairs:
        e = _euler_oracle(c, g)
        assert euler_class(c, g) == e
        h = _hand_built(g)
        assert h.chords != g.chords or not any(g.chords)
        assert euler_class(c, h) == e
    assert len(pairs) == sum(catalan(n) for n in range(2, 9)) + 200
    assert looped > 50


def test_euler_class_of_invalid_pair_raises_as_regions():
    for name, (c, g) in sorted(MALFORMED.items()):
        with pytest.raises(ValueError) as want:
            regions(c, g)
        with pytest.raises(ValueError) as got:
            euler_class(c, g)
        assert str(got.value) == str(want.value), name


# ---------------------------------------------------------------------------
# one validity check per (complex, system) pair


def test_validity_mark_names_one_complex_object(monkeypatch,
                                                hexagon_superposition):
    g = hexagon_superposition
    twin = SquareComplex.build(2, HEXAGON.gluings)
    # side (0, 0), where g has three points, is a boundary side here
    elsewhere = disc_complex(3)
    valid = _count_calls(monkeypatch, sutures, "validate_sutures")
    for _ in range(3):
        require_valid_pair(HEXAGON, g)
    assert valid[0] == 1 and g.facts.valid is HEXAGON
    # an equal complex that is another object gets the full check
    assert twin == HEXAGON and twin is not HEXAGON
    require_valid_pair(twin, g)
    assert valid[0] == 2 and g.facts.valid is twin
    # so does one on which g is invalid, at every guard, and the mark stays
    for guard in (require_valid_pair, euler_class, is_trivial, regions):
        with pytest.raises(ValueError,
                           match=r"boundary side \(0, 0\) meets 3 points"):
            guard(elsewhere, g)
    assert valid[0] == 6 and g.facts.valid is twin
    # validate_sutures itself is always called
    assert sutures.validate_sutures(twin, g).ok and valid[0] == 7


def test_invalid_system_is_checked_every_time(monkeypatch):
    valid = _count_calls(monkeypatch, sutures, "validate_sutures")
    for name, (c, g) in sorted(MALFORMED.items()):
        for guard in (require_valid_pair, euler_class, require_valid_pair):
            with pytest.raises(ValueError, match="invalid curve system"):
                guard(c, g)
        assert g.facts.valid is None, name
    assert valid[0] == 3 * len(MALFORMED)


# ---------------------------------------------------------------------------
# closed strands of surgery children


def _walked_surgeries(pairs):
    """(complex, parent, edge, t, direction, child) for the surgery children
    at every triple of every node of the default recursion from each pair."""
    for c, g in pairs:
        stack = [normalize(c, g)]
        while stack:
            node = stack.pop()
            require_valid_pair(c, node)
            for i, (edge, t) in enumerate(bypass_triples(c, node)):
                for direction in ("up", "down"):
                    child = bypass_surgery(c, node, edge, t, direction)
                    yield c, node, edge, t, direction, child
                    if i == 0 and not is_trivial(c, child):
                        stack.append(normalize(c, child))


@pytest.fixture(scope="module")
def walked_surgeries(random_pairs):
    return (list(_walked_surgeries(_annulus_torus_pairs()))
            + list(_walked_surgeries(random_pairs)))


def test_closed_strands_of_children_against_full_search(surgery_corpus,
                                                        walked_surgeries):
    # a child carries no `open` fact of its parent: each is walked whole
    for c, surgery in surgery_corpus["pool"]:
        child = bypass_surgery(c, *surgery[:4])
        assert child.facts.open is None
        full = _closed_components_oracle(c, child)
        assert closed_components(c, child) == full == []
        assert child.facts.open is c

    answers = {True: 0, False: 0}
    for c, *surgery, _ in walked_surgeries:
        child = bypass_surgery(c, *surgery)
        if child.total_loops():
            continue
        fast = closed_components(c, child)
        full = _closed_components_oracle(c, child)
        assert _canonical_components(fast) == _canonical_components(full)
        answers[bool(full)] += 1
    assert answers[True] >= 30 and answers[False] >= 30


def test_closed_walk_keeps_no_parent():
    n = 16
    c = disc_complex(n)
    parent = CurveSystem.build(c.square_count, dict(enumerate(
        matching_system(n, POOL_MATCHINGS[n]).chords)))
    require_valid_pair(c, parent)
    assert closed_components(c, parent) == [] and parent.facts.open is c
    edge, t = bypass_triples(c, parent)[0]
    child = bypass_surgery(c, parent, edge, t, "up")
    assert child.facts.open is None
    ref = weakref.ref(parent)
    del parent
    assert ref() is None
    assert closed_components(c, child) == _closed_components_oracle(c, child)
    assert child.facts.open is c


# ---------------------------------------------------------------------------
# one record of facts, one path per check: a check reads every square
# unless its fact names the very complex object it is asked about


class _Watched(tuple):
    """A system's per-square chords that note each square read."""

    def __new__(cls, chords):
        out = super().__new__(cls, chords)
        out.read = set()
        return out

    def __getitem__(self, sq):
        self.read.add(sq)
        return tuple.__getitem__(self, sq)

    def __iter__(self):
        return (self[sq] for sq in range(len(self)))


def _watched(g):
    return CurveSystem(_Watched(g.chords), g.loops)


FACT_CHECKS = {
    "normal": lambda c, g: normalize(c, g) is g,
    "open": lambda c, g: closed_components(c, g) == [],
}


@pytest.mark.parametrize("name", sorted(FACT_CHECKS))
def test_each_check_reads_what_its_fact_leaves(name):
    check = FACT_CHECKS[name]
    n = 16
    c = disc_complex(n)
    every = set(range(c.square_count))
    twin = SquareComplex(c.square_count, c.gluings, c.slack)
    g = _watched(matching_system(n, POOL_MATCHINGS[n]))
    assert getattr(g.facts, name) is None
    # no fact: every square, then the fact holds on c
    assert check(c, g) and g.chords.read == every
    assert getattr(g.facts, name) is c
    # the fact on c: no square
    g.chords.read.clear()
    assert check(c, g) and g.chords.read == set()
    # a fact naming an equal complex that is another object: every square
    g = _watched(g)
    setattr(g.facts, name, twin)
    assert check(c, g) and g.chords.read == every
    assert getattr(g.facts, name) is c


def test_facts_leave_equality_and_output_alone(hexagon,
                                               hexagon_superposition):
    g = hexagon_superposition
    text, shown = formats.emit_sutures(g), repr(g)
    require_valid_pair(hexagon, g)
    normalize(hexagon, g)
    closed_components(hexagon, g)
    twin = CurveSystem(g.chords, g.loops)
    assert g == twin and hash(g) == hash(twin) and twin.facts.valid is None
    assert formats.emit_sutures(g) == text and repr(g) == shown
    # a parsed system carries no facts
    assert formats.parse_sutures(text, 2).facts.valid is None


# ---------------------------------------------------------------------------
# the strand splice against a union-find over its links


@st.composite
def splice_inputs(draw):
    """Links that form paths (outer ends, inner points between) and cycles
    (inner points only), with shuffled labels, orientations and order."""
    paths = draw(st.lists(st.integers(0, 4), max_size=6))   # inner points
    cycles = draw(st.lists(st.integers(1, 4), max_size=4))  # points
    labels = iter(draw(st.permutations(
        range(sum(k + 2 for k in paths) + sum(cycles)))))
    links, inner = [], set()
    for k in paths:
        strand = [next(labels) for _ in range(k + 2)]
        inner.update(strand[1:-1])
        links.extend(zip(strand, strand[1:]))
    for k in cycles:
        ring = [next(labels) for _ in range(k)]
        inner.update(ring)
        links.extend(zip(ring, ring[1:] + ring[:1]))
    flips = draw(st.lists(st.booleans(), min_size=len(links),
                          max_size=len(links)))
    links = [(v, u) if flip else (u, v) for (u, v), flip in zip(links, flips)]
    order = draw(st.permutations(range(len(links))))
    return [links[i] for i in order], inner


def _splice_oracle(links, inner):
    """[index of the first link with an outer point or None, the outer
    points] for each connected component of the links, the components with
    outer points in the order of those links."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for u, v in links:
        parent[find(u)] = find(v)
    comps = {}
    for i, (u, v) in enumerate(links):
        comp = comps.setdefault(find(u), [None, set()])
        outer = {u, v} - inner
        if outer and comp[0] is None:
            comp[0] = i
        comp[1].update(outer)
    return sorted(comps.values(), key=lambda comp: (comp[0] is None,
                                                    comp[0] or 0))


@settings(max_examples=200, deadline=None)
@given(splice_inputs())
def test_splice_against_union_find(case):
    links, inner = case
    paths, cycles = sutures._splice(links, inner)
    comps = _splice_oracle(links, inner)
    opened = [(first, outer) for first, outer in comps if outer]
    assert all(len(outer) == 2 for _, outer in opened)
    assert cycles == len(comps) - len(opened)
    assert [set(path) for path in paths] == [outer for _, outer in opened]
    # a path starts at the first outer point of the link that starts it
    for (start, _), (first, _) in zip(paths, opened):
        assert start == next(p for p in links[first] if p not in inner)


@settings(max_examples=50, deadline=None)
@given(splice_inputs())
def test_splice_rejects_an_inner_point_ending_one_link(case):
    links, inner = case
    outer = [p for link in links for p in link if p not in inner]
    assume(outer)
    with pytest.raises(AssertionError):
        sutures._splice(links, inner | {outer[0]})
