"""The triviality test of the bypass recursion against an independent copy of
the full predicate, and the exact work the recursion does per node."""

import random

import pytest

from sqft import engine
from sqft.census import disc_complex, enumerate_disc_sutures, matching_system
from sqft.regions import is_trivial, regions
from sqft.sutures import (
    CurveSystem, EP, bypass_surgery, bypass_triples, normalize,
    require_valid_pair,
)

from helpers import _Analysis, with_circle

# two diagrams of the benchmark's disc_chords pool (bench/disc_chords_pool.json):
# their elements have 36 words, so the recursion has 71 nodes and no memo hit
POOL_MATCHINGS = {
    14: ((0, 27), (1, 14), (2, 13), (3, 12), (4, 11), (5, 10), (6, 7), (8, 9),
         (15, 20), (16, 17), (18, 19), (21, 24), (22, 23), (25, 26)),
    16: ((0, 9), (1, 6), (2, 3), (4, 5), (7, 8), (10, 15), (11, 14), (12, 13),
         (16, 31), (17, 30), (18, 29), (19, 28), (20, 25), (21, 22), (23, 24),
         (26, 27)),
}


# ---------------------------------------------------------------------------
# the oracle: the full predicate, region analysis on every call


def _closed_components_oracle(c, g) -> list[set[tuple[int, EP]]]:
    mate = {}
    for s in range(c.square_count):
        for a, b in g.chords[s]:
            mate[(s, a)] = (s, b)
            mate[(s, b)] = (s, a)
    across = {}
    for (sa, ka), (sb, kb) in c.gluings:
        m = g.side_count((sa, ka))
        for j in range(m):
            across[(sa, (ka, j))] = (sb, (kb, m - 1 - j))
            across[(sb, (kb, m - 1 - j))] = (sa, (ka, j))
    seen = set()
    out = []
    for start in mate:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for q in (mate.get(p), across.get(p)):
                if q is not None and q not in comp:
                    comp.add(q)
                    frontier.append(q)
        seen |= comp
        if all(p in across for p in comp):
            out.append(comp)
    return out


def trivial_oracle(c, g) -> bool:
    if g.total_loops() > 0:
        return True
    require_valid_pair(c, g)
    an = _Analysis(c, g)
    dec = an.decomposition
    for comp in _closed_components_oracle(c, g):
        for s in range(c.square_count):
            for a, b in g.chords[s]:
                if (s, a) not in comp:
                    continue
                sf = an.sqf[s]
                i, j = sf.idx[a], sf.idx[b]
                for half in ((i, j), (j, i)):
                    reg = dec.regions[an.region(s, sf.face_of_half[half])]
                    if reg.chi == 1 and not reg.touches_boundary:
                        return True
    return False


def _surgery_children(c, g):
    """Every surgery child of the default bypass recursion from g, as the
    surgery leaves it, before normalization."""
    stack = [normalize(c, g)]
    while stack:
        node = stack.pop()
        triples = bypass_triples(c, node)
        if not triples:
            continue
        edge, t = triples[0]
        for direction in ("up", "down"):
            child = bypass_surgery(c, node, edge, t, direction)
            yield child
            stack.append(normalize(c, child))


def test_oracle_on_disc_census():
    for n in range(2, 8):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n):
            assert is_trivial(c, g) == trivial_oracle(c, g) == False


def test_oracle_on_random_pairs(random_pairs):
    closed = 0
    for c, g in random_pairs:
        assert is_trivial(c, g) == trivial_oracle(c, g)
        closed += bool(_closed_components_oracle(c, g))
    # the full-analysis branch is reached, not only the short-circuit
    assert closed > 0


def test_oracle_on_surgery_children_of_pool_diagrams():
    for n, matching in POOL_MATCHINGS.items():
        c = disc_complex(n)
        children = 0
        for child in _surgery_children(c, matching_system(n, matching)):
            fast = is_trivial(c, child)
            assert fast == trivial_oracle(c, child)
            # the recursion tests the normalized child
            assert fast == is_trivial(c, normalize(c, child))
            children += 1
        assert children == 70


def test_oracle_on_contractible_circles():
    # a circle across an internal edge bounds a disc away from the boundary:
    # only the full region analysis can call these trivial
    for n in range(3, 6):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n):
            for edge in c.sorted_gluings():
                h = with_circle(c, g, edge)
                assert is_trivial(c, h) == trivial_oracle(c, h) == True
                assert is_trivial(c, normalize(c, h))


def test_invalid_pair_raises_before_short_circuit(hexagon):
    # no closed component, but a boundary side meets three points
    g = CurveSystem.build(2, {
        0: [((0, 0), (1, 0)), ((2, 0), (3, 0))],
        1: [((0, 0), (1, 0)), ((2, 0), (2, 1)), ((2, 2), (3, 0))],
    })
    assert not _closed_components_oracle(hexagon, g)
    with pytest.raises(ValueError, match="meets 3 points"):
        is_trivial(hexagon, g)


# ---------------------------------------------------------------------------
# the local count of regions against the half-edge analysis


def _with_loops(g, seed) -> CurveSystem:
    """g with a seeded number of loose loops, 0 to 2, in each square."""
    rng = random.Random(seed)
    return CurveSystem(g.chords, tuple(rng.choice((0, 0, 1, 2)) for _ in g.loops))


def test_regions_match_half_edge_analysis(random_pairs):
    pairs = []
    for n in range(2, 8):
        c = disc_complex(n)
        pairs.extend((c, g) for g in enumerate_disc_sutures(n))
    for c, g in random_pairs:
        pairs.append((c, g))
        pairs.extend((c, child) for child in _surgery_children(c, g))
    for n in range(3, 7):
        c = disc_complex(n)
        pairs.extend((c, with_circle(c, g, edge))
                     for g in enumerate_disc_sutures(n)
                     for edge in c.sorted_gluings())
    looped = 0
    for i, (c, g) in enumerate(pairs):
        for h in (g, _with_loops(g, i)):
            assert regions(c, h).regions == _Analysis(c, h).decomposition.regions
        looped += h.total_loops() > 0
    assert len(pairs) == 1637
    assert looped > 1000


# ---------------------------------------------------------------------------
# exact work per recursion node


def _counted(monkeypatch, name):
    calls = [0]
    original = getattr(engine, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(engine, name, counting)
    return calls


@pytest.mark.parametrize("n", sorted(POOL_MATCHINGS))
def test_one_normalize_and_one_triviality_test_per_node(monkeypatch, n):
    c = disc_complex(n)
    g = matching_system(n, POOL_MATCHINGS[n])
    engine.clear_cache()
    trivial = _counted(monkeypatch, "is_trivial")
    normal = _counted(monkeypatch, "normalize")
    # the default path peels this fan disc with no recursion, and its
    # strand walk finds it open, so it makes no triviality test; a chooser
    # takes the recursion, which keeps no memo
    k = len(engine.suture_element(c, g).words)
    assert k == 36
    assert trivial[0] == 0 and normal[0] == 1
    assert len(engine.suture_element(c, g, chooser=lambda ts: ts[0]).words) == k
    assert trivial[0] == 2 * k - 1 and normal[0] == 1 + (2 * k - 1)
    assert not engine._CACHE


def test_fixture_counts_per_node(monkeypatch, disc12, disc12_sutures,
                                 hexagon, hexagon_superposition):
    for c, g, k in ((disc12, disc12_sutures, 1),
                    (hexagon, hexagon_superposition, 2)):
        engine.clear_cache()
        trivial = _counted(monkeypatch, "is_trivial")
        normal = _counted(monkeypatch, "normalize")
        assert len(engine.suture_element(c, g).words) == k
        assert trivial[0] == normal[0] == 2 * k - 1
        assert len(engine._CACHE) == 2 * k - 1
        monkeypatch.undo()
