import json
import random
from itertools import permutations
from pathlib import Path

import pytest

from sqft.census import (
    catalan, disc_complex, enumerate_disc_sutures, matching_system,
    noncrossing_mates, noncrossing_matchings, random_surface, random_sutures,
)
from sqft import disc
from sqft.disc import disc_element, fan_element, matching_mates
from sqft.engine import clear_cache, compile_script, suture_element
from sqft.regions import (
    closed_components, euler_class, is_confining, is_trivial,
)
from sqft.surface import SquareComplex, invariants, relabel, validate_complex
from sqft.sutures import (
    CurveSystem, _is_normal, bypass_surgery, bypass_triples, normalize,
    require_valid_pair, validate_sutures,
)
from helpers import (
    boundary_hugging_system, confining_oracle, enumerate_basic,
    matching_system_oracle, matchings_oracle,
)

POOL_FILE = Path(__file__).resolve().parent.parent / "bench" / \
    "disc_chords_pool.json"


def test_disc_family_invariants():
    for n in range(2, 8):
        inv = invariants(disc_complex(n))
        assert (inv.index, inv.gluing_number) == (n - 1, n - 2)
        assert (inv.boundary_components, inv.chi, inv.n) == (1, 1, n)


def test_catalan_oracle():
    assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_noncrossing_matching_counts():
    for n in range(1, 7):
        assert sum(1 for _ in noncrossing_matchings(2 * n)) == catalan(n)
    assert list(noncrossing_matchings(0)) == [()]
    for n in range(1, 8):
        matchings = list(noncrossing_matchings(2 * n))
        assert matchings == list(matchings_oracle(tuple(range(2 * n))))
        assert [matching_mates(n, m) for m in matchings] == \
            noncrossing_mates(2 * n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_classes(n):
    c = disc_complex(n)
    systems = enumerate_disc_sutures(n)
    assert len(systems) == catalan(n)
    assert len(set(systems)) == catalan(n)
    for s in systems:
        assert validate_sutures(c, s).ok
        assert normalize(c, s) == s
        assert not is_trivial(c, s)
        assert is_confining(c, s) == confining_oracle(c, s) == False


def test_census_out_of_range():
    for n in (1, 10):
        with pytest.raises(ValueError):
            enumerate_disc_sutures(n)


def test_enumerate_basic(square, hexagon, punctured_torus):
    for c, count in ((square, 2), (hexagon, 4), (punctured_torus, 4)):
        systems = enumerate_basic(c)
        assert len(systems) == count
        elements = {suture_element(c, s).words for s in systems}
        assert elements == {frozenset({w}) for w in range(count)}


def test_random_surface_reproducible():
    a = random_surface(7, 5)
    b = random_surface(7, 5)
    assert a == b
    c1 = compile_script(a).target
    assert validate_complex(c1).ok
    assert not c1.internal_vertices()
    assert invariants(c1).components <= 1


def test_random_sutures_valid_and_nontrivial():
    for seed in range(12):
        c = compile_script(random_surface(seed, 5)).target
        if c.square_count == 0:
            continue
        g = random_sutures(seed, c)
        assert validate_sutures(c, g).ok
        assert not is_trivial(c, g)
        assert g == random_sutures(seed, c)


def test_bypass_triples_empty_on_basic(hexagon):
    from sqft.sutures import basic_system
    assert bypass_triples(hexagon, basic_system(hexagon, 0b01)) == []


def test_bypass_triples_counting(hexagon, hexagon_superposition):
    trips = bypass_triples(hexagon, hexagon_superposition)
    assert trips == [(((0, 0), (1, 1)), 0)]


def test_route_representative_matches_elements():
    # the two extreme matchings of the square are its basic sutures
    c = disc_complex(2)
    matchings = list(noncrossing_matchings(4))
    elements = {suture_element(c, matching_system(2, m)).word_strings()[0]
                for m in matchings}
    assert elements == {"0", "1"}


def _dominated(u, v, arity):
    """Whether every prefix of word u, factor 0 first, holds no more 1s than
    the same prefix of word v."""
    ones_u = ones_v = 0
    for i in range(arity):
        ones_u += (u >> i) & 1
        ones_v += (v >> i) & 1
        if ones_u > ones_v:
            return False
    return True


def test_census_elements_have_dominance_extremes():
    """In the prefix-count order on words of equal weight, each census
    element has exactly one least and one greatest word."""
    checked = 0
    for n in range(3, 8):
        c = disc_complex(n)
        for g in enumerate_disc_sutures(n):
            el = suture_element(c, g)
            words = el.words
            assert len({bin(w).count("1") for w in words}) == 1
            least = [u for u in words
                     if all(_dominated(u, v, el.arity) for v in words)]
            greatest = [u for u in words
                        if all(_dominated(v, u, el.arity) for v in words)]
            assert len(least) == len(greatest) == 1
            checked += 1
    assert checked == 622


def test_hugging_system_extremal(annulus, punctured_torus):
    for c in (annulus, punctured_torus):
        inv = invariants(c)
        g = boundary_hugging_system(c, +1)
        assert validate_sutures(c, g).ok
        assert euler_class(c, g) == inv.index
        assert not is_confining(c, g)
        gneg = boundary_hugging_system(c, -1)
        assert euler_class(c, gneg) == -inv.index


def _random_matching(rng, n):
    """A seeded non-crossing matching of 2n points: a shuffled bracket word
    rotated to start after its lowest prefix (so it is balanced), its
    points then rotated by a random step."""
    word = [1] * n + [-1] * n
    rng.shuffle(word)
    depth = low = start = 0
    for i, step in enumerate(word):
        depth += step
        if depth < low:
            low, start = depth, i + 1
    word = word[start:] + word[:start]
    shift = rng.randrange(2 * n)
    opened, out = [], []
    for i, step in enumerate(word):
        if step > 0:
            opened.append(i)
        else:
            out.append(((opened.pop() + shift) % (2 * n),
                        (i + shift) % (2 * n)))
    return tuple(out)


def _oracle_cases():
    for n in range(2, 8):
        for m in noncrossing_matchings(2 * n):
            yield "census", n, m
    pool = json.loads(POOL_FILE.read_text())["pool"]
    for n, matchings in sorted(pool.items()):
        for m in matchings:
            yield "pool", int(n), [tuple(p) for p in m]
    rng = random.Random(20261019)
    for n in range(2, 31):
        for _ in range(20):
            yield "random", n, _random_matching(rng, n)


def test_matching_system_against_split_disc():
    sizes = {}
    for part, n, m in _oracle_cases():
        g = matching_system(n, m)
        assert g == matching_system_oracle(n, m)
        c = disc_complex(n)
        assert g.facts.valid is g.facts.normal is g.facts.open is c
        assert g.facts.mates == matching_mates(n, m)
        # g is trusted as built, so its fact-free twin is checked in full
        twin = CurveSystem(g.chords, g.loops)
        assert validate_sutures(c, twin).ok and normalize(c, twin) is twin
        sizes[part] = sizes.get(part, 0) + 1
    assert sizes == {"census": sum(catalan(n) for n in range(2, 8)),
                     "pool": 70, "random": 29 * 20}


def test_census_roots_from_the_square_table():
    """The census builds each root square by square from a table of
    square diagrams, filled from a cleared cache; every root equals the
    split_disc oracle's system of its matching and carries its facts, and
    the table stays small."""
    for n in range(2, 9):
        clear_cache()
        assert not disc._SQUARE_CHORDS
        c = disc_complex(n)
        roots = enumerate_disc_sutures(n)
        assert len(roots) == catalan(n)
        assert 0 < len(disc._SQUARE_CHORDS) < 4 * n + 8
        for g, m in zip(roots, noncrossing_matchings(2 * n)):
            assert g == matching_system_oracle(n, m)
            assert g.facts.valid is g.facts.normal is g.facts.open is c
            assert g.facts.mates == matching_mates(n, m)


def test_random_matchings_cover_every_chord_length():
    rng = random.Random(20261019)
    lengths = set()
    for _ in range(200):
        m = _random_matching(rng, 9)
        assert sorted(p for ch in m for p in ch) == list(range(18))
        lengths.update((b - a) % 18 for a, b in m)
    # every odd gap between the ends of a chord occurs
    assert lengths == set(range(1, 18, 2))


# ---------------------------------------------------------------------------
# census roots: the matching is checked once, the system built is trusted


@pytest.mark.parametrize("matching", [
    ((0, 2), (1, 3), (4, 5)),     # crossing chords
    ((0, 1), (2, 3)),             # points 4 and 5 unmatched
    ((0, 1), (1, 2), (3, 4)),     # point 1 used twice
    ((0, 1), (2, 3), (4, 9)),     # point 9 out of range
    ((0, 1), (2, 3), (4, 5.0)),   # a point that is not an int
    ((0, 1), (2, 3), (4, "5")),
])
def test_matching_system_rejects_what_is_not_a_matching(matching):
    with pytest.raises(ValueError) as want:
        disc_element(3, matching)
    with pytest.raises(ValueError) as got:
        matching_system(3, matching)
    assert str(got.value) == str(want.value)


def _trusted_fact_cases():
    for n in range(2, 8):
        for m in noncrossing_matchings(2 * n):
            yield "census", n, m
    pool = json.loads(POOL_FILE.read_text())["pool"]
    for n, matchings in sorted(pool.items()):
        for m in matchings:
            yield "pool", int(n), [tuple(p) for p in m]
    rng = random.Random(20261020)
    for n in range(8, 31):
        for _ in range(20):
            yield "random", n, _random_matching(rng, n)


def test_trusted_census_facts_against_full_checks():
    sizes = {}
    for part, n, m in _trusted_fact_cases():
        c = disc_complex(n)
        assert disc_complex(n) is c
        g = matching_system(n, m)
        assert g.facts.valid is g.facts.normal is g.facts.open is c
        # a fact-free twin on a fresh, equal complex is checked in full
        fresh = SquareComplex.build(c.square_count, c.gluings)
        twin = CurveSystem(g.chords, g.loops)
        assert fresh == c and fresh is not c
        assert validate_sutures(fresh, twin).ok
        assert _is_normal(fresh, twin)
        assert closed_components(fresh, twin) == []
        assert normalize(fresh, twin) == g
        sizes[part] = sizes.get(part, 0) + 1
    assert sizes == {"census": sum(catalan(n) for n in range(2, 8)),
                     "pool": 70, "random": 23 * 20}


def test_trusted_census_root_is_checked_on_another_complex():
    c = disc_complex(4)
    # a class with three crossings on some arc
    g = max(enumerate_disc_sutures(4),
            key=lambda s: sum(len(ch) for ch in s.chords))
    assert validate_sutures(c, g).ok
    # three unglued squares: the fact names the fan, so g is read in full
    loose = SquareComplex.build(c.square_count)
    assert not validate_sutures(loose, g).ok
    with pytest.raises(ValueError, match="invalid curve system"):
        require_valid_pair(loose, g)
    # a pair damaged from a census root carries no fact and is rejected in
    # full, on the fan itself and on a fresh, equal complex
    chords = list(g.chords)
    chords[0] = chords[0][1:]
    damaged = CurveSystem(tuple(chords), g.loops)
    fresh = SquareComplex.build(c.square_count, c.gluings)
    for on in (c, fresh):
        assert not validate_sutures(on, damaged).ok
        with pytest.raises(ValueError, match="invalid curve system"):
            suture_element(on, damaged)


# ---------------------------------------------------------------------------
# census roots carry their matching: peeled on the shared fan, never walked


@pytest.fixture
def walks(monkeypatch):
    """The complexes `disc.fan_element` reads a strand walk on."""
    seen = []
    fan_order = disc._fan_order
    monkeypatch.setattr(disc, "_fan_order",
                        lambda c: seen.append(c) or fan_order(c))
    return seen


def test_census_roots_carry_their_matching(walks):
    sizes, children = {}, 0
    for part, n, m in _trusted_fact_cases():
        c = disc_complex(n)
        g = matching_system(n, m)
        assert g.facts.mates == matching_mates(n, m)
        want = fan_element(c, g)
        assert walks == []
        # a fact-free twin on c, and the root on a fresh, equal complex,
        # are walked to the same element
        fresh = SquareComplex.build(c.square_count, c.gluings)
        assert fan_element(c, CurveSystem(g.chords, g.loops)) == want
        assert fan_element(fresh, g) == want
        assert len(walks) == 2 and walks[0] is c and walks[1] is fresh
        walks.clear()
        # a bypass child and an equal copy are new systems: no mates
        for edge, t in bypass_triples(c, g)[:1]:
            assert bypass_surgery(c, g, edge, t, "up").facts.mates is None
            children += 1
        same = {i: i for i in range(c.square_count)}
        assert g.permute_squares(same) == g
        assert g.permute_squares(same).facts.mates is None
        sizes[part] = sizes.get(part, 0) + 1
    assert sizes == {"census": sum(catalan(n) for n in range(2, 8)),
                     "pool": 70, "random": 23 * 20}
    assert children > 500


def test_census_pass_walks_only_fact_free_twins(walks):
    clear_cache()
    c = disc_complex(7)
    roots = enumerate_disc_sutures(7)
    peeled = [suture_element(c, g) for g in roots]
    assert len(roots) == 429 and walks == []
    walked = [suture_element(c, CurveSystem(g.chords, g.loops))
              for g in roots]
    assert len(walks) == 429
    assert walked == peeled


def test_census_root_on_a_relabelled_fan_is_walked():
    """Some census roots are valid on a fan whose squares are relabelled,
    and validating one there moves its `valid` fact to that complex. Its
    mates number the points by the shared fan's squares, so there it is
    walked: peeling them would give another element."""
    n = 5
    c = disc_complex(n)
    checked = differ = 0
    for order in permutations(range(n - 1)):
        other = relabel(c, dict(enumerate(order)))
        for m, g in zip(noncrossing_matchings(2 * n),
                        enumerate_disc_sutures(n)):
            twin = CurveSystem(g.chords, g.loops)
            if not validate_sutures(other, twin).ok:
                continue
            want = suture_element(other, twin)
            assert suture_element(other, g) == want
            assert g.facts.valid is other
            differ += disc_element(n, m) != want
            checked += 1
    assert checked > 100 and differ > 0
