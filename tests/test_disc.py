"""The digital disc evaluator against the bypass recursion and against
the rotation-form peel of `helpers`, each of its creation rules on its
own, and the disc identities it makes cheap to check: the bypass relation
on matchings, the dominance extremes at n = 20..30 and the census past
n = 7. Also the rule by which a diagonal slide acts on elements, on random
slide paths from the fan, which a disc frame for other discs will need.

The recursion is reached with an explicit first-triple chooser, which
takes neither the element memo nor the digital path.
"""

import json
import random
import sys
import threading
from math import comb
from pathlib import Path

import pytest

from sqft import disc, engine
from sqft._derived import SLIDE_BLOCK
from sqft.census import (
    catalan, disc_complex, enumerate_disc_sutures, matching_system,
    noncrossing_matchings, random_sutures,
)
from sqft.cli import _has_dominance_extremes
from sqft.disc import (
    bypass_relations, disc_element, fan_element, matching_mates,
)
from sqft.quad import diagonal_slide
from sqft.regions import euler_class, is_trivial
from sqft.routing import slide_sutures
from sqft.surface import relabel
from sqft.sutures import CurveSystem, basic_system, normalize
from sqft.tensor import Z2Tensor, gf2_rank, is_homogeneous, slide_map

from helpers import (
    boundary_hugging_system, rotate, rotation_peel_oracle, with_circle,
)

POOL_FILE = Path(__file__).resolve().parent.parent / "bench" / \
    "disc_chords_pool.json"


def _first(triples):
    return triples[0]


def _recursion(c, g):
    return engine.suture_element(c, g, chooser=_first)


def _census(lo=2, hi=7):
    for n in range(lo, hi + 1):
        for m in noncrossing_matchings(2 * n):
            yield n, m


def _pool():
    doc = json.loads(POOL_FILE.read_text())
    for n, matchings in sorted(doc["pool"].items(), key=lambda kv: int(kv[0])):
        for m in matchings:
            yield int(n), tuple(map(tuple, m))


def _random_matching(rng, n):
    """A seeded non-crossing matching of 2n points."""
    stack, chords = [], []
    for p in range(2 * n):
        opened = p - len(chords)        # points opened so far
        if stack and (opened >= n or rng.random() < 0.5):
            chords.append((stack.pop(), p))
        else:
            stack.append(p)
    return tuple(chords)


# ---------------------------------------------------------------------------
# the oracle: the bypass recursion


def test_census_and_pool_equal_the_recursion():
    engine.clear_cache()
    cases = list(_census()) + list(_pool())
    assert len(cases) == 624 + 70
    for n, m in cases:
        c = disc_complex(n)
        g = matching_system(n, m)
        want = _recursion(c, g)
        assert disc_element(n, m) == want
        assert engine.suture_element(c, g) == want
        # a basic system is peeled too
        assert fan_element(c, g) == want
        # the root peels the matching it carries; its fact-free twin is
        # read by the strand walk
        assert fan_element(c, CurveSystem(g.chords, g.loops)) == want


def test_relabelled_fans_with_churned_sutures():
    rng = random.Random(20261019)
    peeled = 0
    for i in range(200):
        n = rng.randint(3, 8)
        order = list(range(n - 1))
        rng.shuffle(order)
        c = relabel(disc_complex(n), dict(enumerate(order)))
        g = random_sutures(i, c, rounds=rng.randint(1, 4))
        want = _recursion(c, g)
        assert engine.suture_element(c, g) == want
        h = normalize(c, g)
        if not is_trivial(c, h):
            assert fan_element(c, h) == want
            peeled += 1
    assert peeled > 50


def test_zero_and_basic_fan_systems():
    # a closed curve parallel to the boundary, inside the arcs that cut off
    # the vertices of either sign: on n = 2 it is a loose loop
    for n in range(2, 8):
        c = disc_complex(n)
        for sign in (+1, -1):
            g = boundary_hugging_system(c, sign, {0: 1})
            assert engine.suture_element(c, g).is_zero()
            assert _recursion(c, g).is_zero()
    for n in range(3, 7):
        c = disc_complex(n)
        for m in list(noncrossing_matchings(2 * n))[:5]:
            g = matching_system(n, m)
            loose = CurveSystem(g.chords, (0,) * (n - 2) + (1,))
            assert engine.suture_element(c, loose).is_zero()
            assert _recursion(c, loose).is_zero()
            for edge in c.sorted_gluings():
                closed = with_circle(c, g, edge)
                assert engine.suture_element(c, closed).is_zero()
                assert _recursion(c, closed).is_zero()
        for bits in range(1 << (n - 1)):
            g = basic_system(c, bits)
            assert fan_element(c, g).words == {bits}
            assert engine.suture_element(c, g).words == {bits}
            assert _recursion(c, g).words == {bits}


def test_the_strand_walk_decides_openness():
    # a loose loop, or a chord on a closed strand that no walk from the
    # boundary takes: fan_element declines and leaves the system's `open`
    # fact unset, for is_trivial and the recursion. The systems as built
    # have closed strands across the gluings (but a loose loop on n = 2);
    # normalized, each closed strand is a loose loop
    declined = 0
    for n in range(2, 8):
        c = disc_complex(n)
        for sign in (+1, -1):
            g = boundary_hugging_system(c, sign, {0: 1})
            for h in (g, normalize(c, g)):
                assert fan_element(c, h) is None and h.facts.open is None
            declined += 1
    for n in range(3, 7):
        c = disc_complex(n)
        for m in list(noncrossing_matchings(2 * n))[:5]:
            g = matching_system(n, m)
            for edge in c.sorted_gluings():
                closed = with_circle(c, g, edge)
                assert not any(closed.loops)
                for h in (closed, normalize(c, closed)):
                    assert fan_element(c, h) is None and h.facts.open is None
                declined += 1
    assert declined == 12 + 5 * (1 + 2 + 3 + 4)
    # a fact-free twin of a census or pool root is walked, found open on
    # the complex it is walked on, and peeled
    for n, m in list(_census()) + list(_pool()):
        c = disc_complex(n)
        g = matching_system(n, m)
        twin = CurveSystem(g.chords, g.loops)
        assert twin.facts.open is None
        assert fan_element(c, twin) == disc_element(n, m)
        assert twin.facts.open is c


def test_rotation_has_order_n():
    for n, m in _census(3, 7):
        x = disc_element(n, m)
        assert rotate(x, n) == x
        assert rotate(rotate(x, 1), -1) == x
        shifted = tuple(((a + 2) % (2 * n), (b + 2) % (2 * n)) for a, b in m)
        assert rotate(x, 1) == disc_element(n, shifted)


def test_peel_equals_the_rotation_oracle():
    rng = random.Random(20261022)
    cases = list(_census(2, 9))
    cases += [(n, _random_matching(rng, n))
              for n in (rng.randint(20, 30) for _ in range(40))]
    assert len(cases) == 6916 + 40
    for n, m in cases:
        assert disc_element(n, m).words == \
            rotation_peel_oracle(matching_mates(n, m))


def _with_chord(n, small, p):
    """`small`, a matching of n - 1 chords, with the chord (p, p + 1) of
    2n points added and the other points renumbered around it, as the
    peel drops it."""
    size = 2 * n

    def up(s):
        if p == 0:
            return s if s >= 2 else s + size - 2
        if p == size - 1:
            return s or size - 2
        return s + 2 if s >= p else s
    return tuple((up(a), up(b)) for a, b in small) + ((p, (p + 1) % size),)


def test_each_creation_rule():
    # the peel takes only the first outermost chord not at 1, so each row
    # of the creation table is checked here on its own
    rng = random.Random(20261024)
    checked = 0
    for n in range(3, 31):
        for p in range(2 * n):
            if p == 1:
                continue
            small = _random_matching(rng, n - 1)
            if p in (0, 2 * n - 1):
                i, bit = 0, 1 - p % 2
            elif p == 2:
                i, bit = n - 2, 1
            elif p % 2:
                i, bit = n - 1 - (p - 1) // 2, 0
            else:
                i, bit = n - p // 2, 1
            low = (1 << i) - 1
            want = Z2Tensor(n - 1, frozenset(
                (w & low) | bit << i | (w >> i) << (i + 1)
                for w in disc_element(n - 1, small).words))
            if p % 2 == 0 and p >= 4:
                want = slide_map(want, i - 1, i, SLIDE_BLOCK["ccw"])
            assert disc_element(n, _with_chord(n, small, p)) == want, (n, p)
            checked += 1
    assert checked == sum(2 * n - 1 for n in range(3, 31))


def test_slide_map_takes_the_even_side_first():
    # after a diagonal slide at edge e in direction d, with the curves
    # carried along, the element is slide_map(x, p, q, SLIDE_BLOCK[d]),
    # where p is the square of e's even side and q that of its odd side,
    # whichever side sorted_gluings() lists first; the elements are the
    # recursion's, on random slide paths from the fan
    rng = random.Random(20261020)
    slides = odd_first = misread = 0
    for n in range(3, 7):
        systems = enumerate_disc_sutures(n)
        for _ in range(150):
            c = disc_complex(n)
            g = rng.choice(systems)
            x = _recursion(c, g)
            for _ in range(rng.randint(1, 4)):
                edge = rng.choice(c.sorted_gluings())
                d = rng.choice(("ccw", "cw"))
                slid, _ = diagonal_slide(c, edge, d)
                g = slide_sutures(c, g, edge, d)
                y = _recursion(slid, g)
                even, odd = edge if edge[0][1] % 2 == 0 else edge[::-1]
                assert y.words == slide_map(x, even[0], odd[0],
                                            SLIDE_BLOCK[d]).words
                if edge[0][1] % 2:
                    # listed odd side first: the listed order misreads
                    # most of these
                    odd_first += 1
                    misread += y.words != slide_map(
                        x, edge[0][0], edge[1][0], SLIDE_BLOCK[d]).words
                c, x = slid, y
                slides += 1
    assert slides > 1000 and odd_first > 20 and misread > 10


def test_disc_element_rejects_what_is_not_a_matching():
    assert disc_element(1, [(0, 1)]).words == {0}
    for n, m in ((2, [(0, 1)]), (2, [(0, 1), (1, 2)]), (2, [(0, 2), (1, 3)]),
                 (2, [(0, 1), (2, 4)]), (2, [(0, 0), (1, 2)]), (0, []),
                 (1, [(0, 1.0)]), (1, [(0, "1")])):
        with pytest.raises(ValueError):
            disc_element(n, m)
    with pytest.raises(ValueError, match="point '1' is not an int"):
        disc_element(1, [(0, "1")])


def test_deep_discs_peel_without_recursion():
    # 2000 chords, one level of the peel each
    n = 2000
    assert disc_element(n, [(2 * i, 2 * i + 1) for i in range(n)]).words == \
        {(1 << (n - 1)) - 1}
    assert disc_element(
        n, [(2 * i + 1, (2 * i + 2) % (2 * n)) for i in range(n)]).words == {0}


def test_clear_cache_empties_the_digital_memo():
    disc_element(4, [(0, 1), (2, 3), (4, 5), (6, 7)])
    matching_system(4, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert disc._MEMO
    assert disc._SQUARE_CHORDS
    engine.clear_cache()
    assert not disc._MEMO
    assert not disc._SQUARE_CHORDS


def test_memo_under_threads(monkeypatch):
    # eight threads share the memo, switching as often as the interpreter
    # allows; a small bound makes them empty it under one another too
    rng = random.Random(20261025)
    cases = [(n, _random_matching(rng, n))
             for n in (rng.randint(20, 30) for _ in range(24))]
    engine.clear_cache()
    want = [disc_element(n, m) for n, m in cases]
    engine.clear_cache()
    monkeypatch.setattr(disc, "MEMO_SIZE", 64)
    results: dict[int, list] = {}

    def work(k):
        order = list(range(len(cases)))
        random.Random(k).shuffle(order)
        got = [None] * len(cases)
        for j in order:
            got[j] = disc_element(*cases[j])
        results[k] = got

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(8))
    for got in results.values():
        assert got == want


# ---------------------------------------------------------------------------
# the bypass relation on matchings


def _relation_holds(n, terms):
    words = set()
    for m in terms:
        words ^= disc_element(n, m).words
    return not words


def test_bypass_relation_on_the_census():
    triples = 0
    for n, m in _census(3, 7):
        for terms in bypass_relations(n, m):
            assert tuple(sorted(m)) in (tuple(sorted(t)) for t in terms)
            assert _relation_holds(n, terms)
            triples += 1
    assert triples == 3825


def test_bypass_relation_on_random_matchings():
    rng = random.Random(20261020)
    checked = 0
    for _ in range(6):
        n = rng.randint(20, 30)
        relations = list(bypass_relations(n, _random_matching(rng, n)))
        for terms in rng.sample(relations, min(4, len(relations))):
            assert _relation_holds(n, terms)
            checked += 1
    assert checked >= 12


def test_bypass_relations_rejects_what_is_not_a_matching():
    for n, m in ((3, [(0, 3), (1, 4), (2, 5)]), (3, [(0, 1), (2, 3)]),
                 (3, [(0, 1), (2, 3), (4, 9)])):
        with pytest.raises(ValueError):
            list(bypass_relations(n, m))


def test_dominance_extremes_on_random_matchings():
    rng = random.Random(20261023)
    for _ in range(40):
        n = rng.randint(20, 30)
        x = disc_element(n, _random_matching(rng, n))
        assert _has_dominance_extremes(x.words, x.arity)


# ---------------------------------------------------------------------------
# the census past n = 7


def _matching_grade(n, matching):
    """e = #positive - #negative regions of a disc chord diagram, read off
    the matching: the boundary arc from point i to point i + 1 lies in a
    positive region exactly when i is even, and its region goes on, past
    point i + 1, along the arc that starts at the partner of i + 1."""
    mate = {}
    for a, b in matching:
        mate[a], mate[b] = b, a
    seen, e = set(), 0
    for start in range(2 * n):
        if start in seen:
            continue
        i = start
        while i not in seen:
            seen.add(i)
            i = mate[(i + 1) % (2 * n)]
        e += 1 if start % 2 == 0 else -1
    return e


@pytest.mark.parametrize("n", [8, 9])
def test_census_identities_past_seven(n):
    c = disc_complex(n)
    systems = enumerate_disc_sutures(n)
    assert len(set(systems)) == catalan(n)
    seen = set()
    by_grade: dict[int, list[int]] = {}
    for g, m in zip(systems, noncrossing_matchings(2 * n)):
        x = disc_element(n, m)
        assert x.words and x.words not in seen
        assert engine.suture_element(c, g) == x
        seen.add(x.words)
        e = euler_class(c, g)
        assert e == _matching_grade(n, m)
        assert is_homogeneous(x, e)
        assert _has_dominance_extremes(x.words, x.arity)
        by_grade.setdefault(e, []).append(sum(1 << w for w in x.words))
    assert len(seen) == catalan(n)
    for e, rows in by_grade.items():
        assert gf2_rank(rows) == comb(n - 1, (n - 1 + e) // 2)
