"""Acceptance criteria, one test per criterion, exact assertions throughout.

Each test prints a single pass line (visible with pytest -s or in the tee'd
run log); timing budgets are asserted where stated.
"""

import random
import time
from math import comb

import pytest

from sqft._derived import ROTATION_BLOCK, SLIDE_BLOCK
from sqft.census import (
    catalan, disc_complex, enumerate_disc_sutures, random_extension,
    random_surface,
)
from sqft.engine import (
    CreateSquare, Fold, MorphismScript, apply_script_to_sutures,
    compile_script, compiled_operator, naturality_holds, suture_element,
)
from sqft.quad import diagonal_slide
from sqft.regions import euler_class, is_trivial, regions
from sqft.routing import slide_sutures
from sqft.surface import SquareComplex, canonical_form, invariants
from sqft.sutures import (
    CurveSystem, basic_square_chords, basic_system, bypass_surgery,
    bypass_triples, validate_sutures,
)
from sqft.tensor import (
    Z2Tensor, apply_op, gf2_rank, is_homogeneous, slide_map,
)
from helpers import boundary_hugging_system, enumerate_basic

SEED = 20260810


def _report(num: int, label: str, t0: float) -> None:
    print(f"criterion {num:>2} PASS  {label}  ({time.time() - t0:.1f}s)")


def test_criterion_1_worked_disc(disc12, disc12_sutures):
    t0 = time.time()
    el = suture_element(disc12, disc12_sutures)
    assert el.word_strings() == ["01110"]          # 0,1,1,1,0 across factors
    script = MorphismScript.build(disc12, [Fold((1, 0), (0, 1))])
    lin, fact = compiled_operator(compile_script(script))
    assert len(fact.ops) == 1
    op = fact.ops[0]
    assert op.kind == "annihilate1" and op.factor == 0 and op.acted == (1, 2)
    out = lin(el)
    assert sorted(out.word_strings()) == ["0110", "1010"]
    target, image = apply_script_to_sutures(script, disc12_sutures)
    assert suture_element(target, image).words == out.words
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "12-vertex disc fold gives (10+01) x 1 x 0", t0)


def test_criterion_2_hexagon_rotation(hexagon):
    t0 = time.time()
    edge = ((0, 0), (1, 1))
    # the 120-degree rotation keeps curves and rotates the quadrangulation
    # the other way: transport each basic system across one cw slide
    slid, rec = diagonal_slide(hexagon, edge, "cw")
    assert slid == hexagon                        # same labels: endomorphism
    columns = {}
    for word in range(4):
        moved = slide_sutures(hexagon, basic_system(hexagon, word),
                              edge, "cw")
        columns[word] = suture_element(hexagon, moved).words
    assert columns[0b00] == frozenset({0b00})
    assert columns[0b11] == frozenset({0b11})
    # on (01, 10): alpha = beta = 1, i.e. [[0,1],[1,1]]
    assert columns[0b10] == frozenset({0b01})          # v-v+ -> v+v-
    assert columns[0b01] == frozenset({0b01, 0b10})

    def rotate(x: Z2Tensor) -> Z2Tensor:
        out = Z2Tensor.zero(2)
        for w in x.words:
            out = out + Z2Tensor(2, columns[w])
        return out

    for w in range(4):
        x = Z2Tensor.word(2, w)
        assert rotate(rotate(rotate(x))).words == x.words
    assert ROTATION_BLOCK == ((0, 1), (1, 1))
    _report(2, "rotation operator is [[0,1],[1,1]] on the e=0 block, cube=1", t0)


def test_criterion_3_bypass_relation(random_pairs):
    t0 = time.time()
    triples_seen = 0
    for c, g in random_pairs:
        el = suture_element(c, g)
        for edge, t in bypass_triples(c, g):
            up = suture_element(c, bypass_surgery(c, g, edge, t, "up"))
            down = suture_element(c, bypass_surgery(c, g, edge, t, "down"))
            assert (el + up + down).is_zero()
            triples_seen += 1
    elapsed = time.time() - t0
    assert triples_seen > 50
    assert elapsed < 60.0
    _report(3, f"bypass triples sum to zero ({len(random_pairs)} pairs, "
               f"{triples_seen} triples)", t0)


def test_criterion_4_reduction_order_independence(random_pairs):
    t0 = time.time()
    for i, (c, g) in enumerate(random_pairs[:100]):
        base = suture_element(c, g)
        for k in range(5):
            rng = random.Random(f"{SEED}:{i}:{k}")
            el = suture_element(c, g, chooser=lambda ts: rng.choice(ts))
            assert el.words == base.words
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, "element independent of triple-selection order (100x5)", t0)


def test_criterion_5_euler_identities(random_pairs):
    t0 = time.time()
    cases = []
    for n in range(2, 7):
        c = disc_complex(n)
        for s in enumerate_disc_sutures(n):
            cases.append((c, s))
    cases.extend(random_pairs)
    for c, g in cases:
        inv = invariants(c)
        dec = regions(c, g)
        e = dec.chi_plus - dec.chi_minus
        assert 2 * dec.chi_plus == inv.n + inv.chi + e
        assert 2 * dec.chi_minus == inv.n + inv.chi - e
        assert -inv.index <= e <= inv.index
        assert (e - inv.index) % 2 == 0
        el = suture_element(c, g)
        assert is_homogeneous(el, e)
    _report(5, f"euler identities on {len(cases)} systems", t0)


def test_criterion_6_disc_census():
    t0 = time.time()
    expected = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n in range(2, 7):
        c = disc_complex(n)
        systems = enumerate_disc_sutures(n)
        assert len(systems) == expected[n] == catalan(n)
        assert len(set(systems)) == catalan(n)
        basics = enumerate_basic(c)
        words = {suture_element(c, s).words for s in basics}
        assert words == {frozenset({w}) for w in range(1 << (n - 1))}
        by_grade: dict[int, list[int]] = {}
        for s in systems:
            el = suture_element(c, s)
            by_grade.setdefault(euler_class(c, s), []).append(
                sum(1 << w for w in el.words))
        for e, rows in by_grade.items():
            assert gf2_rank(rows) == comb(n - 1, (n - 1 + e) // 2)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(6, "catalan counts, basic basis, grade ranks (n <= 6)", t0)


def test_criterion_7_vanishing(square, annulus, punctured_torus):
    t0 = time.time()
    loop = CurveSystem.build(1, {0: basic_square_chords(True)}, {0: 1})
    assert suture_element(square, loop).is_zero()
    ann = boundary_hugging_system(annulus, +1, {0: 2})
    assert validate_sutures(annulus, ann).ok
    assert not is_trivial(annulus, ann)
    assert suture_element(annulus, ann).is_zero()
    pt = boundary_hugging_system(punctured_torus, +1, {0: 2})
    assert validate_sutures(punctured_torus, pt).ok
    assert not is_trivial(punctured_torus, pt)
    assert suture_element(punctured_torus, pt).is_zero()
    _report(7, "trivial and confining sutures have element zero", t0)


@pytest.fixture(scope="module")
def random_scripts():
    scripts = []
    for seed in range(50):
        scripts.append(random_surface(SEED + seed, 8))
    made = 0
    seed = 0
    while made < 50:
        seed += 1
        base = compile_script(random_surface(SEED + 7 * seed, 4)).target
        if not 1 <= base.square_count <= 4:
            continue
        scripts.append(random_extension(SEED + seed, base, 8))
        made += 1
    return scripts


def test_criterion_8_factorizations(random_scripts):
    t0 = time.time()
    assert len(random_scripts) == 100
    for script in random_scripts:
        compiled = compile_script(script)
        lin, fact = compiled_operator(compiled)
        # two evaluation routes: word-by-word operator application versus
        # the GF(2) matrix product of the individual operator matrices
        if lin.arity_in <= 10:
            mat_cols = _matrix_route(fact)
            assert mat_cols == lin.columns()
        for bits in range(1 << script.source.square_count):
            assert naturality_holds(script, bits)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(8, "factorizations evaluate correctly; naturality on 100 scripts",
            t0)


def _matrix_route(fact):
    dim_in = 1 << fact.arity_in
    cols = list(range(dim_in))          # identity, column w -> bitmask
    arity = fact.arity_in
    id_cols = [1 << w for w in range(dim_in)]
    cols = id_cols
    for op in fact.ops:
        op_cols = []
        for w in range(1 << op.arity_in):
            img = apply_op(op, Z2Tensor.word(op.arity_in, w))
            op_cols.append(sum(1 << v for v in img.words))
        new_cols = []
        for col in cols:
            acc = 0
            w = 0
            cc = col
            while cc:
                if cc & 1:
                    acc ^= op_cols[w]
                cc >>= 1
                w += 1
            new_cols.append(acc)
        cols = new_cols
    return cols


def test_criterion_9_index_accounting(random_scripts):
    t0 = time.time()
    deltas = {"CreateSquare": 1, "Glue": 0, "Fold": -1, "Zip": -2}
    counted = {"CreateSquare": 0, "Glue": 0, "Fold": 0, "Zip": 0}
    for script in random_scripts:
        compiled = compile_script(script)
        prev = script.source
        for step in compiled.steps:
            name = type(step.move).__name__
            di = invariants(step.complex_after).index - invariants(prev).index
            assert di == deltas[name], (script, step.move)
            counted[name] += 1
            prev = step.complex_after
    assert all(counted[k] > 0 for k in counted)
    _report(9, f"index deltas per move {counted}", t0)


def test_criterion_10_diagonal_slide():
    t0 = time.time()
    # slide cubes to the identity on every internal edge of the census discs
    for n in range(3, 7):
        c = disc_complex(n)
        for edge in c.sorted_gluings():
            cur, e = c, edge
            for _ in range(3):
                cur, rec = diagonal_slide(cur, e, "ccw")
                e = rec.added_edge
            assert canonical_form(cur)[0] == canonical_form(c)[0]

    # the derived direction blocks, recomputed live from the two-square disc
    hexa = SquareComplex.build(2, [((0, 0), (1, 1))])
    edge = ((0, 0), (1, 1))
    for direction, frozen in SLIDE_BLOCK.items():
        slid, _ = diagonal_slide(hexa, edge, direction)
        cols = []
        for word in (0b10, 0b01):        # basis (01, 10): bit0=sq0, bit1=sq1
            moved = slide_sutures(hexa, basic_system(hexa, word), edge,
                                  direction)
            el = suture_element(slid, moved)
            cols.append((1 if 0b10 in el.words else 0,
                         1 if 0b01 in el.words else 0))
        derived = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
        assert derived == frozen

    # census elements transform through the derived block
    checked = 0
    for n in range(3, 6):
        c = disc_complex(n)
        systems = enumerate_disc_sutures(n)
        for edge in c.sorted_gluings():
            (p_sq, _), (q_sq, _) = edge
            for direction in ("ccw", "cw"):
                slid, _ = diagonal_slide(c, edge, direction)
                for s in systems:
                    moved = slide_sutures(c, s, edge, direction)
                    assert validate_sutures(slid, moved).ok
                    lhs = suture_element(slid, moved)
                    rhs = slide_map(suture_element(c, s), p_sq, q_sq,
                                    SLIDE_BLOCK[direction])
                    assert lhs.words == rhs.words
                    checked += 1
    _report(10, f"slide cube = id; {checked} census elements conjugate "
                f"through the derived blocks", t0)
