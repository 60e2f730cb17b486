import random
from pathlib import Path

import pytest

from sqft import formats
from sqft.census import random_extension, random_surface
from sqft.engine import (
    CreateSquare, Fold, Glue, MorphismScript, ScriptError, Zip,
    annihilation_as_fold, apply_script_to_sutures, compile_script,
    compiled_operator, element_trace, fold_operator, morphism_operator,
    naturality_holds, suture_element,
)
from sqft.quad import tighten
from sqft.regions import euler_class
from sqft.surface import SquareComplex, glue
from sqft.sutures import CurveSystem, basic_square_chords, basic_system
from sqft.tensor import (
    ANNIHILATE0, ANNIHILATE1, Z2Tensor, annihilate_op, apply_op, compose,
    is_homogeneous,
)
from helpers import boundary_hugging_system

EDGE = ((0, 0), (1, 1))


def test_square_elements(square):
    assert suture_element(square, basic_system(square, 1)).word_strings() == ["1"]
    assert suture_element(square, basic_system(square, 0)).word_strings() == ["0"]


def test_loose_loop_vanishes(square):
    g = CurveSystem.build(1, {0: basic_square_chords(True)}, {0: 1})
    assert suture_element(square, g).is_zero()


def test_hexagon_superposition_element(hexagon, hexagon_superposition):
    el = suture_element(hexagon, hexagon_superposition)
    assert sorted(el.word_strings()) == ["01", "10"]


def test_confining_annulus_vanishes(annulus):
    g = boundary_hugging_system(annulus, +1, {0: 2})
    assert suture_element(annulus, g).is_zero()


def test_confining_punctured_torus_vanishes(punctured_torus):
    g = boundary_hugging_system(punctured_torus, +1, {0: 2})
    assert suture_element(punctured_torus, g).is_zero()


def test_element_homogeneous(hexagon, hexagon_superposition):
    el = suture_element(hexagon, hexagon_superposition)
    assert is_homogeneous(el, euler_class(hexagon, hexagon_superposition))


def test_element_on_slack_complex(hexagon):
    # fold then compute directly on the slack presentation: the collapse
    # formula route must match pushing the curves through the script
    script = MorphismScript.build(hexagon, [Fold((0, 1), (1, 0))])
    g = basic_system(hexagon, 0b01)
    slack, _ = glue(hexagon, (0, 1), (1, 0))
    el_slack = suture_element(slack, g)
    lin, _ = morphism_operator(script)
    assert el_slack.words == lin(suture_element(hexagon, g)).words


def test_fold_operator_wedge_dedup():
    rec_like = None
    c = SquareComplex.build(5, [
        ((0, 2), (2, 3)), ((2, 2), (3, 3)), ((2, 1), (4, 2)), ((2, 0), (1, 3)),
    ])
    glued, _ = glue(c, (1, 0), (0, 1))
    _, records = tighten(glued)
    op = fold_operator(records[0], 5)
    assert op.kind == ANNIHILATE1 and op.factor == 0 and op.acted == (1, 2)


def test_worked_disc_fold(disc12, disc12_sutures):
    el = suture_element(disc12, disc12_sutures)
    assert el.word_strings() == ["01110"]
    script = MorphismScript.build(disc12, [Fold((1, 0), (0, 1))])
    lin, fact = morphism_operator(script)
    out = lin(el)
    assert sorted(out.word_strings()) == ["0110", "1010"]
    target, g2 = apply_script_to_sutures(script, disc12_sutures)
    assert suture_element(target, g2).words == out.words


def test_script_move_classification_enforced(hexagon):
    with pytest.raises(ScriptError):
        compile_script(MorphismScript.build(hexagon, [Glue((0, 1), (1, 0))]))
    with pytest.raises(ScriptError):
        compile_script(MorphismScript.build(hexagon, [Fold((0, 2), (1, 3))]))


def test_create_script_operator(square):
    script = MorphismScript.build(square, [CreateSquare(+1)])
    lin, fact = morphism_operator(script)
    assert [op.kind for op in fact.ops] == ["create1"]
    out = lin(Z2Tensor.from_strings(1, "0"))
    assert out.word_strings() == ["01"]


def test_standard_gluing_identity():
    two = SquareComplex.build(2)
    script = MorphismScript.build(two, [Glue((0, 0), (1, 1))])
    lin, fact = morphism_operator(script)
    assert fact.ops == ()
    for bits in range(4):
        assert lin(Z2Tensor.word(2, bits)).words == frozenset({bits})


def test_factorization_arity_path(disc12):
    script = MorphismScript.build(disc12, [Fold((1, 0), (0, 1)),
                                           CreateSquare(-1)])
    _, fact = morphism_operator(script)
    assert fact.arity_path() == [5, 4, 5]


def test_zip_script_two_annihilations():
    c = SquareComplex.build(3, [((0, 0), (1, 1)), ((0, 2), (1, 3)),
                                ((0, 1), (2, 0))])
    script = MorphismScript.build(c, [Zip((0, 3), (1, 2))])
    lin, fact = morphism_operator(script)
    kinds = sorted(op.kind for op in fact.ops)
    assert kinds == [ANNIHILATE0, ANNIHILATE1]
    for bits in range(8):
        assert naturality_holds(script, bits)


def test_annihilation_as_fold_negative(square):
    # attach a negative square over three edges of a lone square: the
    # operator must be the one-factor 1-annihilation
    script = annihilation_as_fold(square, (0, 0), (0, 1), (0, 2), -1)
    lin, fact = morphism_operator(script)
    assert (lin.arity_in, lin.arity_out) == (1, 0)
    direct = compose([annihilate_op(1, 1, 0, ())])
    assert lin.columns() == direct.columns()


def test_annihilation_as_fold_positive(square):
    script = annihilation_as_fold(square, (0, 0), (0, 1), (0, 2), +1)
    lin, _ = morphism_operator(script)
    direct = compose([annihilate_op(0, 1, 0, ())])
    assert lin.columns() == direct.columns()


def test_annihilation_undoes_creation(square):
    # create a square next to the базе and annihilate it with the opposite
    # sign: identity on the original factor
    base = square
    script_moves = annihilation_as_fold(
        SquareComplex.build(2), (1, 0), (1, 1), (1, 2), -1).moves
    script = MorphismScript.build(base, (CreateSquare(+1),) + script_moves)
    lin, _ = morphism_operator(script)
    assert (lin.arity_in, lin.arity_out) == (1, 1)
    for w in range(2):
        expect = apply_op(annihilate_op(1, 2, 1, (0,)),
                          apply_op(__import__("sqft.tensor", fromlist=["create_op"]).create_op(1, 1),
                                   Z2Tensor.word(1, w)))
        assert lin(Z2Tensor.word(1, w)).words == expect.words


def test_annihilation_as_fold_rejects_nonconsecutive(hexagon):
    with pytest.raises(ValueError):
        annihilation_as_fold(hexagon, (0, 1), (0, 3), (1, 2), +1)


def test_annihilation_as_fold_refuses_a_two_edge_cycle():
    # on a boundary cycle of two edges the third edge along it is the
    # first, so the edges are consecutive but not three distinct edges;
    # the moves built from them would fail inside the compile
    calls = 0
    for seed in range(300):
        c = compile_script(random_surface(seed, 4)).target
        for cycle in c.boundary_cycles:
            if len(cycle) != 2:
                continue
            for e1, e2 in (cycle, cycle[::-1]):
                for sign in (1, -1):
                    with pytest.raises(ValueError,
                                       match="three distinct boundary edges"):
                        annihilation_as_fold(c, e1, e2, e1, sign)
                    calls += 1
    assert calls > 700, calls


def test_reduction_order_independence(hexagon, hexagon_superposition):
    base = suture_element(hexagon, hexagon_superposition)
    for s in range(5):
        rng = random.Random(s)
        el = suture_element(hexagon, hexagon_superposition,
                            chooser=lambda t: rng.choice(t))
        assert el.words == base.words


def test_element_trace_lines(disc12, disc12_sutures):
    el, lines = element_trace(disc12, disc12_sutures)
    assert el.word_strings() == ["01110"]
    assert any("basic" in line for line in lines)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the recursion tree and collapse lines of `sqft element --trace`, pinned so
# that where the recursion normalizes and tests triviality stays invisible
TRACE_GOLDEN = {
    ("disc12", "disc12", None): ["basic 01110"],
    ("disc12", "disc12", "disc12_fold"): [
        "basic 01110",
        "collapse square 0: annihilate1 factor 0 acting on (1, 2)",
    ],
    ("hexagon", "hexagon_superposition", None): [
        "surgery at edge (0, 0)-(1, 1), triple 0",
        "  basic 01",
        "  basic 10",
    ],
}


@pytest.mark.parametrize("surface,sutures,fold", TRACE_GOLDEN)
def test_element_trace_golden(surface, sutures, fold):
    c = formats.parse_surface(
        (FIXTURES / f"{surface}.surface.json").read_text())
    g = formats.parse_sutures(
        (FIXTURES / f"{sutures}.sutures.json").read_text(), c.square_count)
    if fold is not None:
        # the fold's slack presentation, before its collapse
        (move,) = formats.parse_script(
            (FIXTURES / f"{fold}.script.json").read_text()).moves
        c, _ = glue(c, move.a, move.b)
    assert element_trace(c, g)[1] == TRACE_GOLDEN[surface, sutures, fold]


def test_element_trace_trivial_root(square):
    g = CurveSystem.build(1, {0: basic_square_chords(True)}, {0: 1})
    el, lines = element_trace(square, g)
    assert el.is_zero() and lines == ["trivial -> 0"]


def test_element_trace_ignores_memo(hexagon, hexagon_superposition):
    cold = element_trace(hexagon, hexagon_superposition)[1]
    suture_element(hexagon, hexagon_superposition)      # fills the memo
    assert element_trace(hexagon, hexagon_superposition)[1] == cold
    assert len(cold) == 3


def test_naturality_small_scripts():
    for seed in range(10):
        script = random_surface(seed, 5)
        assert naturality_holds(script, 0)


def test_degenerate_fold_naturality(hexagon):
    # folding a square's own adjacent edges exercises the degenerate
    # collapse transport (mixed boundary/glued far sides)
    script = MorphismScript.build(hexagon, [Fold((1, 2), (1, 3))])
    for bits in range(4):
        assert naturality_holds(script, bits)


def test_create_negative_tensors_zero(square):
    script = MorphismScript.build(square, [CreateSquare(-1)])
    lin, _ = morphism_operator(script)
    for w in (0, 1):
        out = lin(Z2Tensor.word(1, w))
        assert out.words == frozenset({w})      # new factor carries bit 0
    target, g2 = apply_script_to_sutures(script, basic_system(square, 1))
    assert suture_element(target, g2).word_strings() == ["10"]


def test_degenerate_collapse_with_two_doubled_strands():
    # on word 4 the script's second degenerate collapse (the square's two
    # y-sides glued to each other) meets two strands that double back on the
    # same side; reading the second one's outer crossings after the first
    # had dropped its own used to raise IndexError on words 4, 5 and 6
    s = 1023842361
    base = compile_script(random_surface(s, 4)).target
    script = random_extension(s, base, 8)
    assert base.square_count == 4
    for bits in range(16):
        assert naturality_holds(script, bits)


@pytest.mark.parametrize("signs,fold", [
    ((+1, +1), Fold((0, 0), (0, 1))),
    ((-1, +1), Fold((0, 1), (0, 2))),
    ((+1, +1), Fold((1, 0), (1, 1))),
])
def test_vacuum_collapse_of_square_0_keeps_its_closed_curve(signs, fold):
    # folding two adjacent sides of one square of two lone squares makes a
    # slack vacuum that collapses away; its closed curve must stay on the
    # other square. When the folded square was square 0 the curve was put
    # on square 0 itself and dropped with it, so the image element was 1
    empty = SquareComplex.build(0)
    script = MorphismScript.build(
        empty, [CreateSquare(s) for s in signs] + [fold])
    target, image = apply_script_to_sutures(script, basic_system(empty, 0))
    assert image.loops == (1,)
    assert suture_element(target, image).word_strings() == []
    assert naturality_holds(script, 0)
