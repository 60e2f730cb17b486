import pytest

from sqft.regions import euler_class, is_confining, is_trivial, regions
from sqft.surface import SquareComplex
from sqft.sutures import (
    CurveSystem, Diagram, basic_square_chords, basic_system, bypass_surgery,
    bypass_triples, finger_push, normalize, transport_glue, validate_sutures,
)
from disc_config import disc_externals, set_disc_config
from helpers import confining_oracle, transport_unglue

EDGE = ((0, 0), (1, 1))


def test_basic_squares_valid(square):
    for bits in (0, 1):
        g = basic_system(square, bits)
        assert validate_sutures(square, g).ok


def test_two_points_on_boundary_side_invalid(square):
    g = CurveSystem.build(1, {0: [((0, 0), (0, 1)), ((1, 0), (2, 0)),
                                  ((3, 0), (1, 1))]})
    report = validate_sutures(square, g)
    assert not report.ok


def test_crossing_chords_invalid(square):
    g = CurveSystem.build(1, {0: [((0, 0), (2, 0)), ((1, 0), (3, 0))]})
    report = validate_sutures(square, g)
    assert any("cross" in p for p in report.problems)


def test_even_edge_count_invalid(annulus):
    g = CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 1), (1, 0)), ((2, 0), (2, 1))],
        1: [((0, 0), (1, 0)), ((1, 1), (2, 0)), ((3, 0), (3, 1))],
    })
    report = validate_sutures(annulus, g)
    assert any("even" in p for p in report.problems)


def test_region_counts_basic(square):
    dec = regions(square, basic_system(square, 1))
    assert (dec.chi_plus, dec.chi_minus) == (2, 1)
    dec = regions(square, basic_system(square, 0))
    assert (dec.chi_plus, dec.chi_minus) == (1, 2)


def test_euler_class_basics(square):
    assert euler_class(square, basic_system(square, 1)) == +1
    assert euler_class(square, basic_system(square, 0)) == -1


def test_euler_additive_over_union(square):
    from sqft.surface import disjoint_union
    two = disjoint_union(square, square)
    g = basic_system(two, 0b01)
    assert euler_class(two, g) == 0


def test_loose_loop_trivial_and_confining(square):
    g = CurveSystem.build(1, {0: basic_square_chords(True)}, {0: 1})
    assert is_trivial(square, g)
    assert is_confining(square, g)
    dec = regions(square, g)
    assert any(not r.touches_boundary for r in dec.regions)


def test_basic_nonconfining(hexagon, punctured_torus):
    for c in (hexagon, punctured_torus):
        for bits in range(4):
            g = basic_system(c, bits)
            assert not is_confining(c, g)
            assert confining_oracle(c, g) == is_confining(c, g)


def test_normalize_idempotent(hexagon, hexagon_superposition):
    g = normalize(hexagon, hexagon_superposition)
    assert normalize(hexagon, g) == g


def test_normalize_removes_finger(hexagon):
    g = basic_system(hexagon, 0b10)
    poked = finger_push(hexagon, g, (0, 0), 1, (1, 0))
    assert poked.side_count((0, 0)) == 3
    assert normalize(hexagon, poked) == g


def test_normalize_closes_loops(hexagon):
    # facing bigons on both sides of the edge form a closed curve
    g = CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 1), (0, 2)), ((1, 0), (2, 0))],
        1: [((1, 0), (1, 1)), ((0, 0), (3, 0)), ((1, 2), (2, 0))],
    })
    assert validate_sutures(hexagon, g).ok
    norm = normalize(hexagon, g)
    assert norm.total_loops() == 1
    assert norm.side_count((0, 0)) == 1


def test_surgery_triple_preconditions(hexagon):
    g = basic_system(hexagon, 0b10)
    with pytest.raises(ValueError):
        bypass_surgery(hexagon, g, EDGE, 0, "up")


def test_surgery_preserves_euler(hexagon, hexagon_superposition):
    g = hexagon_superposition
    e = euler_class(hexagon, g)
    for d in ("up", "down"):
        out = bypass_surgery(hexagon, g, EDGE, 0, d)
        assert validate_sutures(hexagon, out).ok
        assert euler_class(hexagon, out) == e
        dec = regions(hexagon, out)
        before = regions(hexagon, g)
        assert (dec.chi_plus, dec.chi_minus) == (before.chi_plus, before.chi_minus)


def test_surgery_swap_setup(hexagon):
    # the adjacent-square sign swap: negative/positive basic sutures, both
    # free chords pushed across, surgery at the middle triple
    g = basic_system(hexagon, 0b10)
    poked = finger_push(hexagon, g, (0, 0), 1, (1, 0))
    poked = finger_push(hexagon, poked, (1, 1), 3, (2, 0))
    up = bypass_surgery(hexagon, poked, EDGE, 1, "up")
    down = bypass_surgery(hexagon, poked, EDGE, 1, "down")
    outs = {up, down}
    assert basic_system(hexagon, 0b01) in outs        # signs swapped
    others = outs - {basic_system(hexagon, 0b01)}
    (other,) = others
    assert other.side_count((0, 0)) == 3              # the superposition


def test_surgery_nontrivial_preserved(hexagon, hexagon_superposition):
    for d in ("up", "down"):
        out = bypass_surgery(hexagon, hexagon_superposition, EDGE, 0, d)
        assert not is_trivial(hexagon, out)


def test_disc_rotation_order_three(hexagon, hexagon_superposition):
    d = Diagram(hexagon_superposition)
    ext = disc_externals(d, EDGE, 0)
    orig = d.freeze()
    for k in (2, 0, 1):
        set_disc_config(d, EDGE, 0, ext, k)
    assert d.freeze() == orig


def test_disc_up_then_down_identity(hexagon, hexagon_superposition):
    d = Diagram(hexagon_superposition)
    ext = disc_externals(d, EDGE, 0)
    orig = d.freeze()
    set_disc_config(d, EDGE, 0, ext, 2)
    assert d.freeze() != orig
    set_disc_config(d, EDGE, 0, ext, 1)
    assert d.freeze() == orig


def test_bypass_triples_listing(hexagon, hexagon_superposition):
    assert bypass_triples(hexagon, basic_system(hexagon, 0)) == []
    assert bypass_triples(hexagon, hexagon_superposition) == [(EDGE, 0)]


def test_transport_glue_and_unglue(hexagon):
    from sqft.surface import glue, unglue
    two = SquareComplex.build(2)
    g = basic_system(two, 0b01)
    glued, kind = glue(two, (0, 0), (1, 1))
    carried = transport_glue(glued, g, (0, 0), (1, 1))
    assert validate_sutures(glued, carried).ok
    back = transport_unglue(glued, carried, ((0, 0), (1, 1)))
    assert back == g


def test_transport_unglue_needs_single_point(hexagon, hexagon_superposition):
    with pytest.raises(ValueError):
        transport_unglue(hexagon, hexagon_superposition, EDGE)
