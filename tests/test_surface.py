import pytest

from sqft.surface import (
    SquareComplex, boundary_structure, canonical_form, glue, invariants,
    unglue, validate_complex,
)
from helpers import disjoint_union


def test_single_square_invariants(square):
    inv = invariants(square)
    assert (inv.n, inv.chi, inv.index, inv.gluing_number) == (2, 1, 1, 0)
    assert inv.boundary_components == 1


def test_hexagon_invariants(hexagon):
    inv = invariants(hexagon)
    assert (inv.n, inv.chi, inv.index, inv.gluing_number) == (3, 1, 2, 1)


def test_punctured_torus_invariants(punctured_torus):
    inv = invariants(punctured_torus)
    assert (inv.n, inv.chi, inv.index, inv.gluing_number) == (1, -1, 2, 3)
    assert inv.boundary_components == 1 and inv.genus == 1
    cycles = boundary_structure(punctured_torus)
    assert len(cycles) == 1 and len(cycles[0]) == 2


def test_same_parity_gluing_rejected():
    c = SquareComplex.build(2, [((0, 0), (1, 0))])
    report = validate_complex(c)
    assert not report.ok
    assert any("parity" in p for p in report.problems)


def test_self_gluing_needs_slack():
    data = [((0, 0), (0, 1))]
    assert not validate_complex(SquareComplex.build(1, data)).ok
    assert validate_complex(SquareComplex.build(1, data, slack=True)).ok


def test_doubly_glued_side_rejected():
    c = SquareComplex.build(3, [((0, 0), (1, 1)), ((0, 0), (2, 1))])
    report = validate_complex(c)
    assert any("more than once" in p for p in report.problems)


def test_boundary_cycle_single_square(square):
    (cycle,) = boundary_structure(square)
    assert [e.slot for e in cycle] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert [e.outgoing for e in cycle] == [True, False, True, False]
    for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert cur.end == nxt.start


def test_boundary_cycles_hexagon_and_annulus(hexagon, annulus):
    (cycle,) = boundary_structure(hexagon)
    assert len(cycle) == 6
    cycles = boundary_structure(annulus)
    assert sorted(len(cy) for cy in cycles) == [2, 2]


def test_unglue_reglue_roundtrip(hexagon, punctured_torus):
    for c in (hexagon, punctured_torus):
        before = invariants(c)
        for a, b in c.sorted_gluings():
            cut = unglue(c, a, b)
            after = invariants(cut)
            assert after.index == before.index
            assert after.gluing_number == before.gluing_number - 1
            reglued, kind = glue(cut, a, b)
            assert reglued.gluings == c.gluings


def test_unglue_unknown_edge(square):
    with pytest.raises(ValueError):
        unglue(square, (0, 0), (0, 1))


def test_glue_classification_standard():
    two = SquareComplex.build(2)
    glued, kind = glue(two, (0, 0), (1, 1))
    assert kind.kind == "standard"
    assert invariants(glued).index == 2


def test_glue_classification_fold(hexagon):
    # the two boundary edges sharing the positive vertex at the glued corner
    glued, kind = glue(hexagon, (0, 1), (1, 0))
    assert kind.kind == "fold"
    assert kind.sign == +1
    assert glued.slack
    assert invariants(glued).index == 1


def test_glue_classification_zip_needs_second_boundary(annulus):
    with pytest.raises(ValueError):
        glue(annulus, (0, 3), (1, 2))   # would close off into a vacuum


def test_zip_on_three_square_surface(annulus):
    c = SquareComplex.build(3, [((0, 0), (1, 1)), ((0, 2), (1, 3)),
                                ((0, 1), (2, 0))])
    before = invariants(c)
    assert before.boundary_components == 2
    glued, kind = glue(c, (0, 3), (1, 2))
    assert kind.kind == "zip"
    assert len(kind.swallowed) == 2
    assert {v.sign for v in kind.swallowed} == {+1, -1}
    assert invariants(glued).index == before.index - 2


def test_additivity_under_disjoint_union(hexagon, punctured_torus):
    both = disjoint_union(hexagon, punctured_torus)
    a, b, c = invariants(hexagon), invariants(punctured_torus), invariants(both)
    assert c.index == a.index + b.index
    assert c.gluing_number == a.gluing_number + b.gluing_number
    assert c.components == 2


def test_every_gluing_pairs_even_with_odd(hexagon, punctured_torus, annulus):
    for c in (hexagon, punctured_torus, annulus):
        for a, b in c.gluings:
            assert (a[1] + b[1]) % 2 == 1


def test_canonical_form_stable_under_identity(punctured_torus):
    canon, perm = canonical_form(punctured_torus)
    assert canon == punctured_torus
    assert perm == {0: 0, 1: 1}
