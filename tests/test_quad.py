import itertools

import pytest

from sqft.quad import (
    collapse_steps, diagonal_slide, dual_graph, find_collapsible_square,
    make_collapse_record, collapse_slack_square, tighten,
)
from sqft.routing import slide_sutures
from sqft.surface import (
    SquareComplex, canonical_form, glue, invariants, validate_complex,
)
from sqft.sutures import basic_system


def folded_hexagon(hexagon):
    glued, kind = glue(hexagon, (0, 1), (1, 0))
    assert kind.kind == "fold"
    return glued


def test_find_collapsible_square_on_fold(hexagon):
    c = folded_hexagon(hexagon)
    (y,) = c.internal_vertices()
    sq, corner, target = find_collapsible_square(c, y)
    assert (sq, corner) == min(
        (s, k) for s, k in y.corners
        if not c.corner_class[(s, (k + 2) % 4)].internal
    )
    assert target.sign == y.sign


def test_find_collapsible_square_needs_internal(hexagon):
    boundary_vertex = hexagon.vertex_classes[0]
    with pytest.raises(ValueError):
        find_collapsible_square(hexagon, boundary_vertex)


def test_collapse_reduces_counts(hexagon):
    c = folded_hexagon(hexagon)
    (y,) = c.internal_vertices()
    sq, corner, _ = find_collapsible_square(c, y)
    rec = make_collapse_record(c, sq, corner)
    out = collapse_slack_square(c, rec)
    assert out.square_count == c.square_count - 1
    assert not out.internal_vertices()


def test_tighten_identity_on_bona_fide(punctured_torus):
    out, records = tighten(punctured_torus)
    assert records == []
    assert out.gluings == punctured_torus.gluings


def test_tighten_single_fold(hexagon):
    c = folded_hexagon(hexagon)
    out, records = tighten(c)
    assert len(records) == 1
    inv = invariants(out)
    assert (inv.index, inv.n, inv.chi) == (1, 2, 1)
    assert not out.internal_vertices()


def test_tighten_zip_two_records():
    c = SquareComplex.build(3, [((0, 0), (1, 1)), ((0, 2), (1, 3)),
                                ((0, 1), (2, 0))])
    glued, kind = glue(c, (0, 3), (1, 2))
    assert kind.kind == "zip"
    out, records = tighten(glued)
    assert len(records) == 2
    assert sorted(r.sign for r in records) == [-1, 1]
    assert invariants(out).index == 1


def test_collapse_steps_chain_to_tighten():
    c = SquareComplex.build(3, [((0, 0), (1, 1)), ((0, 2), (1, 3)),
                                ((0, 1), (2, 0))])
    glued, _ = glue(c, (0, 3), (1, 2))
    steps = list(collapse_steps(glued))
    assert steps[0][0] is glued
    for (_, _, after), (before, _, _) in zip(steps, steps[1:]):
        assert after is before
    out, records = tighten(glued)
    assert [rec for _, rec, _ in steps] == records
    assert steps[-1][2].gluings == out.gluings
    for before, rec, after in steps:
        assert collapse_slack_square(before, rec) == after


def test_tighten_preserves_surface(hexagon):
    c = folded_hexagon(hexagon)
    before = invariants(c)
    out, _ = tighten(c)
    after = invariants(out)
    assert (before.n, before.chi, before.boundary_components) == \
           (after.n, after.chi, after.boundary_components)


def test_slide_order_three(hexagon, punctured_torus):
    for c in (hexagon, punctured_torus):
        for edge in c.sorted_gluings():
            cur = c
            e = edge
            for _ in range(3):
                cur, rec = diagonal_slide(cur, e, "ccw")
                e = rec.added_edge
            assert canonical_form(cur)[0] == canonical_form(c)[0]
            assert cur == c


def test_slide_inverse(punctured_torus):
    for edge in punctured_torus.sorted_gluings():
        for d, back in (("ccw", "cw"), ("cw", "ccw")):
            mid, rec = diagonal_slide(punctured_torus, edge, d)
            out, _ = diagonal_slide(mid, rec.added_edge, back)
            assert out == punctured_torus


def test_slide_preserves_invariants(hexagon):
    out, _ = diagonal_slide(hexagon, ((0, 0), (1, 1)), "ccw")
    assert invariants(out) == invariants(hexagon)


def test_slide_rejects_slack_and_same_square(hexagon):
    slack = SquareComplex.build(1, [((0, 0), (0, 1))], slack=True)
    with pytest.raises(Exception):
        diagonal_slide(slack, ((0, 0), (0, 1)), "ccw")


def test_slide_of_sutures_rejects_an_edge_that_is_not_glued(hexagon):
    # sides (0, 1) and (1, 2) are both boundary sides of the hexagon
    edge = ((0, 1), (1, 2))
    g = basic_system(hexagon, 1)
    for slide in (lambda: diagonal_slide(hexagon, edge, "ccw"),
                  lambda: slide_sutures(hexagon, g, edge, "ccw")):
        with pytest.raises(ValueError, match="no internal edge"):
            slide()


def test_dual_graph_counts(square, hexagon, punctured_torus):
    for c, (v, e) in ((square, (1, 0)), (hexagon, (2, 1)),
                      (punctured_torus, (2, 3))):
        dg = dual_graph(c)
        assert (dg.vertex_count, dg.edge_count) == (v, e)
        assert all(dg.degree(i) <= 4 for i in range(dg.vertex_count))


def test_degenerate_collapse_lone_blister():
    # a square with two adjacent sides self-glued is a slack vacuum; it
    # tightens away entirely
    c = SquareComplex.build(1, [((0, 0), (0, 1))], slack=True)
    out, records = tighten(c)
    assert out.square_count == 0
    assert len(records) == 1 and records[0].n == 1


def test_degenerate_collapse_attached_blister(hexagon):
    # fold two consecutive boundary edges of one hexagon square onto each
    # other; the blister square collapses degenerately
    glued, kind = glue(hexagon, (1, 2), (1, 3))
    assert kind.kind == "fold"
    out, records = tighten(glued)
    assert len(records) == 1 and records[0].n == 1
    assert out.square_count == 1
    assert invariants(out).index == 1


def _small_slack_complexes():
    """Every valid slack complex of 1-3 squares with at most 4 gluings."""
    for n in range(1, 4):
        slots = [(s, k) for s in range(n) for k in range(4)]
        pairs = [(a, b) for a, b in itertools.combinations(slots, 2)
                 if (a[1] + b[1]) % 2 == 1]
        for m in range(5):
            for chosen in itertools.combinations(pairs, m):
                used = [slot for pair in chosen for slot in pair]
                if len(set(used)) == len(used):
                    c = SquareComplex.build(n, chosen, slack=True)
                    if validate_complex(c).ok:
                        yield c


def test_no_collapse_square_is_glued_to_its_own_opposite_side():
    # a candidate has its corner at an internal vertex and the opposite
    # corner on the boundary; a y-side glued to the opposite side of the
    # same square would make the two corners one vertex
    candidates = 0
    for c in _small_slack_complexes():
        cc = c.corner_class
        for sq in range(c.square_count):
            for k in range(4):
                if cc[(sq, k)].internal and not cc[(sq, (k + 2) % 4)].internal:
                    candidates += 1
                    assert c.partner((sq, (k - 1) % 4)) != (sq, (k + 2) % 4)
                    assert c.partner((sq, k)) != (sq, (k + 1) % 4)
    assert candidates == 13704
