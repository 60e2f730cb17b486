import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqft.tensor import (
    Z2Tensor, annihilate_op, apply_annihilate, apply_create, apply_op,
    compose, create_op, gf2_rank, grading, identity_map, is_homogeneous,
    slide_map,
)
from sqft._derived import SLIDE_BLOCK
from helpers import block_power, slide_map_oracle


def words(arity, max_terms=4):
    return st.frozensets(st.integers(0, (1 << arity) - 1), max_size=max_terms)


def test_create_examples():
    x = Z2Tensor.from_strings(1, "1")
    out = apply_create(create_op(0, 1), x)
    assert out.word_strings() == ["10"]
    assert apply_create(create_op(1, 0), Z2Tensor.scalar_one()).word_strings() == ["1"]
    assert apply_create(create_op(0, 3), Z2Tensor.zero(3)).is_zero()


def test_annihilate_flip_sum():
    # delete the first factor of 0011-pattern words, flipping elsewhere
    op = annihilate_op(1, 4, 0, (1, 2, 3))
    x = Z2Tensor.from_strings(4, "0011")
    out = apply_annihilate(op, x)
    assert sorted(out.word_strings()) == ["001", "010"]


def test_annihilate_all_zero_word():
    op = annihilate_op(1, 4, 0, (1, 2, 3))
    assert apply_annihilate(op, Z2Tensor.from_strings(4, "0000")).is_zero()


def test_annihilate_simple_branch():
    op = annihilate_op(1, 3, 0, (1, 2))
    out = apply_annihilate(op, Z2Tensor.from_strings(3, "110"))
    assert out.word_strings() == ["10"]


def test_annihilate_gradings():
    op = annihilate_op(1, 5, 2, (0, 1, 4))
    for w in range(32):
        out = apply_annihilate(op, Z2Tensor.word(5, w))
        g_in = grading(w, 5)
        for word in out.words:
            g_out = grading(word, 4)
            assert g_out.n1 == g_in.n1 - 1
            assert g_out.n0 == g_in.n0


def test_create_then_annihilate_identity():
    for n in range(0, 7):
        ops = [create_op(0, n), annihilate_op(0, n + 1, n, tuple(range(n)))]
        lin = compose(ops)
        assert lin.equals(identity_map(n))


def test_compose_empty_is_identity():
    lin = compose([])
    assert lin.equals(identity_map(0))


def test_create_then_wrong_annihilate_is_flip_sum():
    for n in range(1, 6):
        ops = [create_op(1, n), annihilate_op(0, n + 1, n, tuple(range(n)))]
        lin = compose(ops)
        for w in range(1 << n):
            out = lin(Z2Tensor.word(n, w))
            expect = set()
            for j in range(n):
                if not (w >> j) & 1:
                    expect.add(w | (1 << j))
            assert out.words == frozenset(expect)


@settings(max_examples=60)
@given(st.integers(2, 6), st.data())
def test_operators_linear(arity, data):
    x = Z2Tensor(arity, data.draw(words(arity)))
    y = Z2Tensor(arity, data.draw(words(arity)))
    rng = random.Random(arity)
    factor = rng.randrange(arity)
    acted = tuple(j for j in range(arity) if j != factor and rng.random() < 0.7)
    for op in (create_op(1, arity), annihilate_op(0, arity, factor, acted)):
        assert apply_op(op, x + y).words == (apply_op(op, x) + apply_op(op, y)).words


def test_grading_examples():
    g = grading(int("01101"[::-1], 2), 5)
    assert (g.n0, g.n1, g.e) == (2, 3, 1)
    assert is_homogeneous(Z2Tensor.from_strings(2, "10", "01"), 0)
    assert not is_homogeneous(Z2Tensor.from_strings(2, "11", "00"), 2)


def test_slide_blocks_order_three_and_inverse():
    a, b = SLIDE_BLOCK["ccw"], SLIDE_BLOCK["cw"]
    assert block_power(a, 3) == ((1, 0), (0, 1))
    assert block_power(b, 3) == ((1, 0), (0, 1))
    # mutual inverses
    x = Z2Tensor.from_strings(2, "01")
    y = slide_map(slide_map(x, 0, 1, a), 0, 1, b)
    assert y.words == x.words
    assert {a, b} == {((0, 1), (1, 1)), ((1, 1), (1, 0))}


def test_slide_map_fixes_equal_bits():
    for block in SLIDE_BLOCK.values():
        for w in ("00", "11"):
            x = Z2Tensor.from_strings(2, w)
            assert slide_map(x, 0, 1, block).words == x.words


def test_slide_map_cube_identity_on_words():
    for block in SLIDE_BLOCK.values():
        for n in range(2, 6):
            for w in range(1 << n):
                x = Z2Tensor.word(n, w)
                y = x
                for _ in range(3):
                    y = slide_map(y, 0, n - 1, block)
                assert y.words == x.words


@settings(max_examples=200, deadline=None)
@given(words(5, max_terms=16), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(sorted(SLIDE_BLOCK)))
def test_slide_map_equals_word_by_word_images(ws, i, j, direction):
    if i == j:
        return
    block = SLIDE_BLOCK[direction]
    got = slide_map(Z2Tensor(5, ws), i, j, block)
    assert got.words == slide_map_oracle(ws, i, j, block)


def test_matrix_cap():
    lin = identity_map(13)
    with pytest.raises(ValueError):
        lin.columns()


def test_gf2_rank():
    assert gf2_rank([0b110, 0b011, 0b101]) == 2
    assert gf2_rank([1, 2, 4, 7]) == 3
    assert gf2_rank([]) == 0
