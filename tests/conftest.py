import os
from pathlib import Path

import pytest

from sqft.census import random_surface, random_sutures
from sqft.engine import compile_script
from sqft.surface import SquareComplex
from sqft.sutures import CurveSystem

# the CLI tests run `python -m sqft` in subprocesses, which must import the
# same source tree as the tests (pyproject.toml puts it on the tests' path)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture
def square():
    return SquareComplex.build(1)


@pytest.fixture
def hexagon():
    return SquareComplex.build(2, [((0, 0), (1, 1))])


@pytest.fixture
def annulus():
    return SquareComplex.build(2, [((0, 0), (1, 1)), ((0, 2), (1, 3))])


@pytest.fixture
def punctured_torus():
    return SquareComplex.build(
        2, [((0, 3), (1, 2)), ((0, 0), (1, 3)), ((0, 1), (1, 0))]
    )


@pytest.fixture
def disc12():
    # disc with 12 boundary vertices: central square 2, flaps 0 (top),
    # 1 (left), 3 (right), 4 (bottom)
    return SquareComplex.build(5, [
        ((0, 2), (2, 3)), ((2, 2), (3, 3)), ((2, 1), (4, 2)), ((2, 0), (1, 3)),
    ])


@pytest.fixture
def disc12_sutures():
    # the worked example's curves: element 0,1,1,1,0 across squares 0..4
    return CurveSystem.build(5, {
        0: [((0, 0), (3, 0)), ((1, 0), (2, 0))],
        1: [((3, 0), (2, 0)), ((0, 0), (1, 0))],
        2: [((3, 0), (2, 0)), ((1, 0), (0, 0))],
        3: [((0, 0), (1, 0)), ((3, 0), (2, 0))],
        4: [((1, 0), (2, 0)), ((3, 0), (0, 0))],
    })


@pytest.fixture
def hexagon_superposition():
    # the nontrivial non-basic configuration on the hexagon, crossing the
    # internal edge three times; element is the sum of the two e=0 words
    return CurveSystem.build(2, {
        0: [((0, 0), (3, 0)), ((0, 1), (2, 0)), ((0, 2), (1, 0))],
        1: [((0, 0), (1, 0)), ((1, 1), (3, 0)), ((1, 2), (2, 0))],
    })


@pytest.fixture(scope="session")
def random_pairs():
    # the 200 seeded (complex, sutures) pairs of acceptance criteria 3-5;
    # generating them takes seconds, so every test module shares one list
    seed = 20260810
    pairs = []
    attempt = 0
    while len(pairs) < 200:
        script = random_surface(seed + attempt, 6)
        attempt += 1
        c = compile_script(script).target
        if c.square_count == 0:
            continue
        g = random_sutures(seed + attempt, c, rounds=4)
        pairs.append((c, g))
    return pairs
