"""Regenerate bench/disc_chords_pool.json, the diagram pool of disc_chords.

The pool holds, for each n in N_VALUES, POOL_SIZE uniformly random
non-crossing matchings of 2n points whose element has exactly WORDS basis
words. Fixing the word count fixes the bypass recursion's size (2*WORDS - 1
nodes on every diagram tried), so every seed's pass does about the same
work; without it the word count of a random diagram spans two orders of
magnitude and one seed's pass can take ten times another's.

    python3 bench/make_pool.py          # about ten minutes on one core
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sqft.census import disc_complex, matching_system  # noqa: E402
from sqft.engine import clear_cache, suture_element  # noqa: E402

N_VALUES = range(14, 21)
WORDS = 36
POOL_SIZE = 10
GENERATOR_SEED = 20261018


def random_matching(rng: random.Random, n: int) -> list[list[int]]:
    """A uniformly random non-crossing perfect matching of points 0..2n-1.

    Cycle lemma: of the rotations of a shuffled sequence of n up-steps and
    n+1 down-steps, exactly one stays non-negative until its last step;
    dropping that step leaves a uniform Dyck path, whose matched up/down
    steps are the chords.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    low, cut, height = 0, 0, 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    path = (steps[cut:] + steps[:cut])[:-1]
    open_points: list[int] = []
    chords = []
    for point, step in enumerate(path):
        if step == 1:
            open_points.append(point)
        else:
            chords.append([open_points.pop(), point])
    return sorted(chords)


def main() -> None:
    rng = random.Random(GENERATOR_SEED)
    pool: dict[str, list] = {}
    for n in N_VALUES:
        c = disc_complex(n)
        found: list = []
        tried = 0
        while len(found) < POOL_SIZE:
            matching = random_matching(rng, n)
            tried += 1
            if matching in found:
                continue
            clear_cache()
            g = matching_system(n, tuple(map(tuple, matching)))
            if len(suture_element(c, g).words) == WORDS:
                found.append(matching)
        print(f"n={n}: kept {POOL_SIZE} of {tried} random diagrams",
              file=sys.stderr)
        pool[str(n)] = found
    doc = {"words": WORDS, "generator_seed": GENERATOR_SEED, "pool": pool}
    (HERE / "disc_chords_pool.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
