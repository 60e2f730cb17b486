"""The three benchmark workloads: seeded inputs, the timed operation and
the checks on its outputs.

Operations call sqft through module attributes (`engine.suture_element`,
not a name imported from it), so that the traced run's rebinding of those
attributes sees the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import import_module
from math import comb
from pathlib import Path
from typing import Any, Optional

import oracles

# `from sqft import regions` yields the function regions.regions, which
# shadows the module, so the modules are imported by their full names
census = import_module("sqft.census")
engine = import_module("sqft.engine")
formats = import_module("sqft.formats")
regions = import_module("sqft.regions")
sutures = import_module("sqft.sutures")

HERE = Path(__file__).resolve().parent


class Workload:
    name: str
    # operations run once per set-up before timing starts
    warm_ops: int
    # inputs the last call of inputs() drew and left out, see
    # hits_collapse_fault
    left_out = 0

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def op(self, item) -> Any:
        raise NotImplementedError

    def check(self, item, out) -> Optional[str]:
        """The problem with one operation's output, or None."""
        raise NotImplementedError

    def fingerprint(self, out) -> Any:
        """What a later pass over the same input must reproduce exactly."""
        raise NotImplementedError

    def run_checks(self, seed: int, items: list, prints: list) -> list[str]:
        """Checks on the whole run, made once after the timed passes, given
        the first pass's fingerprints (None where an op failed)."""
        return []


# ---------------------------------------------------------------------------
# disc_chords: elements of large disc chord diagrams


@dataclass(frozen=True)
class ChordItem:
    n: int
    matching: oracles.Matching
    surface: str
    sutures: str


class DiscChords(Workload):
    """One op: parse a disc and a chord diagram, then compute its element
    from a cleared memo."""

    name = "disc_chords"
    warm_ops = 1
    PER_N = 2            # diagrams drawn from the pool for each n per pass
    CHOOSER_SAMPLE = 2   # diagrams recomputed with a random triple order

    def __init__(self) -> None:
        doc = json.loads((HERE / "disc_chords_pool.json").read_text())
        self.pool = {int(n): [tuple(map(tuple, m)) for m in ms]
                     for n, ms in doc["pool"].items()}

    def inputs(self, seed: int) -> list[ChordItem]:
        rng = random.Random(f"disc_chords:{seed}")
        items = []
        for n in sorted(self.pool):
            surface = formats.emit_surface(census.disc_complex(n))
            for m in rng.sample(self.pool[n], self.PER_N):
                g = census.matching_system(n, m)
                items.append(ChordItem(n, m, surface, formats.emit_sutures(g)))
        rng.shuffle(items)
        return items

    def op(self, item: ChordItem):
        c = formats.parse_surface(item.surface)
        g = formats.parse_sutures(item.sutures, c.square_count)
        engine.clear_cache()
        return engine.suture_element(c, g)

    def check(self, item: ChordItem, el) -> Optional[str]:
        if el.arity != item.n - 1:
            return f"arity {el.arity}, want {item.n - 1}"
        if not el.words:
            return "element is zero"
        e = oracles.region_euler(item.n, item.matching)
        if any(oracles.grade(w, el.arity) != e for w in el.words):
            return f"element is not homogeneous in Euler grade {e}"
        return None

    def fingerprint(self, el):
        return el.arity, el.words

    def run_checks(self, seed: int, items: list, prints: list) -> list[str]:
        rng = random.Random(f"disc_chords-chooser:{seed}")
        problems = []
        for i in sorted(rng.sample(range(len(items)), self.CHOOSER_SAMPLE)):
            item = items[i]
            c = formats.parse_surface(item.surface)
            g = formats.parse_sutures(item.sutures, c.square_count)
            el = engine.suture_element(c, g,
                                       chooser=lambda ts: rng.choice(ts))
            if prints[i] is not None and (el.arity, el.words) != prints[i]:
                problems.append(f"diagram {item.matching}: a random triple "
                                "order gives another element")
        return problems


# ---------------------------------------------------------------------------
# disc_census: the full n = 7 census, elements and Euler classes


@dataclass(frozen=True)
class CensusItem:
    n: int
    order: tuple[int, ...]   # the order in which the classes are computed


class DiscCensus(Workload):
    """One op: enumerate the disc census from a cleared memo, then compute
    every class's element and Euler class in a seeded order."""

    name = "disc_census"
    warm_ops = 1
    N = 7

    def inputs(self, seed: int) -> list[CensusItem]:
        order = list(range(oracles.catalan(self.N)))
        random.Random(f"disc_census:{seed}").shuffle(order)
        return [CensusItem(self.N, tuple(order))]

    def op(self, item: CensusItem):
        engine.clear_cache()
        c = census.disc_complex(item.n)
        systems = census.enumerate_disc_sutures(item.n)
        out: list = [None] * len(systems)
        for i in item.order:
            s = systems[i]
            out[i] = (engine.suture_element(c, s).words,
                      regions.euler_class(c, s))
        return tuple(out)

    def check(self, item: CensusItem, out) -> Optional[str]:
        n = item.n
        if len(out) != oracles.catalan(n):
            return f"{len(out)} classes, Catalan recursion gives " \
                   f"{oracles.catalan(n)}"
        words = [w for w, _ in out]
        if not all(words):
            return "a class has element zero"
        if len(set(words)) != len(words):
            return "two classes share an element"
        by_grade: dict[int, list[int]] = {}
        for w, e in out:
            if any(oracles.grade(x, n - 1) != e for x in w):
                return f"an element is not homogeneous in its class {e}"
            by_grade.setdefault(e, []).append(sum(1 << x for x in w))
        counts = {e: len(rows) for e, rows in by_grade.items()}
        if counts != dict(oracles.census_grades(n)):
            return f"classes per Euler grade {counts}, region count gives " \
                   f"{dict(oracles.census_grades(n))}"
        for e, rows in by_grade.items():
            want = comb(n - 1, (n - 1 + e) // 2)
            if oracles.gf2_rank(rows) != want:
                return f"grade {e} has rank {oracles.gf2_rank(rows)}, " \
                       f"want {want}"
        return None

    def fingerprint(self, out):
        return out


# ---------------------------------------------------------------------------
# script_naturality: the write side, scripts pushed through operators


@dataclass(frozen=True)
class ScriptItem:
    script: str
    sutures: str
    source_squares: int


@dataclass(frozen=True)
class ScriptOut:
    compiled: Any
    linear: Any
    fact: Any
    target: Any
    target_el: Any
    pushed: Any
    image: str


INDEX_DELTA = {"CreateSquare": 1, "Glue": 0, "Fold": -1, "Zip": -2}


def hits_collapse_fault(script, g) -> bool:
    """Whether pushing g through script raises IndexError in
    routing._collapse_degenerate.

    That fault hits about one (extension script, basis word) pair in a few
    thousand, depending on the word as well as the script, so it would fail
    an op on some seeds only. Any other outcome, another exception included, keeps
    the pair, so that other faults show as failed ops.
    """
    try:
        engine.apply_script_to_sutures(script, g)
    except IndexError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return tb.tb_frame.f_code.co_name == "_collapse_degenerate"
    except Exception:
        return False
    return False


class ScriptNaturality(Workload):
    """One op: parse a script and basic sutures, compile the script, build
    its operator factorization, push the sutures through, compute the
    element at both ends and emit the image sutures."""

    name = "script_naturality"
    warm_ops = 8
    PER_FAMILY = 80
    # The extension scripts are the same on every seed: their cost varies
    # by tens of times from script to script, so a seeded draw of 80 of
    # them varied a pass's work by about 6% between seeds.
    SCRIPT_SEED = 20261018
    BASE_SQUARES = 4         # random_surface size of extension sources
    EXTENSION_SQUARES = 8    # random_extension max_squares
    DISC_N = (3, 8)          # annihilations on discs of 2..7 squares
    MATRIX_ARITY = 10        # largest source checked column by column
    MAX_LEFT_OUT = 8         # past this, extensions hitting the fault stay

    def extension_scripts(self) -> list:
        rng = random.Random(f"script_naturality-scripts:{self.SCRIPT_SEED}")
        scripts = []
        while len(scripts) < self.PER_FAMILY:
            s = rng.randrange(1 << 30)
            base = engine.compile_script(
                census.random_surface(s, self.BASE_SQUARES)).target
            if 1 <= base.square_count <= self.BASE_SQUARES:
                scripts.append(census.random_extension(
                    s, base, self.EXTENSION_SQUARES))
        return scripts

    def inputs(self, seed: int) -> list[ScriptItem]:
        rng = random.Random(f"script_naturality:{seed}")
        self.left_out = 0

        def with_word(script):
            k = script.source.square_count
            return script, sutures.basic_system(script.source,
                                                rng.getrandbits(k))

        extensions = []
        for script in self.extension_scripts():
            pair = with_word(script)
            while self.left_out < self.MAX_LEFT_OUT and \
                    hits_collapse_fault(*pair):
                self.left_out += 1
                pair = with_word(script)
            extensions.append(pair)
        # every annihilation pair these discs allow pushes through, so
        # annihilations are not screened; the disc sizes take turns, since
        # they set most of the cost
        lo, hi = self.DISC_N
        annihilations = []
        for j in range(self.PER_FAMILY):
            c = census.disc_complex(lo + j % (hi - lo + 1))
            cycle = c.boundary_cycles[0]
            i = rng.randrange(len(cycle))
            annihilations.append(with_word(engine.annihilation_as_fold(
                c, cycle[i], cycle[(i + 1) % len(cycle)],
                cycle[(i + 2) % len(cycle)], rng.choice((1, -1)))))
        return [ScriptItem(formats.emit_script(script),
                           formats.emit_sutures(g), script.source.square_count)
                for pairs in zip(extensions, annihilations)
                for script, g in pairs]

    def op(self, item: ScriptItem) -> ScriptOut:
        script = formats.parse_script(item.script)
        g = formats.parse_sutures(item.sutures, script.source.square_count)
        engine.clear_cache()
        compiled = engine.compile_script(script)
        linear, fact = engine.compiled_operator(compiled)
        target, image = engine.apply_script_to_sutures(script, g)
        source_el = engine.suture_element(script.source, g)
        target_el = engine.suture_element(target, image)
        return ScriptOut(compiled, linear, fact, target, target_el,
                         fact.evaluate(source_el), formats.emit_sutures(image))

    def check(self, item: ScriptItem, out: ScriptOut) -> Optional[str]:
        if (out.pushed.arity, out.pushed.words) != \
                (out.target_el.arity, out.target_el.words):
            return "operator image of the source element differs from " \
                   "the element of the transported sutures"
        fact = out.fact
        if fact.arity_out != out.target.square_count:
            return "factorization arity differs from the target's squares"
        if fact.arity_in <= self.MATRIX_ARITY and \
                out.linear.columns() != oracles.product_columns(
                    fact.ops, fact.arity_in):
            return "operator columns differ from the product of the " \
                   "single-operator matrices"
        prev = out.compiled.script.source
        for step in out.compiled.steps:
            cur = step.complex_after
            delta = (oracles.complex_index(cur.square_count, cur.gluings)
                     - oracles.complex_index(prev.square_count, prev.gluings))
            want = INDEX_DELTA[type(step.move).__name__]
            if delta != want:
                return f"{step.move} changed the index by {delta}, not {want}"
            prev = cur
        k, t = item.source_squares, out.target.square_count
        for text, again in (
                (item.script,
                 formats.emit_script(formats.parse_script(item.script))),
                (item.sutures,
                 formats.emit_sutures(formats.parse_sutures(item.sutures, k))),
                (out.image,
                 formats.emit_sutures(formats.parse_sutures(out.image, t)))):
            if text != again:
                return "a JSON document does not round-trip"
        return None

    def fingerprint(self, out: ScriptOut):
        return out.target_el.arity, out.target_el.words, out.pushed.words, \
            out.image


WORKLOADS = {w.name: w for w in (DiscChords, DiscCensus, ScriptNaturality)}
