"""Suture elements and the operator calculus of surface moves.

The element of a curve system is computed by the bypass relation: normalize,
return zero on trivial systems, otherwise resolve the first edge triple in
both directions and add the results over GF(2); when every edge meets the
curves once the system is basic and contributes a single basis word (bit 1
for a positively sutured square). On slack complexes the reduction runs on
the slack quadrangulation and the collapse operators finish the job.

A fan disc (`disc_complex(n)` up to a relabelling of its squares) is
evaluated digitally instead, with no curves, and before any triviality test:
a census root on the shared fan carries the matching it was built from, and
any other system's strands are read, in one walk from each boundary point,
as a non-crossing matching of the 2n boundary points. The walk counts the
chords it takes; when it takes them all the system has no closed component,
so it is nontrivial, and the matching is peeled an outermost chord at a
time (Mathews, arXiv:1006.3063, on the Honda-Kazez-Matic TQFT,
arXiv:0807.2431): the chord (p, p + 1) is dropped, the other points are
renumbered, and one bit is inserted at the factor that p names, then one
diagonal slide when p is even and at least 4 (the table is in `disc`). A
fan system with a loop, loose or closed, goes to the triviality test and
the recursion. A call with a chooser and `element_trace` always recurse,
as does every other complex, among them a fan whose squares are rotated as
well as relabelled (the two-square hexagon glued (0, 0)-(1, 1), for one):
recognising those is out of scope.

Every surface morphism is presented as a script of elementary moves. Each
move contributes an explicit operator: creations append a tensor factor,
standard gluings are the identity, folds contribute one general annihilation
acting on the squares around the swallowed vertex, zips contribute two.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .disc import clear_memo, fan_element
from .quad import CollapseRecord, collapse_steps, tighten
from .regions import is_trivial
from .routing import transport_collapse
from .surface import (
    GluingPair, Slot, SquareComplex, add_square, canonical_form, glue,
    tight_copy, validate_complex,
)
from .sutures import (
    CurveSystem, basic_bits, basic_square_chords, basic_system,
    bypass_surgery, bypass_triples, normalize, require_valid_pair,
    transport_glue,
)
from .tensor import (
    DigitalOp, LinearMap, Z2Tensor, annihilate_op, apply_annihilate, apply_op,
    create_op,
)

Chooser = Callable[[list[tuple[GluingPair, int]]], tuple[GluingPair, int]]

_CACHE: dict[tuple, frozenset[int]] = {}
_CACHE_LOCK = threading.Lock()
# the last script compiled, with its steps: one slot, read and replaced
# whole, so racing threads at worst compile a script again
_LAST_COMPILED: Optional[CompiledScript] = None


def clear_cache() -> None:
    """Empty the element memos and forget the last compiled script."""
    global _LAST_COMPILED
    with _CACHE_LOCK:
        _CACHE.clear()
    clear_memo()
    _LAST_COMPILED = None


def _cache_key(c: SquareComplex, g: CurveSystem):
    canon, perm = canonical_form(c)
    gp = g.permute_squares(perm)
    return ((canon.square_count, tuple(canon.sorted_gluings())),
            gp.chords, gp.loops), perm


def suture_element(c: SquareComplex, g: CurveSystem,
                   chooser: Optional[Chooser] = None) -> Z2Tensor:
    """The GF(2) tensor of a curve system; arity is the tightened square count.

    A non-default `chooser` picks which bypass triple to resolve first; the
    result is independent of the choice (tested, not assumed), but only the
    default deterministic order is memoized, and only it peels fan discs.
    """
    return _element(c, g, chooser, None)


def element_trace(c: SquareComplex, g: CurveSystem) -> tuple[Z2Tensor, list[str]]:
    """suture_element plus a printable tree of the bypass recursion."""
    lines: list[str] = []
    return _element(c, g, None, lines), lines


def _element(c: SquareComplex, g: CurveSystem, chooser: Optional[Chooser],
             lines: Optional[list[str]]) -> Z2Tensor:
    require_valid_pair(c, g)
    g = normalize(c, g)
    # a fan disc with no loop, loose or closed, is peeled: its arcs are
    # its matching, and `strands` finds no closed strand, so no
    # triviality test is made
    if chooser is None and lines is None and \
            (fan := fan_element(c, g)) is not None:
        elem = fan
    elif is_trivial(c, g):
        if lines is not None:
            lines.append("trivial -> 0")
        elem = Z2Tensor.zero(c.square_count)
    else:
        elem = _reduce(c, g, chooser, lines)
    if c.internal_vertices():
        arity = c.square_count
        for rec in tighten(c)[1]:
            op = fold_operator(rec, arity)
            if lines is not None:
                lines.append(f"collapse square {rec.square}: {op.kind} "
                             f"factor {op.factor} acting on {op.acted}")
            elem = apply_annihilate(op, elem)
            arity -= 1
    return elem


def _reduce(c: SquareComplex, g: CurveSystem, chooser: Optional[Chooser],
            lines: Optional[list[str]], depth: int = 0) -> Z2Tensor:
    # g is normalized and nontrivial: the caller has checked both. Only the
    # default order is memoized, and a trace skips the memo so that it
    # prints every subtree
    use_cache = chooser is None and lines is None
    if use_cache:
        key, perm = _cache_key(c, g)
        with _CACHE_LOCK:
            hit = _CACHE.get(key)
        if hit is not None:
            inv = {v: k for k, v in perm.items()}
            return Z2Tensor(c.square_count, hit).permute(
                [inv[i] for i in range(c.square_count)])
    result = _reduce_uncached(c, g, chooser, lines, depth)
    if use_cache:
        canon_words = result.permute(
            [perm[i] for i in range(c.square_count)]).words
        with _CACHE_LOCK:
            _CACHE[key] = canon_words
    return result


def _reduce_uncached(c: SquareComplex, g: CurveSystem,
                     chooser: Optional[Chooser], lines: Optional[list[str]],
                     depth: int) -> Z2Tensor:
    pad = "  " * depth
    triples = bypass_triples(c, g)
    if triples:
        edge, t = triples[0] if chooser is None else chooser(triples)
        if lines is not None:
            lines.append(f"{pad}surgery at edge {edge[0]}-{edge[1]}, "
                         f"triple {t}")
        up = normalize(c, bypass_surgery(c, g, edge, t, "up"))
        down = normalize(c, bypass_surgery(c, g, edge, t, "down"))
        # surgery at an edge-efficient disc keeps nontrivial sutures
        # nontrivial; a violation here would mean a broken rewiring
        if is_trivial(c, up) or is_trivial(c, down):
            raise AssertionError("efficient surgery produced trivial sutures")
        return (_reduce(c, up, chooser, lines, depth + 1)
                + _reduce(c, down, chooser, lines, depth + 1))
    bits = basic_bits(c, g)
    if bits is None:
        raise AssertionError("triple-free nontrivial system is not basic")
    word = Z2Tensor.word(c.square_count, bits)
    if lines is not None:
        lines.append(f"{pad}basic {word.word_strings()[0]}")
    return word


# ---------------------------------------------------------------------------
# collapse operators


def fold_operator(rec: CollapseRecord, arity_in: int) -> DigitalOp:
    """The general annihilation induced by one slack square collapse.

    A positive swallowed vertex gives a 0-annihilation, a negative one a
    1-annihilation; it acts on the squares in the wedge fan, with squares
    meeting the vertex twice dropped entirely (their two terms cancel mod 2).
    """
    counts: dict[int, int] = {}
    for sq in rec.wedge_squares:
        counts[sq] = counts.get(sq, 0) + 1
    acted = tuple(sorted(sq for sq, k in counts.items() if k == 1))
    bit = 0 if rec.sign > 0 else 1
    return annihilate_op(bit, arity_in, rec.square, acted)


def collapse_boundary_map(c: SquareComplex, rec: CollapseRecord) -> dict[Slot, Slot]:
    """Where each boundary edge of c lives after the collapse."""
    w = rec.square
    a1, a2, b1, b2 = rec.sides()
    out: dict[Slot, Slot] = {}
    for slot in c.boundary_slots:
        if slot[0] != w:
            out[slot] = (slot[0] - (1 if slot[0] > w else 0), slot[1])
            continue
        if slot == b1:
            target = c.partner(a1)
        elif slot == b2:
            target = c.partner(a2)
        else:
            raise AssertionError("fan side of the collapsed square is boundary")
        out[slot] = (target[0] - (1 if target[0] > w else 0), target[1])
    return out


# ---------------------------------------------------------------------------
# morphism scripts


@dataclass(frozen=True)
class CreateSquare:
    sign: int


@dataclass(frozen=True)
class Glue:
    a: Slot
    b: Slot


@dataclass(frozen=True)
class Fold:
    a: Slot
    b: Slot


@dataclass(frozen=True)
class Zip:
    a: Slot
    b: Slot


Move = Union[CreateSquare, Glue, Fold, Zip]


@dataclass(frozen=True)
class MorphismScript:
    source: SquareComplex
    moves: tuple[Move, ...]

    @staticmethod
    def build(source: SquareComplex, moves: Sequence[Move]) -> "MorphismScript":
        return MorphismScript(source, tuple(moves))


@dataclass(frozen=True)
class ScriptStep:
    move: Move
    complex_after: SquareComplex
    ops: tuple[DigitalOp, ...]
    # (complex before the collapse, collapse), in tightening order
    collapses: tuple[tuple[SquareComplex, CollapseRecord], ...]


@dataclass(frozen=True)
class CompiledScript:
    script: MorphismScript
    steps: tuple[ScriptStep, ...]

    @property
    def target(self) -> SquareComplex:
        return self.steps[-1].complex_after if self.steps else self.script.source

    def all_ops(self) -> tuple[DigitalOp, ...]:
        return tuple(op for step in self.steps for op in step.ops)


class ScriptError(ValueError):
    pass


def compile_script(script: MorphismScript) -> CompiledScript:
    """The script's steps: complexes, collapses and operators per move.

    The last script compiled is remembered by identity, so a caller that
    compiles a script and then pushes curves through it (as
    `apply_script_to_sutures` does) pays for one compile. A script that
    raises ScriptError is not remembered.
    """
    global _LAST_COMPILED
    last = _LAST_COMPILED
    if last is not None and last.script is script:
        return last
    compiled = _compile(script)
    _LAST_COMPILED = compiled
    return compiled


def _compile(script: MorphismScript) -> CompiledScript:
    # the source is the one complex from outside, checked here; each
    # creation and gluing after it seeds its complex's vertex classes and
    # report from its parent's (see surface.add_square and surface.glue)
    cur = script.source
    if not validate_complex(cur).ok or cur.internal_vertices():
        raise ScriptError("script source must be a valid bona fide complex")
    steps: list[ScriptStep] = []
    for move in script.moves:
        steps.append(apply_move(cur, move))
        cur = steps[-1].complex_after
    return CompiledScript(script, tuple(steps))


# each gluing move's kind, and the collapses it makes
_GLUING_KIND = {Glue: ("standard", 0), Fold: ("fold", 1), Zip: ("zip", 2)}


def apply_move(c: SquareComplex, move: Move) -> ScriptStep:
    """One move on a tight complex, tightened: a gluing must classify as its
    kind and collapse as many squares as its kind swallows vertices
    (ScriptError otherwise)."""
    if isinstance(move, CreateSquare):
        if move.sign not in (+1, -1):
            raise ScriptError("creation sign must be +1 or -1")
        op = create_op(1 if move.sign > 0 else 0, c.square_count)
        return ScriptStep(move, add_square(c), (op,), ())
    glued, kind = glue(c, move.a, move.b)
    want, expected = _GLUING_KIND[type(move)]
    if kind.kind != want:
        raise ScriptError(f"move {move} classifies as {kind.kind}, not {want}")
    collapses: list[tuple[SquareComplex, CollapseRecord]] = []
    tight = glued
    for before, rec, tight in collapse_steps(glued):
        collapses.append((before, rec))
    if len(collapses) != expected:
        raise ScriptError(f"move {move} produced {len(collapses)} "
                          f"collapses, expected {expected}")
    tight = tight_copy(tight)
    ops = tuple(fold_operator(rec, before.square_count)
                for before, rec in collapses)
    return ScriptStep(move, tight, ops, tuple(collapses))


@dataclass(frozen=True)
class Factorization:
    """A morphism operator as an explicit list of digital operators."""

    ops: tuple[DigitalOp, ...]
    arity_in: int
    arity_out: int

    def evaluate(self, x: Z2Tensor) -> Z2Tensor:
        for op in self.ops:
            x = apply_op(op, x)
        return x

    def arity_path(self) -> list[int]:
        path = [self.arity_in]
        for op in self.ops:
            path.append(op.arity_out)
        return path


def morphism_operator(script: MorphismScript) -> tuple[LinearMap, Factorization]:
    compiled = compile_script(script)
    return compiled_operator(compiled)


def compiled_operator(compiled: CompiledScript) -> tuple[LinearMap, Factorization]:
    ops = compiled.all_ops()
    arity_in = compiled.script.source.square_count
    arity_out = compiled.target.square_count
    fact = Factorization(ops, arity_in, arity_out)
    return LinearMap(arity_in, arity_out, fact.evaluate), fact


def apply_script_to_sutures(script: MorphismScript,
                            g: CurveSystem) -> tuple[SquareComplex, CurveSystem]:
    """Push a curve system through a script; returns the target pair.

    Creations adjoin a square with standard sutures of the move's sign;
    gluing moves carry the curves across the new edge, and each collapse of
    the interleaved tightening re-routes them around the swallowed vertex.
    The complexes are the compiled script's; none is recomputed here, and
    a script just compiled is not compiled again. Only the entry pair is
    checked: each move re-routes sutures in a disc, keeping them valid.
    """
    compiled = compile_script(script)
    require_valid_pair(script.source, g)
    for step in compiled.steps:
        move = step.move
        if isinstance(move, CreateSquare):
            k = g.square_count
            chords = dict(enumerate(g.chords))
            chords[k] = basic_square_chords(move.sign > 0)
            g = CurveSystem.build(k + 1, chords, dict(enumerate(g.loops)))
        else:
            # the glued complex is the first one collapsed, if any is
            glued = step.collapses[0][0] if step.collapses else step.complex_after
            g = transport_glue(glued, g, move.a, move.b)
            for before, rec in step.collapses:
                g = transport_collapse(before, normalize(before, g), rec)
    return compiled.target, g


# ---------------------------------------------------------------------------
# decorated annihilations as fold sequences


def annihilation_as_fold(c: SquareComplex, e1: Slot, e2: Slot, e3: Slot,
                         sign: int) -> MorphismScript:
    """The script gluing a standard-sutured square over three consecutive
    boundary edges: one creation, one standard gluing, two folds.

    Move addresses are tracked through the interleaved collapses, which can
    rename boundary edges of the collapsed square. ValueError unless e1,
    e2 and e3 are three distinct edges, in order along one boundary cycle.
    """
    if len({e1, e2, e3}) != 3:
        raise ValueError("annihilation needs three distinct boundary edges")
    cycle = c.boundary_cycle_of(e1)
    i = cycle.index(e1)
    if cycle[(i + 1) % len(cycle)] != e2 or cycle[(i + 2) % len(cycle)] != e3:
        raise ValueError("edges are not consecutive along a boundary cycle")
    k = c.square_count
    side = 0 if e2[1] % 2 == 1 else 1       # parity opposite to e2
    moves: list[Move] = [CreateSquare(sign), Glue((k, side), e2)]
    # the two fold targets, tracked through the tightening collapses
    folds = [(e1, (k, (side + 1) % 4)), ((k, (side - 1) % 4), e3)]
    cur = c
    for i in range(4):
        if i >= 2:
            moves.append(Fold(*folds[i - 2]))
        step = apply_move(cur, moves[i])
        cur = step.complex_after
        for before, rec in step.collapses:
            bmap = collapse_boundary_map(before, rec)
            folds = [(bmap.get(a, a), bmap.get(b, b)) for a, b in folds]
    return MorphismScript.build(c, moves)


# ---------------------------------------------------------------------------
# convenience: naturality statement for tests and the CLI


def naturality_holds(script: MorphismScript, bits: int) -> bool:
    """D(c(Gamma)) == c(script(Gamma)) for the basic sutures given by bits."""
    lin, _ = morphism_operator(script)
    src = script.source
    lhs = lin(suture_element(src, basic_system(src, bits)))
    target, out = apply_script_to_sutures(script, basic_system(src, bits))
    rhs = suture_element(target, out)
    return lhs.words == rhs.words and lhs.arity == rhs.arity
