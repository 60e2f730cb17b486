"""JSON document formats for surfaces, sutures, and scripts.

Surface:  {"squares": K, "slack": bool, "gluings": [[[sq,side],[sq,side]], ...]}
Sutures:  {"chords": {"<sq>": [[[side,pos],[side,pos]], ...]},
           "loops": {"<sq>": count}}
Script:   {"source": <surface>, "moves": [{"create": "+"},
           {"glue": [[sq,side],[sq,side]]}, {"fold": [...]}, {"zip": [...]}]}

Emission is canonical (sorted gluings and chords, stable key order), so
parse-then-emit is the identity on canonical documents. The emitters write
the text directly, byte for byte what `json.dumps(obj, indent=2)` writes
for the document's object form above, without the pure-Python encoder.
Parsing takes a count, square, side or position only as a JSON integer
(`type(x) is int`: json loads true and false as bool, a subclass of int),
and a square key only in canonical decimal ("0", "12", not "00" or "1_0"),
each square named once; no object may name a key twice. A surface
declares at most MAX_SQUARES squares, since the engine builds tables of
that size before it reads anything else. Errors name the path of the
offending field and quote its value as JSON.

A parser fills the integer tables that the checks read in the same pass
that checks the document's form: a surface's `partner_index` (seeded
unless a side is glued twice, when the complex makes its own), and a
sutures document's side counts and endpoint table, its chord diagrams
numbered by `sutures._endpoint_table` as `CurveSystem.endpoint_table`
numbers them. A parser sets no fact and checks no pair: validation stays
where a pair enters the engine.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, NoReturn

from .engine import CreateSquare, Fold, Glue, Move, MorphismScript, Zip
from .surface import SquareComplex, _seeded
from .sutures import Chord, CurveSystem, _endpoint_table

# far above any complex the tests, the census or the benchmark build
MAX_SQUARES = 10_000


class ParseError(ValueError):
    pass


def _fail(msg: str) -> NoReturn:
    raise ParseError(msg)


class _Keyed(dict):
    """A JSON object that names some keys more than once, with those keys
    (json keeps the last value of each)."""

    repeated: list[str]


def _object(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Keyed(obj)
        obj.repeated = [key for key in obj if keys.count(key) > 1]
    return obj


_KEYED_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def _loads(text: str, root: str) -> Any:
    try:
        return _KEYED_DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        # json reads nested lists and objects by recursion
        raise ParseError(f"{root}: nested too deeply to read") from exc


def _keys_once(obj: dict, what: str) -> None:
    for key in getattr(obj, "repeated", ()):
        _fail(f"{what}: key {json.dumps(key)} named twice")


def _gluing_error(pair: Any, what: str, squares: int) -> NoReturn:
    """Raise the first ParseError of the gluing `what`, which the one-pass
    read refused."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        _fail(f"{what}: expected a pair of slots")
    _check_slot(pair[0], f"{what}[0]", squares)
    _check_slot(pair[1], f"{what}[1]", squares)
    raise AssertionError("a refused gluing has a fault")


def _check_slot(obj: Any, what: str, squares: int) -> tuple[int, int]:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(type(x) is int for x in obj)):
        _fail(f"{what}: expected [square, side], got {json.dumps(obj)}")
    sq, side = obj
    if not 0 <= side < 4:
        _fail(f"{what}: side index {side} out of range 0..3")
    if not 0 <= sq < squares:
        _fail(f"{what}: square {sq} out of range 0..{squares - 1}")
    return (sq, side)


# -- emitting ---------------------------------------------------------------
# json.dumps(..., indent=2) layout: each item of a non-empty list or object
# on its own line, two spaces deeper than its brackets


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Items already written at depth pad + 2 spaces, in brackets at pad."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return (brackets[0] + inner + ("," + inner).join(items) + "\n" + pad
            + brackets[1])


def _pair(a: tuple[int, int], b: tuple[int, int], pad: str) -> str:
    """[[a0, a1], [b0, b1]] at depth pad."""
    p1, p2 = pad + "  ", pad + "    "
    return (f"[\n{p1}[\n{p2}{a[0]},\n{p2}{a[1]}\n{p1}],"
            f"\n{p1}[\n{p2}{b[0]},\n{p2}{b[1]}\n{p1}]\n{pad}]")


def _surface_text(c: SquareComplex, pad: str) -> str:
    inner = pad + "  "
    gluings = [_pair(a, b, inner + "  ") for a, b in c.sorted_gluings()]
    return _block([f'"squares": {c.square_count}',
                   f'"slack": {"true" if c.slack else "false"}',
                   '"gluings": ' + _block(gluings, inner)], pad, "{}")


# -- surfaces ---------------------------------------------------------------


def emit_surface(c: SquareComplex) -> str:
    return _surface_text(c, "") + "\n"


def surface_from_obj(obj: Any, path: str = "surface") -> SquareComplex:
    """The complex a surface document describes; errors name fields under
    `path`, the document's place in the file."""
    if not isinstance(obj, dict):
        _fail(f"{path}: expected an object")
    _keys_once(obj, path)
    if "squares" not in obj or type(obj["squares"]) is not int:
        _fail(f"{path}.squares: expected an integer")
    squares = obj["squares"]
    if squares < 0:
        _fail(f"{path}.squares: negative")
    if squares > MAX_SQUARES:
        _fail(f"{path}.squares: {squares} is more than {MAX_SQUARES}")
    slack = obj.get("slack", False)
    if not isinstance(slack, bool):
        _fail(f"{path}.slack: expected a boolean")
    raw = obj.get("gluings", [])
    if not isinstance(raw, list):
        _fail(f"{path}.gluings: expected a list")
    gluings = []
    part = [-1] * (4 * squares)
    twice = False
    for i, pair in enumerate(raw):
        # a JSON pair that unpacks so, to four integers, is two lists of
        # two; anything else is read again for its message
        try:
            (sa, ka), (sb, kb) = pair
        except (TypeError, ValueError):
            _gluing_error(pair, f"{path}.gluings[{i}]", squares)
        if not (type(sa) is int and type(ka) is int and type(sb) is int
                and type(kb) is int and 0 <= ka < 4 and 0 <= kb < 4
                and 0 <= sa < squares and 0 <= sb < squares):
            _gluing_error(pair, f"{path}.gluings[{i}]", squares)
        a, b = (sa, ka), (sb, kb)
        gluings.append((a, b) if a <= b else (b, a))
        x, y = 4 * sa + ka, 4 * sb + kb
        if part[x] >= 0 or part[y] >= 0:
            twice = True
        part[x] = y
        part[y] = x
    c = SquareComplex(squares, frozenset(gluings), slack)
    # on a side glued twice the gluing table is the one the complex reads
    # for itself, which validation reports
    return c if twice else _seeded(c, partner_index=part)


def parse_surface(text: str) -> SquareComplex:
    return surface_from_obj(_loads(text, "surface"))


# -- sutures ----------------------------------------------------------------


def emit_sutures(g: CurveSystem) -> str:
    chords = [f'"{s}": ' + _block([_pair(a, b, "      ") for a, b in chs],
                                  "    ")
              for s, chs in enumerate(g.chords) if chs]
    loops = [f'"{s}": {n}' for s, n in enumerate(g.loops) if n]
    return _block(['"chords": ' + _block(chords, "  ", "{}"),
                   '"loops": ' + _block(loops, "  ", "{}")], "", "{}") + "\n"


def _per_square(obj: dict, name: str,
                square_count: int) -> Iterator[tuple[str, int, Any]]:
    """(key, square, value) for each entry of the object sutures.<name>."""
    raw = obj.get(name)
    if raw is None:
        return
    if not isinstance(raw, dict):
        _fail(f"sutures.{name}: expected an object keyed by square index")
    repeated = getattr(raw, "repeated", ())
    for key, val in raw.items():
        try:
            sq = int(key)
        except (TypeError, ValueError):
            sq = None
        # int() also reads "00", " 1", "+1" and "1_0"
        if sq is None or str(sq) != key:
            _fail(f"sutures.{name}: bad square key {json.dumps(key)}")
        if key in repeated:
            _fail(f"sutures.{name}: square {key} named twice")
        if not 0 <= sq < square_count:
            _fail(f"sutures.{name}: square {sq} out of range")
        yield key, sq, val


def _chord_error(ch: Any, key: str, i: int) -> NoReturn:
    """Raise the first ParseError of chord i of sutures.chords[key], which
    the one-pass read refused: the first endpoint is read in full before
    the second."""
    where = f"sutures.chords[{key}][{i}]"
    if type(ch) not in (list, tuple) or len(ch) != 2:
        _fail(f"{where}: expected two endpoints")
    for ep in ch:
        if not (type(ep) in (list, tuple) and len(ep) == 2
                and type(ep[0]) is int and type(ep[1]) is int):
            _fail(f"{where}: bad endpoint {json.dumps(ep)}")
        side, pos = ep
        if not 0 <= side < 4:
            _fail(f"{where}: side index {side} out of range 0..3")
        if pos < 0:
            _fail(f"{where}: negative position")
    raise AssertionError("a refused chord has a fault")


def sutures_from_obj(obj: Any, square_count: int) -> CurveSystem:
    """The curve system a sutures document describes, with its side counts
    and endpoint table made as it is read.

    One pass over each square's chords checks each endpoint, counts the
    points on each side and puts each chord the right way round; the
    squares' endpoints are then numbered into the endpoint table, which
    holds the chord diagrams' own problems (`sutures._endpoint_table`). No
    fact is set: the pair is checked where it enters the engine.
    """
    if not isinstance(obj, dict):
        _fail("sutures: expected an object")
    _keys_once(obj, "sutures")
    # per square named, its chords and the points on each side
    chords: dict[int, tuple[list[Chord], list[int]]] = {}
    for key, sq, lst in _per_square(obj, "chords", square_count):
        if not isinstance(lst, list):
            _fail(f"sutures.chords[{key}]: expected a list")
        out = []
        n = [0, 0, 0, 0]
        for i, ch in enumerate(lst):
            # a JSON chord that unpacks so, to four integers, is two lists
            # of two; anything else is read again for its message
            try:
                (ka, pa), (kb, pb) = ch
            except (TypeError, ValueError):
                _chord_error(ch, key, i)
            if not (type(ka) is int and type(pa) is int and type(kb) is int
                    and type(pb) is int and 0 <= ka < 4 and 0 <= kb < 4
                    and pa >= 0 and pb >= 0):
                _chord_error(ch, key, i)
            n[ka] += 1
            n[kb] += 1
            a, b = (ka, pa), (kb, pb)
            out.append((a, b) if a <= b else (b, a))
        chords[sq] = out, n
    loops: dict[int, int] = {}
    for key, sq, cnt in _per_square(obj, "loops", square_count):
        if type(cnt) is not int or cnt < 0:
            _fail(f"sutures.loops[{key}]: expected a non-negative count")
        loops[sq] = cnt
    per_square = []
    side_counts = []
    for sq in range(square_count):
        out, n = chords.get(sq, ((), (0, 0, 0, 0)))
        per_square.append(tuple(sorted(out)))
        side_counts.append(tuple(n))
    g = CurveSystem(tuple(per_square),
                    tuple(loops.get(s, 0) for s in range(square_count)))
    return _seeded(g, _side_counts=side_counts, endpoint_table=_endpoint_table(
        g.chords, g.loops, side_counts))


def parse_sutures(text: str, square_count: int) -> CurveSystem:
    return sutures_from_obj(_loads(text, "sutures"), square_count)


# -- scripts ----------------------------------------------------------------


_MOVE_KEY = {Glue: "glue", Fold: "fold", Zip: "zip"}


def emit_script(s: MorphismScript) -> str:
    moves = []
    for m in s.moves:
        if isinstance(m, CreateSquare):
            move = f'"create": "{"+" if m.sign > 0 else "-"}"'
        else:
            move = f'"{_MOVE_KEY[type(m)]}": ' + _pair(m.a, m.b, "      ")
        moves.append(_block([move], "    ", "{}"))
    return _block(['"source": ' + _surface_text(s.source, "  "),
                   '"moves": ' + _block(moves, "  ")], "", "{}") + "\n"


def script_from_obj(obj: Any) -> MorphismScript:
    if not isinstance(obj, dict) or "source" not in obj:
        _fail("script: expected an object with a source surface")
    _keys_once(obj, "script")
    source = surface_from_obj(obj["source"], "script.source")
    moves: list[Move] = []
    raw = obj.get("moves", [])
    if not isinstance(raw, list):
        _fail("script.moves: expected a list")
    for i, mv in enumerate(raw):
        if not isinstance(mv, dict) or len(mv) != 1:
            _fail(f"script.moves[{i}]: expected a single-key object")
        _keys_once(mv, f"script.moves[{i}]")
        key, val = next(iter(mv.items()))
        if key == "create":
            if val not in ("+", "-"):
                _fail(f'script.moves[{i}].create: expected "+" or "-"')
            moves.append(CreateSquare(+1 if val == "+" else -1))
        elif key in ("glue", "fold", "zip"):
            if not isinstance(val, (list, tuple)) or len(val) != 2:
                _fail(f"script.moves[{i}].{key}: expected a pair of slots")
            # slots may reference squares created later; bound loosely
            a = _check_slot(val[0], f"script.moves[{i}].{key}[0]", 1 << 30)
            b = _check_slot(val[1], f"script.moves[{i}].{key}[1]", 1 << 30)
            moves.append({"glue": Glue, "fold": Fold, "zip": Zip}[key](a, b))
        else:
            _fail(f"script.moves[{i}]: unknown move {json.dumps(key)}")
    return MorphismScript.build(source, moves)


def parse_script(text: str) -> MorphismScript:
    return script_from_obj(_loads(text, "script"))
