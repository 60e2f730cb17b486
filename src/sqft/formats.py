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
"""

from __future__ import annotations

import json
from typing import Any, Iterator, NoReturn

from .engine import CreateSquare, Fold, Glue, Move, MorphismScript, Zip
from .surface import SquareComplex
from .sutures import CurveSystem

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
    gluings = []
    raw = obj.get("gluings", [])
    if not isinstance(raw, list):
        _fail(f"{path}.gluings: expected a list")
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(f"{path}.gluings[{i}]: expected a pair of slots")
        a = _check_slot(pair[0], f"{path}.gluings[{i}][0]", squares)
        b = _check_slot(pair[1], f"{path}.gluings[{i}][1]", squares)
        gluings.append((a, b))
    return SquareComplex.build(squares, gluings, slack=slack)


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


def _endpoint(ep: Any, key: str, i: int) -> tuple[int, int]:
    """Endpoint ep of chord i of sutures.chords[key], as (side, position)."""
    if type(ep) in (list, tuple) and len(ep) == 2:
        side, pos = ep
        if type(side) is int and type(pos) is int:
            if not 0 <= side < 4:
                _fail(f"sutures.chords[{key}][{i}]: side index {side} "
                      "out of range 0..3")
            if pos < 0:
                _fail(f"sutures.chords[{key}][{i}]: negative position")
            return side, pos
    _fail(f"sutures.chords[{key}][{i}]: bad endpoint {json.dumps(ep)}")


def sutures_from_obj(obj: Any, square_count: int) -> CurveSystem:
    if not isinstance(obj, dict):
        _fail("sutures: expected an object")
    _keys_once(obj, "sutures")
    chords: dict[int, list] = {}
    for key, sq, lst in _per_square(obj, "chords", square_count):
        if not isinstance(lst, list):
            _fail(f"sutures.chords[{key}]: expected a list")
        out = []
        for i, ch in enumerate(lst):
            if type(ch) not in (list, tuple) or len(ch) != 2:
                _fail(f"sutures.chords[{key}][{i}]: expected two endpoints")
            a, b = ch
            out.append((_endpoint(a, key, i), _endpoint(b, key, i)))
        chords[sq] = out
    loops: dict[int, int] = {}
    for key, sq, cnt in _per_square(obj, "loops", square_count):
        if type(cnt) is not int or cnt < 0:
            _fail(f"sutures.loops[{key}]: expected a non-negative count")
        loops[sq] = cnt
    return CurveSystem.build(square_count, chords, loops)


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
