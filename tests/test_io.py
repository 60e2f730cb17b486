import contextlib
import io
import json
import os
import subprocess
from pathlib import Path
import sys
import tempfile
import time
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqft import formats
from sqft.census import disc_complex, matching_system
from sqft.cli import main
from sqft.engine import CreateSquare, Fold, Glue, MorphismScript, Zip
from sqft.surface import SquareComplex
from sqft.sutures import CurveSystem, basic_system
from sqft.svg import render_svg


def test_surface_roundtrip(hexagon, punctured_torus, annulus):
    for c in (hexagon, punctured_torus, annulus):
        text = formats.emit_surface(c)
        assert formats.parse_surface(text) == c
        assert formats.emit_surface(formats.parse_surface(text)) == text


def test_sutures_roundtrip(hexagon, hexagon_superposition):
    text = formats.emit_sutures(hexagon_superposition)
    assert formats.parse_sutures(text, 2) == hexagon_superposition


def test_script_roundtrip(disc12):
    script = MorphismScript.build(
        disc12, [Fold((1, 0), (0, 1)), CreateSquare(-1), CreateSquare(+1)])
    text = formats.emit_script(script)
    back = formats.parse_script(text)
    assert back.source == disc12 and back.moves == script.moves


def test_parse_error_names_field():
    bad = json.dumps({"squares": 1, "gluings": [[[0, 4], [0, 1]]]})
    with pytest.raises(formats.ParseError) as err:
        formats.parse_surface(bad)
    assert "side index 4" in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(formats.ParseError) as err:
        formats.parse_surface("{not json")
    assert "line 1" in str(err.value)


def test_hexagon_file_invariants(tmp_path, hexagon):
    path = tmp_path / "hex.json"
    path.write_text(formats.emit_surface(hexagon))
    from sqft.surface import invariants
    inv = invariants(formats.parse_surface(path.read_text()))
    assert (inv.n, inv.index, inv.gluing_number) == (3, 2, 1)


def test_svg_deterministic(hexagon, hexagon_superposition, punctured_torus):
    a = render_svg(hexagon, hexagon_superposition)
    b = render_svg(hexagon, hexagon_superposition)
    assert a == b
    assert a.startswith("<?xml") and a.rstrip().endswith("</svg>")
    grid = render_svg(punctured_torus, None)
    assert "seagreen" in grid      # labeled internal edges


def test_svg_crossing_counts(hexagon, hexagon_superposition):
    # one red curve piece per chord
    svg = render_svg(hexagon, hexagon_superposition)
    assert svg.count('stroke="red"') == 6


def test_cli_validate_info_element(tmp_path, hexagon, capsys):
    surf = tmp_path / "h.json"
    surf.write_text(formats.emit_surface(hexagon))
    sut = tmp_path / "s.json"
    sut.write_text(formats.emit_sutures(basic_system(hexagon, 0b01)))
    assert main(["validate", str(surf), str(sut)]) == 0
    assert main(["info", str(surf)]) == 0
    assert main(["element", str(surf), str(sut)]) == 0
    out = capsys.readouterr().out
    assert "element 10" in out


def test_cli_element_invalid_exits_1(tmp_path, hexagon, capsys):
    surf = tmp_path / "h.json"
    surf.write_text(formats.emit_surface(hexagon))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"chords": {"0": [[[0, 0], [1, 0]]]}}))
    assert main(["element", str(surf), str(bad)]) == 1


def test_cli_apply_factorize(tmp_path, disc12, disc12_sutures, capsys):
    script = MorphismScript.build(disc12, [Fold((1, 0), (0, 1))])
    spath = tmp_path / "script.json"
    spath.write_text(formats.emit_script(script))
    gpath = tmp_path / "g.json"
    gpath.write_text(formats.emit_sutures(disc12_sutures))
    assert main(["apply", str(spath), str(gpath), "--factorize"]) == 0
    out = capsys.readouterr().out
    assert "annihilate1" in out
    assert "0110 + 1010" in out


LONE_FOLD = {"source": {"squares": 1, "slack": False, "gluings": []},
             "moves": [{"fold": [[0, 0], [0, 3]]}]}


@pytest.mark.parametrize("bits", [0, 1])
def test_cli_apply_lone_square_fold(tmp_path, square, bits, capsys):
    # folding the lone square onto itself leaves no square: the positive
    # sutures vanish with it, the negative ones close up into a loop that
    # no square can carry, which is reported, not raised
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(LONE_FOLD))
    gpath = tmp_path / "g.json"
    gpath.write_text(formats.emit_sutures(basic_system(square, bits)))
    code = main(["apply", str(spath), str(gpath), "--factorize"])
    out, err = capsys.readouterr()
    assert "annihilate1 factor 0 (1->0)" in out
    if bits:
        assert code == 0 and err == ""
        assert "image sutures:" in out and "image element" in out
    else:
        assert code == 1 and "Traceback" not in err
        assert err == "error: trivial sutures on a vacuum-only complex " \
                      "have no carrier square\n"


def test_cli_check_suite(capsys):
    assert main(["check", "--suite", "bypass", "--cases", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "bypass" in out and "pass" in out


def test_cli_render(tmp_path, hexagon):
    surf = tmp_path / "h.json"
    surf.write_text(formats.emit_surface(hexagon))
    out = tmp_path / "h.svg"
    assert main(["render", str(surf), "-o", str(out)]) == 0
    assert out.read_text().startswith("<?xml")


@pytest.mark.parametrize("doc, where", [
    ({"loops": {"x": 1}}, 'sutures.loops: bad square key "x"'),
    ({"loops": [1]}, "sutures.loops: expected an object"),
    ({"chords": [1]}, "sutures.chords: expected an object"),
])
def test_cli_element_bad_sutures_document(tmp_path, hexagon, capsys, doc,
                                          where):
    surf = tmp_path / "h.json"
    surf.write_text(formats.emit_surface(hexagon))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["element", str(surf), str(bad)]) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def test_cli_closed_pipe_no_traceback():
    # unbuffered, so the lines after the first are written, and fail, after
    # the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "sqft.cli", "census", "disc", "--n", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline().startswith(b"disc with 14 vertices")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_regions_name_is_the_module():
    from sqft import regions
    assert isinstance(regions, types.ModuleType)
    assert regions.regions.__module__ == "sqft.regions"


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sqft.cli", "census", "disc", "--n", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "5 suture classes" in proc.stdout


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reemit(path: Path) -> str:
    text = path.read_text()
    if path.name.endswith(".surface.json"):
        return formats.emit_surface(formats.parse_surface(text))
    if path.name.endswith(".script.json"):
        return formats.emit_script(formats.parse_script(text))
    obj = json.loads(text)
    squares = 1 + max(
        [int(k) for k in (obj.get("chords") or {})] +
        [int(k) for k in (obj.get("loops") or {})] + [0])
    return formats.emit_sutures(formats.parse_sutures(text, squares))


def test_fixture_files_roundtrip_byte_identical():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) >= 8
    for path in paths:
        assert _reemit(path) == path.read_text(), path.name


def test_fixture_surfaces_validate():
    from sqft.surface import validate_complex
    for path in sorted(FIXTURES.glob("*.surface.json")):
        assert validate_complex(formats.parse_surface(path.read_text())).ok


@pytest.mark.parametrize("argv", [
    ["check", "--cases", "0"],
    ["check", "--cases", "-1", "--suite", "bypass"],
])
def test_check_rejects_nonpositive_cases(argv, capsys):
    # with no case to run every suite used to print "pass" and exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "pass" not in out
    assert "--cases: expected a positive integer" in err


def test_cli_slide_rejects_invalid_complex(tmp_path, capsys):
    # side (0, 0) is glued twice; the slide used to emit a surface gluing
    # (0, 0) to (0, 1) and exit 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"squares": 2, "gluings": [[[0, 0], [1, 1]], [[0, 0], [1, 3]]]}))
    assert main(["slide", str(path), "--edge", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: side (0, 0) glued more than once\n"


def test_cli_apply_prints_the_empty_word(tmp_path, square, capsys):
    # the positive lone-square fold leaves the unit of the 0-square target,
    # whose one basis word is empty: it must not print as a blank
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(LONE_FOLD))
    gpath = tmp_path / "g.json"
    gpath.write_text(formats.emit_sutures(basic_system(square, 1)))
    assert main(["apply", str(spath), str(gpath)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "image element 1 (empty word)"


def test_cli_apply_vacuum_fold_keeps_the_loop(tmp_path, capsys):
    # the fixture folds square 0 of two lone squares into a slack vacuum
    # that collapses away; its closed curve must stay, on the square left
    # (it used to be dropped with the folded square)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"chords": {}}))
    script = FIXTURES / "vacuum_fold.script.json"
    assert main(["apply", str(script), str(gpath)]) == 0
    out = capsys.readouterr().out
    image, element = out.split("image sutures:\n")[1].split("image element ")
    assert json.loads(image)["loops"] == {"0": 1}
    assert element == "0\n"


@pytest.mark.parametrize("n", ["1", "10", "x"])
def test_census_rejects_n_out_of_range(n, capsys):
    # n = 1 used to fail with "error: need n >= 2" and n past the census
    # range built a disc before failing; neither message named the flag
    with pytest.raises(SystemExit) as exc:
        main(["census", "disc", "--n", n])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--n: expected an integer from 2 to 9, got '{n}'" in err


def test_census_largest_n(capsys):
    assert main(["census", "disc", "--n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "disc with 14 vertices: 429 suture classes " \
                       "(catalan 429)"
    assert sum(int(line.split(": ")[1].split()[0])
               for line in lines[1:]) == 429


def test_check_euler_compares_the_fast_euler_class(monkeypatch, capsys):
    from sqft import cli
    assert main(["check", "--suite", "euler", "--cases", "3"]) == 0
    assert capsys.readouterr().out == "euler        pass\n"
    monkeypatch.setattr(cli, "euler_class", lambda c, g: 99)
    assert main(["check", "--suite", "euler", "--cases", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "euler        FAIL"
    assert "    case 0: euler class disagrees with regions" in out


def test_check_census_finds_an_element_without_dominance_extremes(
        monkeypatch, capsys):
    from sqft import cli
    from sqft.tensor import Z2Tensor
    assert main(["check", "--suite", "census", "--cases", "120"]) == 0
    assert capsys.readouterr().out == "census       pass\n"
    element = cli.suture_element

    def wrong(c, g):
        # in arity 4, factors 0 and 3 set (9) and factors 1 and 2 set (6)
        # are incomparable, so neither is least or greatest
        el = element(c, g)
        return Z2Tensor(4, frozenset({9, 6})) if el.arity == 4 else el

    monkeypatch.setattr(cli, "suture_element", wrong)
    assert main(["check", "--suite", "census", "--cases", "120"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "census       FAIL"
    assert "    disc n=5: class 0 has no single least and greatest word" in out


def test_check_naturality_runs_every_source_word(monkeypatch):
    from sqft import cli, engine
    from sqft.tensor import annihilate_op
    words = []

    def counting(script, bits):
        words.append(bits)
        return engine.naturality_holds(script, bits)

    monkeypatch.setattr(cli, "naturality_holds", counting)
    # the 25 sources have 1-4 squares: 178 words in all
    assert cli.check_naturality(0, 25) == [] and len(words) == 178
    # a fold operator of the wrong sign fails at many words; checking only
    # the empty word of each case found 8 of these failures
    fold = engine.fold_operator

    def flipped(rec, arity_in):
        acted = fold(rec, arity_in).acted
        return annihilate_op(int(rec.sign > 0), arity_in, rec.square, acted)

    monkeypatch.setattr(engine, "fold_operator", flipped)
    assert len(cli.check_naturality(0, 25)) == 93


HEXAGON_DOC = {"squares": 2, "gluings": [[[0, 0], [1, 1]]]}


@pytest.mark.parametrize("doc, where", [
    ({"squares": True}, "surface.squares: expected an integer"),
    ({"squares": 2, "gluings": [[[True, 0], [1, 1]]]},
     "surface.gluings[0][0]: expected [square, side]"),
    ({"squares": 2, "gluings": [[[0, 0], [1, False]]]},
     "surface.gluings[0][1]: expected [square, side]"),
])
def test_cli_surface_rejects_booleans(tmp_path, capsys, doc, where):
    surf = tmp_path / "s.json"
    surf.write_text(json.dumps(doc))
    assert main(["info", str(surf)]) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("text, where", [
    ('{"loops": {"0": true}}', "sutures.loops[0]: expected a non-negative"),
    ('{"chords": {"0": [[[true, 0], [1, 0]]]}}',
     "sutures.chords[0][0]: bad endpoint"),
    ('{"chords": {"0": [[[0, 0], [1, false]]]}}',
     "sutures.chords[0][0]: bad endpoint"),
    ('{"loops": {"00": 1}}', 'sutures.loops: bad square key "00"'),
    ('{"chords": {"1_0": []}}', 'sutures.chords: bad square key "1_0"'),
    ('{"chords": {" 1": []}}', 'sutures.chords: bad square key " 1"'),
    ('{"loops": {"+1": 1}}', 'sutures.loops: bad square key "+1"'),
    ('{"loops": {"0": 1, "0": 2}}', "sutures.loops: square 0 named twice"),
    ('{"chords": {"1": [], "0": [], "1": []}}',
     "sutures.chords: square 1 named twice"),
])
def test_cli_sutures_reject_booleans_and_square_keys(tmp_path, capsys, text,
                                                     where):
    surf = tmp_path / "h.json"
    surf.write_text(json.dumps(HEXAGON_DOC))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (["element", str(surf), str(bad)],
                 ["validate", str(surf), str(bad)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err


@pytest.mark.parametrize("first, second, message", [
    ([0], [1, 0], "bad endpoint [0]"),
    ([0, 1, 2], [1, 0], "bad endpoint [0, 1, 2]"),
    ([True, 0], [1, 0], "bad endpoint [true, 0]"),
    ([4, 0], [1, 0], "side index 4 out of range 0..3"),
    ([0, -1], [1, 0], "negative position"),
    ("ab", [1, 0], 'bad endpoint "ab"'),
    # the first endpoint is read in full before the second
    ([0, 0], [4, 0], "side index 4 out of range 0..3"),
    ([0, -1], [4, 0], "negative position"),
    ([5, 0], [0, -1], "side index 5 out of range 0..3"),
])
def test_sutures_endpoint_messages(first, second, message):
    text = json.dumps({"chords": {"1": [[[1, 0], [3, 0]], [first, second]]}})
    with pytest.raises(formats.ParseError) as err:
        formats.parse_sutures(text, 2)
    assert str(err.value) == f"sutures.chords[1][1]: {message}"


@pytest.mark.parametrize("move, where", [
    ({"glue": [[True, 1], [0, 3]]}, "script.moves[1].glue[0]"),
    ({"fold": [[0, 1], [0, True]]}, "script.moves[1].fold[1]"),
])
def test_cli_script_rejects_boolean_slots(tmp_path, capsys, move, where):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"source": {"squares": 2},
                                  "moves": [{"create": "+"}, move]}))
    assert main(["apply", str(script)]) == 1
    err = capsys.readouterr().err
    assert f"{where}: expected [square, side]" in err
    assert "Traceback" not in err


def test_canonical_square_keys_still_parse(hexagon_superposition):
    text = formats.emit_sutures(hexagon_superposition)
    assert '"0"' in text and '"1"' in text
    assert formats.parse_sutures(text, 2) == hexagon_superposition
    ten = json.dumps({"loops": {"10": 1}})
    assert formats.parse_sutures(ten, 11).loops[10] == 1


def test_python_dash_m_sqft_is_the_cli(capsys):
    assert main(["census", "disc", "--n", "3"]) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "sqft", "census", "disc", "--n", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == expected
    bad = subprocess.run([sys.executable, "-m", "sqft", "census", "disc",
                          "--n", "10"], capture_output=True, text=True)
    assert bad.returncode == 2 and "Traceback" not in bad.stderr


def test_cli_element_of_a_deep_fan_disc(tmp_path):
    # 600 point pairs matched (2i, 2i + 1): each level of the peel drops
    # the chord at 0, far past where a peel that recursed once per chord
    # ran out of stack
    n = 600
    surf = tmp_path / "disc.json"
    surf.write_text(formats.emit_surface(disc_complex(n)))
    sutures = tmp_path / "sutures.json"
    sutures.write_text(formats.emit_sutures(
        matching_system(n, [(2 * i, 2 * i + 1) for i in range(n)])))
    proc = subprocess.run(
        [sys.executable, "-m", "sqft", "element", str(surf), str(sutures)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "element " + "1" * (n - 1) in proc.stdout.splitlines()


def _cli_error(tmp_path, capsys, command, documents):
    """Run `sqft command` on the documents, written as given, and return
    its error line; it must exit 1 without a traceback."""
    paths = []
    for i, text in enumerate(documents):
        path = tmp_path / f"doc{i}.json"
        path.write_text(text)
        paths.append(str(path))
    assert main([command] + paths) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


HEXAGON_TEXT = json.dumps(HEXAGON_DOC)


@pytest.mark.parametrize("command, documents, where", [
    ("info", ['{"squares": 1, "squares": 2, "gluings": []}'],
     'surface: key "squares" named twice'),
    ("info", ['{"squares": 2, "gluings": [], "gluings": []}'],
     'surface: key "gluings" named twice'),
    ("validate", [HEXAGON_TEXT, '{"chords": {}, "chords": {}}'],
     'sutures: key "chords" named twice'),
    ("validate", [HEXAGON_TEXT, '{"chords": {}, "loops": {}, "loops": {}}'],
     'sutures: key "loops" named twice'),
    ("apply", ['{"source": {"squares": 1}, '
               '"moves": [{"create": "+", "create": "-"}]}'],
     'script.moves[0]: key "create" named twice'),
    ("apply", ['{"source": {"squares": 1}, "moves": [], "moves": []}'],
     'script: key "moves" named twice'),
    ("apply", ['{"source": {"squares": 1, "slack": false, "slack": true}}'],
     'script.source: key "slack" named twice'),
], ids=["surface squares", "surface gluings", "sutures chords",
        "sutures loops", "script move", "script moves", "script source"])
def test_cli_rejects_repeated_keys(tmp_path, capsys, command, documents,
                                   where):
    assert f"error: {where}" in _cli_error(tmp_path, capsys, command,
                                           documents)


@pytest.mark.parametrize("source, where", [
    ({"squares": True}, "script.source.squares: expected an integer"),
    ({"squares": 1, "gluings": [[[0, 0], [0, 4]]]},
     "script.source.gluings[0][1]: side index 4 out of range 0..3"),
    ({"squares": 100000}, "script.source.squares: 100000 is more than 10000"),
])
def test_cli_script_source_errors_name_the_script(tmp_path, capsys, source,
                                                  where):
    doc = json.dumps({"source": source, "moves": []})
    assert f"error: {where}\n" in _cli_error(tmp_path, capsys, "apply",
                                              [doc])


def test_cli_rejects_a_surface_of_too_many_squares(tmp_path, capsys,
                                                  monkeypatch):
    # refused before any table of that size is built
    start = time.perf_counter()
    err = _cli_error(tmp_path, capsys, "info", ['{"squares": 100000}'])
    assert time.perf_counter() - start < 1.0
    assert err == "error: surface.squares: 100000 is more than 10000\n"
    monkeypatch.setattr(formats, "MAX_SQUARES", 3)
    assert formats.parse_surface('{"squares": 3}').square_count == 3
    with pytest.raises(formats.ParseError, match="4 is more than 3"):
        formats.parse_surface('{"squares": 4}')


def test_unrepeated_documents_still_parse(hexagon):
    assert formats.parse_surface(HEXAGON_TEXT) == hexagon
    script = formats.parse_script(
        '{"source": {"squares": 1}, "moves": [{"create": "-"}]}')
    assert script.moves == (CreateSquare(-1),)


@pytest.mark.parametrize("command, documents, where", [
    ("info", ['{"squares": 2, "gluings": [[[true, 1], [0, 3]]]}'],
     "surface.gluings[0][0]: expected [square, side], got [true, 1]"),
    ("validate", [HEXAGON_TEXT, '{"chords": {"0": [[[0, 0], [1, null]]]}}'],
     "sutures.chords[0][0]: bad endpoint [1, null]"),
    ("validate", [HEXAGON_TEXT, '{"loops": {"00": 1}}'],
     'sutures.loops: bad square key "00"'),
    ("apply", ['{"source": {"squares": 1}, "moves": [{"foo": 1}]}'],
     'script.moves[0]: unknown move "foo"'),
    ("apply", ['{"source": {"squares": 1}, "moves": [{"create": 1}]}'],
     'script.moves[0].create: expected "+" or "-"'),
], ids=["slot", "endpoint", "square key", "move", "create"])
def test_cli_parse_errors_quote_json(tmp_path, capsys, command, documents,
                                     where):
    assert f"error: {where}\n" in _cli_error(tmp_path, capsys, command,
                                             documents)


# ---------------------------------------------------------------------------
# the direct emitters against json.dumps, and the parsers on any JSON


def _dumped(obj):
    return json.dumps(obj, indent=2) + "\n"


_slots = st.tuples(st.integers(0, 12), st.integers(0, 3))
_endpoints = st.tuples(st.integers(0, 3), st.integers(0, 15))


@st.composite
def _complexes(draw):
    # any gluings, valid or not: emitting reads only the fields
    return SquareComplex.build(draw(st.integers(0, 12)),
                               draw(st.lists(st.tuples(_slots, _slots),
                                             max_size=8)),
                               slack=draw(st.booleans()))


@st.composite
def _systems(draw):
    k = draw(st.integers(0, 5))
    chords = {s: draw(st.lists(st.tuples(_endpoints, _endpoints),
                               max_size=4)) for s in range(k)}
    loops = {s: draw(st.integers(0, 3)) for s in range(k)}
    return CurveSystem.build(k, chords, loops)


_moves = st.one_of(st.sampled_from([CreateSquare(+1), CreateSquare(-1)]),
                   *(st.builds(kind, _slots, _slots)
                     for kind in (Glue, Fold, Zip)))


@settings(max_examples=300, deadline=None)
@given(_complexes())
@example(SquareComplex.build(0))
@example(SquareComplex.build(1, [((0, 0), (0, 3))], slack=True))
@example(SquareComplex.build(12, [((11, 0), (10, 3))]))
def test_emit_surface_is_json_dumps(c):
    assert formats.emit_surface(c) == _dumped(formats.surface_to_obj(c))


@settings(max_examples=300, deadline=None)
@given(_systems())
@example(CurveSystem.build(0, {}))
@example(CurveSystem.build(3, {}))
@example(CurveSystem.build(2, {}, {0: 2, 1: 1}))
@example(CurveSystem.build(11, {10: [((0, 12), (2, 10))]}, {10: 1}))
def test_emit_sutures_is_json_dumps(g):
    assert formats.emit_sutures(g) == _dumped(formats.sutures_to_obj(g))


@settings(max_examples=300, deadline=None)
@given(st.builds(MorphismScript.build, _complexes(),
                 st.lists(_moves, max_size=6)))
@example(MorphismScript.build(SquareComplex.build(0), []))
@example(MorphismScript.build(SquareComplex.build(2, [((0, 0), (1, 1))]),
                              [CreateSquare(-1), Zip((2, 1), (10, 0))]))
def test_emit_script_is_json_dumps(script):
    assert formats.emit_script(script) == _dumped(
        formats.script_to_obj(script))


# keys and values that reach past the first checks of each parser
_KEYS = ["squares", "slack", "gluings", "chords", "loops", "source",
         "moves", "create", "glue", "fold", "zip", "0", "1", "2", "00", "-1"]
_leaves = (st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
           | st.floats() | st.text(max_size=4)
           | st.sampled_from(["+", "-"] + _KEYS))
_json = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_KEYS)
                                     | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=1000, deadline=None)
@given(_json, st.integers(0, 4))
def test_parsers_return_or_raise_parse_error(doc, square_count):
    text = json.dumps(doc)
    for parse in (formats.parse_surface, formats.parse_script,
                  lambda t: formats.parse_sutures(t, square_count)):
        try:
            parse(text)
        except formats.ParseError:
            pass


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    for parse, root in ((formats.parse_surface, "surface"),
                        (formats.parse_script, "script"),
                        (lambda t: formats.parse_sutures(t, 1), "sutures")):
        with pytest.raises(formats.ParseError,
                           match=f"^{root}: nested too deeply to read$"):
            parse(deep)
    assert "error: surface: nested too deeply to read\n" in _cli_error(
        tmp_path, capsys, "info", [deep])


# ---------------------------------------------------------------------------
# the command line on any documents


@st.composite
def _glued_squares(draw):
    # sides of squares that exist, glued in any pairs: twice, to
    # themselves, of equal parity, within one square
    n = draw(st.integers(1, 6))
    slot = st.tuples(st.integers(0, n - 1), st.integers(0, 3))
    return SquareComplex.build(n, draw(st.lists(st.tuples(slot, slot),
                                                max_size=8)),
                               slack=draw(st.booleans()))


_any_complex = _glued_squares() | _complexes()


def _fixture_docs(kind):
    # so that some pairs are valid and reach the engine
    return st.sampled_from([json.loads(path.read_text()) for path in
                            sorted(FIXTURES.glob(f"*.{kind}.json"))])


def _surface_doc():
    return (st.builds(formats.surface_to_obj, _any_complex) | _json
            | _fixture_docs("surface"))


def _sutures_doc():
    return (st.builds(formats.sutures_to_obj, _systems()) | _json
            | _fixture_docs("sutures"))


def _script_doc():
    return (st.builds(formats.script_to_obj,
                      st.builds(MorphismScript.build, _any_complex,
                                st.lists(_moves, max_size=6)))
            | _json | _fixture_docs("script"))


@settings(max_examples=400, deadline=None)
@given(surface=_surface_doc(), sutures=_sutures_doc(), script=_script_doc(),
       edge=st.integers(-1, 8), direction=st.sampled_from(["ccw", "cw"]))
@example(surface={"squares": 2, "gluings": [[[0, 1], [0, 0]], [[0, 1], [1, 0]]],
                  "slack": True},
         sutures={"chords": {}}, script={"source": {"squares": 0}},
         edge=0, direction="ccw")
@example(surface={"squares": 1, "gluings": [[[0, 0], [0, 3]]]},
         sutures={"chords": {"0": [[[1, 0], [2, 0]]]}},
         script={"source": {"squares": 1, "gluings": [[[0, 0], [0, 3]]],
                            "slack": True}, "moves": []},
         edge=0, direction="cw")
def test_cli_exits_0_or_1_on_any_documents(surface, sutures, script, edge,
                                           direction):
    # complexes with sides glued twice, of equal parity or to themselves,
    # internal vertices without slack, and systems of any shape: every
    # command ends in a result or a typed error, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("surface", surface), ("sutures", sutures),
                          ("script", script)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        out = os.path.join(tmp, "out.svg")
        s, g, p = paths["surface"], paths["sutures"], paths["script"]
        for argv in (["validate", s], ["validate", s, g], ["info", s],
                     ["element", s, g], ["apply", p], ["apply", p, g],
                     ["slide", s, "--edge", str(edge), "--dir", direction],
                     ["render", s, g, "-o", out]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1), argv
