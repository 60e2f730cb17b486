"""Command-line interface.

Exit codes: 0 success or all checks passed, 1 validation or check failure,
2 usage error. The SQFT_SEED environment variable overrides the default
check seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb
from pathlib import Path

from . import census, formats
from .disc import bypass_relations, disc_element
from .engine import (
    apply_script_to_sutures, compile_script, compiled_operator, element_trace,
    naturality_holds, suture_element,
)
from .quad import diagonal_slide
from .regions import euler_class, regions
from .surface import invariants, validate_complex
from .sutures import bypass_surgery, bypass_triples, validate_sutures
from .svg import render_svg
from .tensor import Z2Tensor, gf2_rank, is_homogeneous


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_surface(path: str):
    return formats.parse_surface(_read(path))


def cmd_validate(args) -> int:
    c = _load_surface(args.surface)
    report = validate_complex(c)
    problems = list(report.problems)
    if args.sutures:
        g = formats.parse_sutures(_read(args.sutures), c.square_count)
        problems += list(validate_sutures(c, g).problems)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 1
    print("valid")
    return 0


def cmd_info(args) -> int:
    c = _load_surface(args.surface)
    inv = invariants(c)
    print(f"squares            {inv.square_count}")
    print(f"N (vertex pairs)   {inv.n}")
    print(f"euler chi          {inv.chi}")
    print(f"boundary circles   {inv.boundary_components}")
    print(f"components         {inv.components}")
    print(f"genus              {inv.genus}")
    print(f"index              {inv.index}")
    print(f"gluing number      {inv.gluing_number}")
    print(f"internal vertices  {len(c.internal_vertices())}")
    return 0


def cmd_element(args) -> int:
    c = _load_surface(args.surface)
    g = formats.parse_sutures(_read(args.sutures), c.square_count)
    report = validate_sutures(c, g)
    if not report.ok:
        for p in report.problems:
            print(f"invalid: {p}")
        return 1
    if args.trace:
        elem, lines = element_trace(c, g)
        for line in lines:
            print(line)
    else:
        elem = suture_element(c, g)
    e = euler_class(c, g)
    print(f"euler class {e}")
    print("element " + _element_text(elem))
    return 0


def cmd_apply(args) -> int:
    script = formats.parse_script(_read(args.script))
    compiled = compile_script(script)
    lin, fact = compiled_operator(compiled)
    print(f"target surface: {compiled.target.square_count} squares, "
          f"{len(compiled.target.gluings)} internal edges")
    if args.factorize:
        print("factorization:")
        for op in fact.ops:
            acted = f" acting on {list(op.acted)}" if op.acted else ""
            print(f"  {op.kind} factor {op.factor} "
                  f"({op.arity_in}->{op.arity_out}){acted}")
        if not fact.ops:
            print("  identity")
    if args.sutures:
        src = script.source
        g = formats.parse_sutures(_read(args.sutures), src.square_count)
        target, out = apply_script_to_sutures(script, g)
        elem = lin(suture_element(src, g))
        print("image sutures:")
        sys.stdout.write(formats.emit_sutures(out))
        print("image element " + _element_text(elem))
    return 0


def _element_text(elem) -> str:
    """A sum of basis words, or "0" for the zero element. The one word of
    arity 0 reads "" on its own, so it prints as "1 (empty word)"."""
    words = elem.word_strings()
    if not words:
        return "0"
    return " + ".join(w or "1 (empty word)" for w in words)


def cmd_slide(args) -> int:
    c = _load_surface(args.surface)
    edges = c.sorted_gluings()
    if not 0 <= args.edge < len(edges):
        print(f"no internal edge {args.edge} (have {len(edges)})")
        return 1
    out, record = diagonal_slide(c, edges[args.edge], args.dir)
    sys.stdout.write(formats.emit_surface(out))
    print(f"slide {record.direction}: removed {record.removed_edge}, "
          f"added {record.added_edge}", file=sys.stderr)
    return 0


def cmd_census(args) -> int:
    c = census.disc_complex(args.n)
    systems = census.enumerate_disc_sutures(args.n)
    print(f"disc with {2 * args.n} vertices: {len(systems)} suture classes "
          f"(catalan {census.catalan(args.n)})")
    tally: dict[int, int] = {}
    for s in systems:
        e = euler_class(c, s)
        tally[e] = tally.get(e, 0) + 1
    for e in sorted(tally):
        print(f"  euler class {e:+d}: {tally[e]} classes")
    return 0


def cmd_render(args) -> int:
    c = _load_surface(args.surface)
    g = None
    if args.sutures:
        g = formats.parse_sutures(_read(args.sutures), c.square_count)
    Path(args.output).write_text(render_svg(c, g))
    print(f"wrote {args.output}")
    return 0


# -- check suites -----------------------------------------------------------


def _random_pairs(seed: int, cases: int, max_squares: int = 6):
    made = 0
    attempt = 0
    while made < cases:
        script = census.random_surface(seed + attempt, max_squares)
        attempt += 1
        c = compile_script(script).target
        if c.square_count == 0:
            continue
        g = census.random_sutures(seed + attempt, c)
        made += 1
        yield c, g


def check_bypass(seed: int, cases: int) -> list[str]:
    fails = []
    for i, (c, g) in enumerate(_random_pairs(seed, cases)):
        el = suture_element(c, g)
        for edge, t in bypass_triples(c, g):
            up = suture_element(c, bypass_surgery(c, g, edge, t, "up"))
            down = suture_element(c, bypass_surgery(c, g, edge, t, "down"))
            if (el + up + down).words:
                fails.append(f"case {i}: triple {edge},{t} does not cancel")
    return fails


def check_euler(seed: int, cases: int) -> list[str]:
    fails = []
    for i, (c, g) in enumerate(_random_pairs(seed, cases)):
        inv = invariants(c)
        dec = regions(c, g)
        e = dec.chi_plus - dec.chi_minus
        if euler_class(c, g) != e:
            fails.append(f"case {i}: euler class disagrees with regions")
        if 2 * dec.chi_plus != inv.n + inv.chi + e:
            fails.append(f"case {i}: chi+ identity fails")
        if 2 * dec.chi_minus != inv.n + inv.chi - e:
            fails.append(f"case {i}: chi- identity fails")
        if not (-inv.index <= e <= inv.index) or (e - inv.index) % 2:
            fails.append(f"case {i}: euler bound fails")
        el = suture_element(c, g)
        if not is_homogeneous(el, e):
            fails.append(f"case {i}: element not homogeneous")
    return fails


def check_naturality(seed: int, cases: int) -> list[str]:
    # each case extends a random surface of 1-4 squares, so that every
    # word of its source is a distinct check
    fails = []
    for i in range(cases):
        source = compile_script(census.random_surface(seed + i, 4)).target
        script = census.random_extension(seed + i, source, 8)
        for bits in range(1 << source.square_count):
            if not naturality_holds(script, bits):
                fails.append(f"case {i}: naturality fails at word {bits}")
    return fails


def _dominated(u: int, v: int, arity: int) -> bool:
    """Whether every prefix of word u, factor 0 first, holds no more 1s than
    the same prefix of word v."""
    ones_u = ones_v = 0
    for i in range(arity):
        ones_u += (u >> i) & 1
        ones_v += (v >> i) & 1
        if ones_u > ones_v:
            return False
    return True


def _has_dominance_extremes(words: frozenset[int], arity: int) -> bool:
    """Whether the words have exactly one least and one greatest member in
    the prefix-count order."""
    least = sum(all(_dominated(u, v, arity) for v in words) for u in words)
    greatest = sum(all(_dominated(v, u, arity) for v in words) for u in words)
    return least == greatest == 1


def check_census(seed: int, cases: int) -> list[str]:
    fails = []
    top = min(6, max(3, 2 + cases // 40))
    for n in range(2, top + 1):
        c = census.disc_complex(n)
        systems = census.enumerate_disc_sutures(n)
        if len(set(systems)) != census.catalan(n):
            fails.append(f"disc n={n}: class count != catalan")
            continue
        by_grade: dict[int, list[int]] = {}
        matchings = census.noncrossing_matchings(2 * n)
        for i, (m, s) in enumerate(zip(matchings, systems)):
            el = suture_element(c, s)
            if not _has_dominance_extremes(el.words, el.arity):
                fails.append(f"disc n={n}: class {i} has no single least "
                             f"and greatest word")
            for terms in bypass_relations(n, m):
                if sum((disc_element(n, t) for t in terms),
                       Z2Tensor.zero(n - 1)).words:
                    fails.append(f"disc n={n}: a bypass relation at class "
                                 f"{i} does not cancel")
            by_grade.setdefault(euler_class(c, s), []).append(
                sum(1 << w for w in el.words))
        for e, rows in by_grade.items():
            if gf2_rank(rows) != comb(n - 1, (n - 1 + e) // 2):
                fails.append(f"disc n={n}: rank at grade {e} wrong")
    return fails


SUITES = {
    "bypass": check_bypass,
    "euler": check_euler,
    "naturality": check_naturality,
    "census": check_census,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _census_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 2 <= value <= 9:
        raise argparse.ArgumentTypeError(
            f"expected an integer from 2 to 9, got {text!r}")
    return value


def cmd_check(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SQFT_SEED", "0"))
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        fails = SUITES[name](seed, args.cases)
        status = "pass" if not fails else "FAIL"
        print(f"{name:<12} {status}")
        for f in fails[:10]:
            print(f"    {f}")
        failed = failed or bool(fails)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqft",
        description="Signed quadrangulated surfaces, sutures, and their "
                    "GF(2) tensor calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a surface (and sutures)")
    p.add_argument("surface")
    p.add_argument("sutures", nargs="?")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("info", help="invariants of a surface")
    p.add_argument("surface")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("element", help="suture element of a curve system")
    p.add_argument("surface")
    p.add_argument("sutures")
    p.add_argument("--trace", action="store_true",
                   help="print the bypass recursion tree")
    p.set_defaults(fn=cmd_element)

    p = sub.add_parser("apply", help="run a script; optionally push sutures")
    p.add_argument("script")
    p.add_argument("sutures", nargs="?")
    p.add_argument("--factorize", action="store_true",
                   help="print the creation/annihilation factorization")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("slide", help="diagonal slide at an internal edge")
    p.add_argument("surface")
    p.add_argument("--edge", type=int, required=True,
                   help="index into the sorted internal edges")
    p.add_argument("--dir", choices=("ccw", "cw"), default="ccw")
    p.set_defaults(fn=cmd_slide)

    p = sub.add_parser("census", help="enumerate suture classes")
    p.add_argument("family", choices=("disc",))
    p.add_argument("--n", type=_census_size, required=True,
                   help="half the boundary vertex count, 2 to 9")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("check", help="run property suites")
    p.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cases", type=_positive_int, default=25)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("render", help="draw a surface (and sutures) as SVG")
    p.add_argument("surface")
    p.add_argument("sutures", nargs="?")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (formats.ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early, as `sqft census ... | head -1`
        # does; send what is left to devnull so the exit flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
