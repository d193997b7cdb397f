"""Command-line front end for generation, verification and exploration.

Reports go to stdout and artifacts to files named by --out; output for
a given (command, flags, seed) is byte-identical across runs. Exit
codes: 0 success, 1 a verified claim failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from girthforge.gf import Field, make_field
from girthforge.graph import build, export, stats
from girthforge.lines4 import (
    genline_count,
    genline_text,
    greedy_c4free,
    has_line_c4,
    moment_seed,
    write_family,
)
from girthforge.verify import max_l4_paths, verify_construction


def poly_str(modulus: tuple[int, ...]) -> str:
    terms = []
    for i in range(len(modulus) - 1, -1, -1):
        c = modulus[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(terms) if terms else "0"


def _cmd_field_info(f: Field, args: argparse.Namespace) -> int:
    print(f"p={f.p} m={f.m} q={f.q} modulus={poly_str(f.modulus)}")
    return 0


def _cmd_generate(f: Field, args: argparse.Namespace) -> int:
    g = build(f, args.k)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        export(g, fh, args.format)
    print(f"wrote {args.out} nP={g.nP} nL={g.nL} e={g.edge_count()}")
    return 0


def _cmd_stats(f: Field, args: argparse.Namespace) -> int:
    s = stats(build(f, args.k))
    reg = "true" if s.is_regular else "false"
    print(
        f"nP={s.nP} nL={s.nL} edges={s.edges} "
        f"minDeg={s.min_deg} maxDeg={s.max_deg} regular={reg}"
    )
    return 0


def _cmd_verify(f: Field, args: argparse.Namespace) -> int:
    report = verify_construction(f, args.k)
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


def _cmd_theta(f: Field, args: argparse.Namespace) -> int:
    count, pair = max_l4_paths(build(f, args.k))
    where = f"{pair[0]},{pair[1]}" if pair else "none"
    print(f"max-l4-paths {count} pair={where}")
    ok = count <= 2
    print(f"theta4-bound {'PASS' if ok else 'FAIL'} -")
    return 0 if ok else 1


def _cmd_conjecture_check(f: Field, args: argparse.Namespace) -> int:
    witness = has_line_c4(f, moment_seed(f))
    if witness is None:
        print("line-c4 none")
    else:
        print("line-c4 found")
        for line in witness.lines:
            print(f"witness-line {genline_text(line)}")
        for pt in witness.points:
            print(f"witness-point {','.join(map(str, pt))}")
    return 0


def _cmd_conjecture_greedy(f: Field, args: argparse.Namespace) -> int:
    family = greedy_c4free(f, args.seed)
    print(f"greedy-family size={len(family)} total={genline_count(f)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_family(f, family, fh)
        print(f"wrote {args.out}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthforge",
        description="incidence graphs from moment-curve lines over GF(p^m), "
        "their short-even-cycle checks, and line-quadrilateral search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, with_k: bool):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--p", type=int, required=True, help="field characteristic")
        sp.add_argument("--m", type=int, default=1, help="field extension degree")
        if with_k:
            sp.add_argument("--k", type=int, required=True, help="ambient dimension")
        sp.set_defaults(handler=handler)
        return sp

    command("field-info", _cmd_field_info, "show the field and its modulus", False)
    sp = command(
        "generate", _cmd_generate, "build the incidence graph and write it", True
    )
    sp.add_argument("--out", required=True, help="output path")
    sp.add_argument("--format", choices=("v1", "bare"), default="v1")
    command("stats", _cmd_stats, "vertex, edge and degree counts", True)
    command("verify", _cmd_verify, "check the structural claims", True)
    command("theta", _cmd_theta, "max length-4 paths between P vertices", True)
    command(
        "conjecture-check",
        _cmd_conjecture_check,
        "look for a C4 of lines in the moment family",
        False,
    )
    sp = command(
        "conjecture-greedy",
        _cmd_conjecture_greedy,
        "grow a maximal C4-of-lines-free family",
        False,
    )
    sp.add_argument("--seed", type=int, default=0, help="pseudorandom seed")
    sp.add_argument("--out", help="family file path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(make_field(args.p, args.m), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
