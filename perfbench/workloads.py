"""The benchmark's workloads, their pinned outputs and their oracle checks.

Each workload is a body of user-facing steps (CLI commands and public
calls) that one caller runs in a closed loop, plus an oracle phase that
runs once, after the timed loop. Every command or call whose output is
checked is one operation; a wrong output or an exception fails it.

Why these two:

- verify-claims: the exact C6 and C10 searches and the length-4 path
  statistic on prime and tiny fields, where field arithmetic and graph
  build are a small share, then the line-quadrilateral search: all-pairs
  line intersection in GF(4) with a witness, and a seeded greedy
  C4-of-lines-free family over GF(3) that must have no witness. Orbit-
  reduced checks and the lines4 layer show here; a change to GF(p^m)
  tables should not.
- ext-roundtrip: the GF(25), k=3 graph is built, exported, read back and
  checked for C4s. Extension-field arithmetic dominates the build and
  find_c4's pair hash sets the memory peak. No cycle search runs.

The line-quadrilateral steps share a workload with the cycle checks
rather than having their own: on a shared 2-vCPU host, runs shorter than
a minute did not hold the run-to-run spread within the bounds, and two
workloads of one-minute runs keep a full set of repeated runs under an
hour.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from girthforge import cli, gf, graph, lines4, moment, oracle, verify

# sha256 of `generate --p 5 --m 2 --k 3` (4 409 803 bytes).
GF25_K3_SHA256 = "503a6cb7d2003db9a1cf5ccff293b7c4aeb456b7441cb3c16943b4b7e2a6985e"
GF25_K3_WROTE = "wrote {out} nP=15625 nL=15625 e=390625\n"

VERIFY_Q7_K4 = "order PASS -\nedges PASS -\nregular PASS -\nc4-free PASS -\nc6-free PASS -\n"
VERIFY_Q4_K5 = VERIFY_Q7_K4 + "c10-free PASS -\n"
THETA_Q7_K4 = "max-l4-paths 2 pair=0,50\ntheta4-bound PASS -\n"
LINE_C4_Q4 = (
    "line-c4 found\n"
    "witness-line dir=1,0,0,0 base=0,0,0,0\n"
    "witness-line dir=1,1,1,1 base=0,1,1,1\n"
    "witness-line dir=1,0,0,0 base=0,1,1,1\n"
    "witness-line dir=1,1,1,1 base=0,0,0,0\n"
    "witness-point 1,0,0,0\n"
    "witness-point 0,1,1,1\n"
    "witness-point 1,1,1,1\n"
    "witness-point 0,0,0,0\n"
)
# Greedy family over GF(3)^4 for the CLI's default seed 0.
GREEDY_Q3_SEED0 = "greedy-family size=84 total=1080\n"
GREEDY_RE = re.compile(r"greedy-family size=(\d+) total=1080\nwrote (.*)\n")

ORACLE_SAMPLES = 100


class Failed(Exception):
    """An operation failed; the rest of this body iteration is skipped."""


class Run:
    """Checked-operation counts and step times of one benchmark run."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # Workload inputs (greedy orders) and oracle samples draw apart, so
        # adding a sample does not change the inputs.
        self.inputs = random.Random(f"{seed}/inputs")
        self.samples = random.Random(f"{seed}/oracle")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.oracle_checks = 0
        self.oracle_disagreements = 0
        # Step times of the current repetition, checks excluded.
        self.steps: dict[str, float] = {}
        self.notes: dict[str, float] = {}
        # Called around each timed operation; tracing installs its wrappers here.
        self.around: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext

    def timed(self, step: str, op: Callable[[], object]):
        """Run one operation of the program, adding its time to the step.

        `op` looks the program's functions up when called, so that it
        reaches the wrappers `around` installs.
        """
        t0 = time.perf_counter()
        try:
            with self.around():
                return op()
        except Exception as exc:  # the program failed; count it and move on
            self.check(f"{step}: raised {exc!r}", False)
            raise Failed from exc
        finally:
            self.steps[step] = self.steps.get(step, 0.0) + time.perf_counter() - t0

    def repetition(self, workload: Workload) -> dict[str, float]:
        """One repetition of the workload's body; its step times."""
        self.steps = dict.fromkeys(workload.steps, 0.0)
        try:
            workload.body(self)
        except Failed:
            pass
        return dict(self.steps)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def oracle_check(self, what: str, ok: bool) -> None:
        self.oracle_checks += 1
        if not self.check(f"oracle: {what}", ok):
            self.oracle_disagreements += 1


def call_cli(*argv: str) -> tuple[int, str]:
    """Run the girthforge command in-process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_graph(path: Path) -> tuple[str, graph.BiGraph]:
    text = path.read_text(encoding="utf-8")
    return text, graph.parse(text)


def read_family(path: Path) -> tuple[int, int, list[lines4.GenLine]]:
    return lines4.parse_family(path.read_text(encoding="utf-8"))


# -- bodies -------------------------------------------------------------------


def verify_claims(run: Run) -> None:
    """The cycle and path checks of verify-claims."""
    for step, argv, expected in (
        ("verify_s", ("verify", "--p", "7", "--k", "4"), VERIFY_Q7_K4),
        ("theta_s", ("theta", "--p", "7", "--k", "4"), THETA_Q7_K4),
        ("verify_s", ("verify", "--p", "2", "--m", "2", "--k", "5"), VERIFY_Q4_K5),
    ):
        got = run.timed(step, lambda: call_cli(*argv))
        run.check(" ".join(argv), got == (0, expected))


def ext_roundtrip(run: Run) -> None:
    out = run.workdir / "gf25-k3.txt"
    argv = ("generate", "--p", "5", "--m", "2", "--k", "3", "--out", str(out))
    got = run.timed("generate_s", lambda: call_cli(*argv))
    run.check(
        "generate GF(25) k=3",
        got == (0, GF25_K3_WROTE.format(out=out)) and sha256_file(out) == GF25_K3_SHA256,
    )
    run.notes["graph.export_bytes"] = out.stat().st_size
    text, g = run.timed("load_check_s", lambda: read_graph(out))
    run.check("to_text(parse(text)) == text", graph.to_text(g) == text)
    del text  # not held through find_c4, whose peak is the workload's
    witness = run.timed("load_check_s", lambda: verify.find_c4(g))
    run.check("find_c4 on the imported graph is None", witness is None)


def lines4_search(run: Run) -> None:
    """The line-quadrilateral search of verify-claims."""
    conj = ("conjecture-check", "--p", "2", "--m", "2")
    got = run.timed("conjecture_check_s", lambda: call_cli(*conj))
    run.check("conjecture-check q=4 witness", got == (0, LINE_C4_Q4))
    out = run.workdir / "family-q3.txt"
    greedy_seed = run.inputs.randrange(1 << 31)
    argv = ("conjecture-greedy", "--p", "3", "--seed", str(greedy_seed), "--out", str(out))
    rc, text = run.timed("greedy_s", lambda: call_cli(*argv))
    m = GREEDY_RE.fullmatch(text)
    run.check(" ".join(argv), rc == 0 and m is not None and m[2] == str(out))
    p, deg, family = run.timed("greedy_s", lambda: read_family(out))
    run.check("family file", (p, deg) == (3, 1) and m is not None and len(family) == int(m[1]))
    f3 = gf.make_field(3)
    witness = run.timed("greedy_s", lambda: lines4.has_line_c4(f3, family))
    run.check("greedy family has no C4 of lines", witness is None)


def claims_and_lines4(run: Run) -> None:
    verify_claims(run)
    lines4_search(run)


# -- oracle phases --------------------------------------------------------------


def _check_field(run: Run, f: gf.Field) -> None:
    """Seeded samples of the field axioms."""
    rng = run.samples
    for _ in range(ORACLE_SAMPLES):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        ok = (
            f.add(a, b) == f.add(b, a)
            and f.mul(a, b) == f.mul(b, a)
            and f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            and f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            and f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            and f.sub(f.add(a, b), b) == a
            and f.add(a, f.neg(a)) == 0
            and f.mul(a, 1) == a
            and (a == 0 or f.mul(a, f.inv(a)) == 1)
        )
        run.oracle_check(f"{f} axioms at {(a, b, c)}", ok)


def _sample_incidences(run: Run, f: gf.Field, k: int):
    """Seeded (point, line through it, line holds it) from moment.line_through."""
    rng = run.samples
    for _ in range(ORACLE_SAMPLES):
        x = tuple(rng.randrange(f.q) for _ in range(k))
        line = moment.line_through(f, x, rng.randrange(f.q))
        yield x, line, x in moment.points_on(f, line) and line.base[0] == 0


def verify_claims_oracle(run: Run) -> None:
    rng = run.samples
    f7 = gf.make_field(7)
    g = graph.build(f7, 4)
    pairs = [(0, 50)] + [(rng.randrange(g.nP), rng.randrange(g.nP)) for _ in range(ORACLE_SAMPLES)]
    for p, p2 in pairs:
        fast = verify.l4_path_counts_from(g, p).get(p2, 0)
        run.oracle_check(f"l4 paths {p}-{p2}", fast == oracle.naive_l4_paths(g, p, p2))
    for x, line, ok in _sample_incidences(run, f7, 4):
        edge = graph.point_id(f7, x) in g.adjL[graph.line_id(f7, line)]
        run.oracle_check(f"q=7 k=4 incidence {x} {line}", ok and edge)
    _check_field(run, f7)
    _check_field(run, gf.make_field(2, 2))


def ext_roundtrip_oracle(run: Run) -> None:
    f25 = gf.make_field(5, 2)
    lines = (run.workdir / "gf25-k3.txt").read_text(encoding="utf-8").splitlines()
    n = f25.q**3
    edges = set(lines[1:])
    del lines
    for x, line, ok in _sample_incidences(run, f25, 3):
        edge = f"{graph.point_id(f25, x)} {n + graph.line_id(f25, line)}" in edges
        run.oracle_check(f"GF(25) k=3 incidence {x} {line}", ok and edge)
    _check_field(run, f25)


def lines4_search_oracle(run: Run) -> None:
    rng = run.samples
    f4, f3 = gf.make_field(2, 2), gf.make_field(3)
    seed_lines = set(lines4.moment_seed(f4))
    for x, line, ok in _sample_incidences(run, f4, 4):
        mv = moment.moment_vector(f4, line.z, 4)
        gl = lines4.canonical_genline(f4, x, mv)
        ok = ok and gl == lines4.GenLine(mv, line.base) and gl in seed_lines
        run.oracle_check(f"GF(4) k=4 moment line {line} as a general line", ok)
    _check_field(run, f4)
    _check_field(run, f3)
    run.oracle_check("greedy size for seed 0", call_cli("conjecture-greedy", "--p", "3") == (0, GREEDY_Q3_SEED0))
    # Maximality: a sampled non-member must close a C4 of lines.
    _, _, family = read_family(run.workdir / "family-q3.txt")
    members = set(family)
    others = [c for c in lines4.all_genlines(f3) if c not in members]
    for cand in rng.sample(others, 3):
        run.oracle_check(f"{cand} closes a C4 of lines", lines4.has_line_c4(f3, family + [cand]) is not None)


def claims_and_lines4_oracle(run: Run) -> None:
    verify_claims_oracle(run)
    lines4_search_oracle(run)


@dataclass(frozen=True)
class Workload:
    name: str
    body: Callable[[Run], None]
    oracle: Callable[[Run], None]
    # The user-facing steps; the traced run reports each one's time.
    steps: tuple[str, ...]
    # (p, m) of every field the workload uses, made during set-up.
    fields: tuple[tuple[int, int], ...]
    # The field the gf.mul_ns probe runs in.
    probe_field: tuple[int, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-claims",
            claims_and_lines4,
            claims_and_lines4_oracle,
            ("verify_s", "theta_s", "conjecture_check_s", "greedy_s"),
            ((7, 1), (2, 2), (3, 1)),
            (7, 1),
        ),
        Workload(
            "ext-roundtrip",
            ext_roundtrip,
            ext_roundtrip_oracle,
            ("generate_s", "load_check_s"),
            ((5, 2),),
            (5, 2),
        ),
    )
}
