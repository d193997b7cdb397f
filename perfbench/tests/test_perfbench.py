"""Tests of the benchmark itself: tracing, checks and seeding.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

run.use_sources()

import tracer  # noqa: E402
import workloads  # noqa: E402
from girthforge import cli, gf, graph, lines4, oracle, verify  # noqa: E402
from girthforge.verify import ClaimResult, VerifyReport  # noqa: E402
from workloads import Run, Workload, call_cli  # noqa: E402


def small_body(r: Run) -> None:
    """A few seconds' worth of every traced layer, on small fields."""
    for argv in (("verify", "--p", "3", "--k", "3"), ("theta", "--p", "2", "--k", "4")):
        r.check(" ".join(argv), r.timed("first_s", lambda: call_cli(*argv))[0] == 0)
    out = r.workdir / "g.txt"
    r.timed("first_s", lambda: call_cli("generate", "--p", "2", "--m", "2", "--k", "2", "--out", str(out)))
    _, g = r.timed("second_s", lambda: workloads.read_graph(out))
    r.check("find_c4", r.timed("second_s", lambda: verify.find_c4(g)) is None)
    r.timed("second_s", lambda: call_cli("conjecture-check", "--p", "2"))
    seed = str(r.inputs.randrange(1000))
    r.timed("second_s", lambda: call_cli("conjecture-greedy", "--p", "2", "--seed", seed))


SMALL = Workload("small", small_body, lambda r: None, ("first_s", "second_s"), ((2, 1),), (2, 1))


def snapshot() -> dict[tuple[int, str], object]:
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "girthforge"]
    owners += [gf.Field, lines4.C4FreeFamily]
    return {(id(o), a): v for o in owners for a, v in list(vars(o).items())}


def test_two_traced_runs_give_identical_counts(tmp_path):
    results = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        metrics = run.run_traced(SMALL, Run(7, workdir), 0.01, workdir / "trace.json")
        results.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert results[0] == results[1]
    counts = results[0]
    for key in ("gf.mul_calls", "moment.points_on_calls", "verify.l4_roots",
                "lines4.intersect_calls", "lines4.try_add_calls"):
        assert counts[key] > 0, key


def test_layer_times_nest():
    rec = tracer.Recorder()
    with tracer.tracing(rec):
        call_cli("verify", "--p", "5", "--k", "3")
    m = tracer.layer_metrics(rec)
    assert m["gf.mul_calls"] > 0 and m["verify.c6_s"] > 0
    assert 0 <= m["graph.build_self_s"] <= m["graph.build_s"]
    assert 0 <= m["cli.self_s"] < m["graph.build_s"] + m["verify.c6_s"]
    names = {s[0] for s in rec.spans}
    assert {"cli.main", "gf.make_field", "graph.build", "verify.count_cycles.6"} <= names


def test_workload_names_match():
    assert run.NAMES == tuple(workloads.WORKLOADS)


def test_every_wrapped_function_is_restored():
    before = snapshot()
    rec = tracer.Recorder()
    with pytest.raises(RuntimeError):
        with tracer.tracing(rec):
            assert gf.Field.mul is not before[(id(gf.Field), "mul")]
            assert cli.build is not before[(id(cli), "build")]
            raise RuntimeError("stop inside the traced block")
    assert snapshot() == before
    assert all(tracer.bindings(t) for t in tracer.TARGETS)


def test_tampered_artifact_fails_the_run(tmp_path, monkeypatch):
    real_build = graph.build
    monkeypatch.setattr(cli, "build", lambda field, k: real_build(gf.make_field(2), 2))
    r = Run(0, tmp_path)
    workloads.ext_roundtrip(r)
    assert r.attempted == 3 and r.failed >= 1
    assert r.failures[0] == "generate GF(25) k=3"


def test_tampered_output_fails_the_run(tmp_path, monkeypatch):
    failing = VerifyReport((ClaimResult("order", False, 0.0),))
    monkeypatch.setattr(cli, "verify_construction", lambda field, k, fast=False: failing)
    monkeypatch.setattr(cli, "max_l4_paths", lambda g: (3, (0, 1), []))
    monkeypatch.setattr(cli, "build", lambda field, k: None)
    r = Run(0, tmp_path)
    workloads.verify_claims(r)
    assert (r.attempted, r.failed) == (3, 3)


def test_exception_in_the_program_counts_as_failed(tmp_path, monkeypatch):
    def boom(*args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "verify_construction", boom)
    r = Run(0, tmp_path)
    with pytest.raises(workloads.Failed):
        workloads.verify_claims(r)
    assert (r.attempted, r.failed) == (1, 1)


def test_seed_reaches_greedy_order_and_oracle_samples(tmp_path, monkeypatch):
    greedy_seeds = []
    monkeypatch.setattr(cli, "moment_seed", lambda f: [])
    monkeypatch.setattr(cli, "greedy_c4free", lambda f, seed: greedy_seeds.append(seed) or [])
    pairs = []
    real_naive = oracle.naive_l4_paths
    monkeypatch.setattr(oracle, "naive_l4_paths", lambda g, p, p2: pairs.append((p, p2)) or real_naive(g, p, p2))
    for seed in (1, 1, 2):
        r = Run(seed, tmp_path)
        workloads.lines4_search(r)
        workloads.verify_claims_oracle(r)
        assert r.oracle_disagreements == 0
    assert greedy_seeds[0] == greedy_seeds[1] != greedy_seeds[2]
    n = len(pairs) // 3
    assert pairs[:n] == pairs[n : 2 * n] != pairs[2 * n :]


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe()
    with probe.sampling():
        call_cli("verify", "--p", "5", "--k", "3")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples and probe.factor() > 0
    assert probe.factor(len(probe.samples)) == probe.factor()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-claims", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
