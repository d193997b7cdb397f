import gc
import hashlib
import pathlib
import re
import subprocess
import sys

import pytest

import girthforge
from girthforge.cli import main, poly_str
from girthforge.graph import parse
from girthforge.lines4 import parse_family
from girthforge.verify import ClaimResult, VerifyReport
from helpers import CLI_ENV

BASE = [sys.executable, "-m", "girthforge"]


def invoke(*args):
    return subprocess.run(
        [*BASE, *args], capture_output=True, text=True, timeout=300, env=CLI_ENV
    )


def test_poly_str():
    assert poly_str((0, 1)) == "x"
    assert poly_str((1, 0, 1)) == "x^2+1"
    assert poly_str((1, 1, 1)) == "x^2+x+1"
    assert poly_str((2, 0, 0, 1)) == "x^3+2"


def test_verify_k3():
    r = invoke("verify", "--p", "3", "--m", "1", "--k", "3")
    assert r.returncode == 0
    assert "c6-free PASS" in r.stdout
    assert "FAIL" not in r.stdout


def test_theta_k4():
    r = invoke("theta", "--p", "2", "--m", "1", "--k", "4")
    assert r.returncode == 0
    count = int(r.stdout.split()[1])
    assert count <= 2
    assert "theta4-bound PASS" in r.stdout


def test_generate_writes_expected_header(tmp_path):
    out = tmp_path / "d2q4.txt"
    r = invoke("generate", "--p", "2", "--m", "2", "--k", "2", "--out", str(out))
    assert r.returncode == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "girthforge-v1 p=2 m=2 k=2 nP=16 nL=16 e=64"
    g = parse(text)
    assert g.edge_count() == 64


def test_export_bare(tmp_path):
    out = tmp_path / "bare.txt"
    r = invoke(
        "generate", "--p", "2", "--m", "1", "--k", "2",
        "--out", str(out), "--format", "bare",
    )
    assert r.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8
    assert all(len(ln.split()) == 2 for ln in lines)


def test_stats_line():
    r = invoke("stats", "--p", "2", "--m", "1", "--k", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "nP=4 nL=4 edges=8 minDeg=2 maxDeg=2 regular=true"


def test_field_info():
    r = invoke("field-info", "--p", "3", "--m", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "p=3 m=2 q=9 modulus=x^2+1"


def test_usage_errors_exit_2():
    assert invoke("verify", "--p", "3").returncode == 2
    assert invoke("no-such-command").returncode == 2
    assert invoke("verify", "--p", "6", "--m", "1", "--k", "2").returncode == 2
    assert invoke().returncode == 2


def test_verify_deterministic_bytes():
    args = ("verify", "--p", "3", "--m", "1", "--k", "3")
    a, b = invoke(*args), invoke(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_conjecture_greedy(tmp_path):
    out = tmp_path / "family.txt"
    r = invoke("conjecture-greedy", "--p", "2", "--seed", "0", "--out", str(out))
    assert r.returncode == 0
    assert "greedy-family size=" in r.stdout and "total=120" in r.stdout
    p, m, fam = parse_family(out.read_text(encoding="utf-8"))
    assert (p, m) == (2, 1)
    size = int(r.stdout.split("size=")[1].split()[0])
    assert len(fam) == size >= 8


def test_conjecture_check():
    r = invoke("conjecture-check", "--p", "2")
    assert r.returncode == 0
    assert r.stdout.startswith(("line-c4 none", "line-c4 found"))


def test_conjecture_check_refuses_a_big_seed_before_building_it(monkeypatch, capsys):
    import girthforge.lines4 as lines4

    def unreachable(*args):
        raise AssertionError("the seed was built")

    monkeypatch.setattr(lines4, "enumerate_lines", unreachable)
    assert main(["conjecture-check", "--p", "17"]) == 2
    assert capsys.readouterr().err == "error: family of 83521 exceeds cap 65536\n"


def test_claim_failure_exits_1(monkeypatch, capsys):
    import girthforge.cli as cli

    failing = VerifyReport(
        (ClaimResult("edges", False, None, "expected 27 edges, got 28"),)
    )
    monkeypatch.setattr(cli, "verify_construction", lambda *a, **kw: failing)
    assert main(["verify", "--p", "3", "--k", "2"]) == 1
    assert capsys.readouterr().out == "edges FAIL -\n"


def test_reports_build_positionally_and_stay_fixed():
    # Built as the benchmark's tests build them: a name, a verdict and a
    # witness, with the detail left to its default.
    claim = ClaimResult("order", False, 0.0)
    assert (claim.name, claim.passed, claim.witness, claim.detail) == ("order", False, 0.0, "")
    report = VerifyReport((claim,))
    assert report.claims == (claim,) and not report.passed
    assert report.render() == "order FAIL -\n"
    ok = ClaimResult("c4-free", True, witness=None, detail="x")
    assert VerifyReport(claims=(ok,)).passed and ok == ClaimResult("c4-free", True, None, "x")
    with pytest.raises(AttributeError):
        claim.passed = True


@pytest.mark.parametrize("module", ["girthforge", "girthforge.cli"])
def test_import_loads_no_class_generation_machinery(module):
    # dataclasses brings inspect, ast, dis and tokenize into the process:
    # about 10 ms of a 12 ms import plus make_field. A fresh interpreter
    # with no site packages shows what the import alone loads.
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(pathlib.Path(girthforge.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def test_main_in_process_round_trip(tmp_path, capsys):
    rc = main(["stats", "--p", "5", "--m", "1", "--k", "2"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("nP=25 nL=25 edges=125")
    rc = main(["generate", "--p", "2", "--m", "1", "--k", "2", "--out", str(tmp_path / "g.txt")])
    assert rc == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "3", "--k", "3"],
        ["theta", "--p", "3", "--k", "4"],
        ["conjecture-check", "--p", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_main_in_process_leaves_no_cyclic_garbage(argv, capsys):
    # What a call keeps in reference cycles waits for the cycle collector:
    # in a loop of in-process commands, a graph or an argument parser a call.
    main(argv)
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_huge_prime_is_refused_by_size_at_once(monkeypatch, capsys):
    def unreachable(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("girthforge.gf.is_prime", unreachable)
    assert main(["verify", "--p", "1000000000000000003", "--k", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: field order 1000000000000000003^1 exceeds cap 1048576\n"
    )


# sha256 of `generate` output; these fix the element encoding and modulus.
GENERATE_SHA256 = {
    (3, 2, 3): "9eaa120ce2bb51e8cbe2655be9b7f8976801829805a0d004d731cf43ad09b2c6",
    (2, 3, 4): "76bd156cf156e44283b3c76448635eb6c5c872f010b5475c1f9bf5de34f1424f",
    (5, 2, 2): "5606c1cf11bd3e132a1950a2d30b1e519a329286fe01741f622384176eb49c80",
    (2, 4, 3): "cf83a351bfa48e9a964068d8150ca8b33cdb502529e33ad25097c717337c9a8d",
}


@pytest.mark.parametrize("p, m, k", list(GENERATE_SHA256))
def test_generate_output_is_pinned(tmp_path, capsys, p, m, k):
    out = tmp_path / "g.txt"
    argv = ["generate", "--p", str(p), "--m", str(m), "--k", str(k), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_SHA256[p, m, k]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "2", "--m", "3", "--k", "4"],
        ["theta", "--p", "2", "--m", "2", "--k", "4"],
    ],
    ids=["verify", "theta"],
)
@pytest.mark.usefixtures("fresh_fields")
def test_field_tables_are_built_once_per_command(monkeypatch, capsys, argv):
    from girthforge import gf

    real = gf._build_tables
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gf, "_build_tables", counting)
    assert main(argv) == 0
    assert len(calls) == 1


def test_main_io_error_exit_2(capsys):
    rc = main(["generate", "--p", "2", "--m", "1", "--k", "2", "--out", "/nonexistent-dir/x.txt"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_surface(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    assert commands.split(",") == [
        "field-info", "generate", "stats", "verify", "theta",
        "conjecture-check", "conjecture-greedy",
    ]
    for argv in (
        ["export", "--p", "2", "--k", "2", "--out", str(tmp_path / "x.txt")],
        ["verify", "--p", "3", "--k", "3", "--fast"],
        ["verify", "--p", "3", "--k", "3", "--seed", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["conjecture-greedy", "--p", "2", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("greedy-family size=")
