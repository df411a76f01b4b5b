import json

import pytest

from hdg.cli import main
from hdg.fileio import load_instance, save_instance, serialize_outcome
from hdg.fixtures import example1
from hdg.stability import Outcome


@pytest.fixture()
def example1_path(tmp_path):
    path = tmp_path / "example1.json"
    save_instance(example1(), path)
    return str(path)


def test_solve_auto_yes(example1_path, tmp_path, capsys):
    out = tmp_path / "outcome.json"
    assert main(["solve", example1_path, "--notion", "ns", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["check", example1_path, str(out), "--notion", "ns"]) == 0
    text = capsys.readouterr().out
    assert "YES" in text and "stable" in text


def test_solve_no_exit_code(example1_path):
    # sigma=1 forces singletons, which agent b deserts for the grand
    # coalition's even split?  No: deviations ignore budgets, but the
    # all-singleton outcome is unstable because c prefers pairing with d.
    assert main(["solve", example1_path, "--sigma", "1"]) == 1


def test_solve_own_nash_on_two_color_instance(example1_path):
    # Two-color orders always factor through the own-color ratio.
    assert main(["solve", example1_path, "--algo", "own-nash"]) == 0


def test_own_nash_rejects_three_color_mixture(tmp_path):
    from hdg.core import TierList, make_instance

    bad = make_instance(
        [0, 1, 2],
        {0: TierList([[(1, 1, 0)], [(1, 0, 1)]]), 1: TierList([]), 2: TierList([])},
        types=[0, 1, 2],
        gamma=3,
    )
    path = tmp_path / "bad.json"
    save_instance(bad, path)
    assert main(["solve", str(path), "--algo", "own-nash"]) == 2


def test_check_detects_deviation(example1_path, tmp_path, capsys):
    inst = example1()
    out = tmp_path / "outcome.json"
    out.write_text(serialize_outcome(inst, Outcome.from_sets([{0, 2, 3}, {1}])))
    assert main(["check", example1_path, str(out), "--notion", "ns"]) == 1
    assert "agent b" in capsys.readouterr().out
    assert main(["check", example1_path, str(out), "--notion", "is"]) == 0


def test_check_rejects_non_partition(example1_path, tmp_path):
    out = tmp_path / "outcome.json"
    out.write_text(json.dumps({"coalitions": [["a", "b"]]}))
    assert main(["check", example1_path, str(out)]) == 2


def test_malformed_instance_file_is_error(example1_path, tmp_path, capsys):
    with open(example1_path) as fh:
        good = json.load(fh)
    for key in ("n", "gamma", "agents", "types", "sigma", "rho1", "rho2"):
        for label, data in (
            ("missing", {k: v for k, v in good.items() if k != key}),
            ("ill-typed", {**good, key: "4"}),
        ):
            path = tmp_path / f"{label}-{key}.json"
            path.write_text(json.dumps(data))
            assert main(["solve", str(path)]) == 2, (label, key)
            assert f"'{key}'" in capsys.readouterr().err
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["solve", str(path)]) == 2


def test_solve_rejects_a_witness_that_fails_its_check(example1_path, monkeypatch, capsys):
    # A wrong solver: every agent alone, which agent b deserts to join c.
    from hdg import cli

    wrong = lambda instance, notion: Outcome.from_sets([{a} for a in range(instance.n)])
    monkeypatch.setitem(cli.SOLVERS, "brute", wrong)
    assert main(["solve", example1_path, "--algo", "brute"]) == 2
    captured = capsys.readouterr()
    assert "brute returned an outcome that fails its check" in captured.err
    assert "YES" not in captured.out


def test_missing_file_is_error():
    assert main(["solve", "/nonexistent/instance.json"]) == 2


def test_gen_and_solve_roundtrip(tmp_path):
    src = tmp_path / "x3c.json"
    src.write_text(json.dumps({"universe": [1, 2, 3], "family": [[1, 2, 3]]}))
    out = tmp_path / "instance.json"
    assert main(["gen", "x3c", "--source", str(src), "--out", str(out)]) == 0
    inst = load_instance(out)
    assert inst.n == 6
    assert main(["solve", str(out), "--algo", "brute"]) == 0

    psrc = tmp_path / "partition.json"
    psrc.write_text(json.dumps({"values": [1, 3]}))
    pout = tmp_path / "partition_instance.json"
    assert main(["gen", "partition", "--source", str(psrc), "--out", str(pout)]) == 0
    assert main(["solve", str(pout), "--algo", "brute"]) == 1


def test_gen_rejects_bad_source(tmp_path):
    src = tmp_path / "x3c.json"
    src.write_text(json.dumps({"universe": [1, 2], "family": []}))
    out = tmp_path / "instance.json"
    assert main(["gen", "x3c", "--source", str(src), "--out", str(out)]) == 2


def test_bench_smoke(capsys):
    assert main(["bench", "--seed", "1", "--count", "25"]) == 0
    assert "all solvers agree" in capsys.readouterr().out


def test_solver_exit_codes_consistent(example1_path):
    for algo in ["brute", "brute-positions", "colors-size", "colors-types", "colors-ntcoal", "colors-totcoal"]:
        for notion, code in (("ns", 0), ("is", 0)):
            assert main(["solve", example1_path, "--algo", algo, "--notion", notion]) == code
        assert main(["solve", example1_path, "--algo", algo, "--rho1", "1"]) == 1
