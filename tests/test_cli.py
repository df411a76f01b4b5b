import json

import pytest

from hdg.cli import main
from hdg.fileio import load_instance, save_instance, serialize_outcome
from hdg.stability import Outcome

from fixtures import example1


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


def test_check_rejects_a_coalition_that_is_not_a_list(example1_path, tmp_path, capsys):
    out = tmp_path / "outcome.json"
    out.write_text(json.dumps({"coalitions": ["abcd"]}))
    assert main(["check", example1_path, str(out)]) == 2
    assert "coalition must be a list" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("palette", True),
        ("palette", 1.5),
        ("color", True),
        ("color", 1.5),
        ("type", True),
        ("type", "0"),
    ],
)
def test_non_integer_json_values_are_errors(example1_path, tmp_path, capsys, field, value):
    # A JSON true used to be read as 1: a palette [true, true] as (1, 1),
    # an agent "color": true as color 1, and the solve exited 0.
    with open(example1_path) as fh:
        data = json.load(fh)
    if field == "palette":
        block = next(b for b in data["types"].values() if b.get("tiers"))
        block["tiers"][0][0] = [value] * data["gamma"]
    else:
        data["agents"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be int" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "family, params, message",
    [
        # Each used to end in a traceback or, for -1, a YES read off the last color.
        ("own_ratio_tiers", {"color": 5, "tiers": [[[1, 2]]]}, "names color 5"),
        ("own_ratio_tiers", {"color": -1, "tiers": [[[1, 2]]]}, "names color -1"),
        ("own_ratio_tiers", {"color": 0, "tiers": [[[1, 0]]]}, "ratio [1, 0]"),
        ("marker_trichotomy", {"marker_colors": [7]}, "names color 7"),
    ],
)
def test_family_parameters_out_of_range_are_errors(tmp_path, capsys, family, params, message):
    data = {
        "n": 2,
        "gamma": 2,
        "sigma": 2,
        "rho1": 2,
        "rho2": 2,
        "agents": [{"id": "a", "color": 0, "type": 0}, {"id": "b", "color": 1, "type": 0}],
        "types": {"0": {"family": family, "params": params}},
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and message in err


def test_solve_rejects_a_witness_that_fails_its_check(example1_path, monkeypatch, capsys):
    # A wrong solver: every agent alone, which agent b deserts to join c.
    from hdg import bench

    wrong = lambda instance, notion: Outcome.from_sets([{a} for a in range(instance.n)])
    monkeypatch.setitem(bench.SOLVERS, "brute", bench.Solver(wrong))
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


_SGASP_SOURCE = {"participants": ["p"], "activities": ["a"], "approvals": {"p": [["a", 1]]}}


@pytest.mark.parametrize(
    "problem, text, flags",
    [
        ("x3c", "{}", []),
        ("sgasp", "{}", []),
        ("x3c", "not json", []),
        ("sgasp", json.dumps({**_SGASP_SOURCE, "s": "x"}), ["--normalized"]),
        ("partition", json.dumps({"values": [1, "x"]}), []),
    ],
)
def test_gen_malformed_source_is_error(tmp_path, capsys, problem, text, flags):
    src = tmp_path / "source.json"
    src.write_text(text)
    out = tmp_path / "instance.json"
    assert main(["gen", problem, "--source", str(src), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "Traceback" not in err
    assert not out.exists()


def test_bench_smoke(capsys):
    assert main(["bench", "--seed", "1", "--count", "25"]) == 0
    assert "all solvers agree" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--cap-n", "0"], ["--cap-gamma", "0"], ["--cap-tau", "0"], ["--cap-n", "-2"], ["--count", "-5"]],
)
def test_bench_rejects_out_of_range_caps(capsys, flags):
    # The zero and negative caps ended in a traceback from `randrange`, and
    # a negative count ran no instance and reported that all solvers agree.
    assert main(["bench", "--seed", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "agree" not in captured.out


def test_solver_exit_codes_consistent(example1_path):
    from hdg.bench import SOLVERS

    for algo, solver in SOLVERS.items():
        for notion in ("ns", "is"):
            code = 0 if notion in solver.notions else 2
            assert main(["solve", example1_path, "--algo", algo, "--notion", notion]) == code
        assert main(["solve", example1_path, "--algo", algo, "--rho1", "1"]) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_malformed_search_cap_is_error(example1_path, monkeypatch, capsys, value):
    monkeypatch.setenv("HDG_SEARCH_CAP", value)
    # The second run is decided (NO) before any search guard is read.
    for budgets in ([], ["--sigma", "1", "--rho1", "1"]):
        assert main(["solve", example1_path, "--algo", "brute", *budgets]) == 2
        err = capsys.readouterr().err
        assert "HDG_SEARCH_CAP" in err and "Traceback" not in err


def _bench_line(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "all solvers agree" in out
    return out.splitlines()[0]


def test_raising_one_search_cap_lowers_no_other(monkeypatch, capsys):
    # 60,000 raises colors-size's coalition-type cap (50,000) and sits
    # below every other default; each guard takes the larger value, so the
    # run is the unset one.
    from hdg import brute, colors_ntcoal, colors_size, colors_types, ownhdg

    others = (brute.BRUTE_CAP, colors_ntcoal.GUESS_CAP, colors_size.SUPPORT_CAP,
              colors_types.STATES_CAP, ownhdg.UNIVERSE_CAP)
    assert colors_size.TYPES_CAP < 60_000 < min(others)
    argv = ["bench", "--seed", "1", "--count", "100"]
    unset = _bench_line(argv, capsys)
    monkeypatch.setenv("HDG_SEARCH_CAP", "60000")
    assert _bench_line(argv, capsys) == unset
