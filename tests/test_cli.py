import json

import pytest

from hdg import cli
from hdg.cli import main
from hdg.core import MAX_GAMMA, NamedFamily, Runs, make_instance
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


@pytest.mark.parametrize(
    "notion, coalitions, lines",
    [
        # b (color 0, type 1) sits alone at tier 2 and tops its list in c
        # and d's coalition with a.
        (
            "ns",
            [{0, 2, 3}, {1}],
            [
                "unstable: agent b deviates to coalition 0",
                "  (color 0, type 1): palette (1, 0) at tier 2, "
                "joined palette (1, 1) at tier 0 (tier 0 is the top)",
            ],
        ),
        # In the grand coalition a (color 0, type 0) would rather be alone:
        # the empty target's palette is a's singleton palette.
        (
            "is",
            [{0, 1, 2, 3}],
            [
                "unstable: agent a deviates to the empty coalition",
                "  (color 0, type 0): palette (1, 1) at tier 3, "
                "joined palette (1, 0) at tier 2 (tier 0 is the top)",
            ],
        ),
    ],
)
def test_check_explains_a_deviation_in_palettes_and_tiers(
    example1_path, tmp_path, capsys, notion, coalitions, lines
):
    out = tmp_path / "outcome.json"
    out.write_text(serialize_outcome(example1(), Outcome.from_sets(coalitions)))
    assert main(["check", example1_path, str(out), "--notion", notion]) == 1
    assert capsys.readouterr().out.splitlines() == lines


def test_solve_header_counts_types_by_class(monkeypatch, capsys):
    # A Runs-column instance of 100,000 agents: tau comes from the present
    # classes, and nothing walks the type column agent by agent.
    n = 100_000
    prefs = {t: NamedFamily("own_ratio_tiers", {"color": t, "tiers": [[[1, 1]]]}) for t in (0, 1)}
    column = Runs([(0, n // 2), (1, n // 2)])
    instance = make_instance(column, prefs, types=column, gamma=2, sigma=2, rho2=1)
    monkeypatch.setattr(cli, "load_instance", lambda path: instance)
    monkeypatch.setattr(cli, "serialize_outcome", lambda instance, outcome: "")

    def walked(self):
        raise AssertionError("a Runs column was walked agent by agent")

    monkeypatch.setattr(Runs, "__iter__", walked)
    assert main(["solve", "runs.json", "--algo", "colors-ntcoal"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == (
        f"n={n} gamma=2 tau=2 sigma=2 rho1={n} rho2=1 algo=colors-ntcoal notion=ns"
    )


def test_check_rejects_non_partition(example1_path, tmp_path):
    out = tmp_path / "outcome.json"
    out.write_text(json.dumps({"coalitions": [["a", "b"]]}))
    assert main(["check", example1_path, str(out)]) == 2


def test_check_rejects_a_coalition_that_is_not_a_list(example1_path, tmp_path, capsys):
    out = tmp_path / "outcome.json"
    out.write_text(json.dumps({"coalitions": ["abcd"]}))
    assert main(["check", example1_path, str(out)]) == 2
    assert "coalition must be a list" in capsys.readouterr().err


def test_duplicated_keys_are_errors(example1_path, tmp_path, capsys):
    with open(example1_path) as fh:
        text = fh.read()
    assert text.count('"rho2": 4') == 1
    bad = tmp_path / "instance.json"
    bad.write_text(text.replace('"rho2": 4', '"rho2": 0,\n "rho2": 4'))
    assert main(["solve", str(bad)]) == 2
    assert "duplicate key 'rho2'" in capsys.readouterr().err
    out = tmp_path / "outcome.json"
    out.write_text('{"coalitions": [["a", "b", "c", "d"]], "coalitions": []}')
    assert main(["check", example1_path, str(out)]) == 2
    assert "duplicate key 'coalitions'" in capsys.readouterr().err


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
    "rename, extra",
    [
        # int(key) read each of these as a type id: "00" after "0" silently
        # replaced type 0's order, and " 1" and "0_1" stood for type 1.
        (None, "00"),
        ("1", " 1"),
        ("1", "0_1"),
        ("1", "+1"),
        ("1", "01"),
        ("1", "\u0661"),
        ("1", "-1"),
    ],
)
def test_type_keys_must_be_canonical_decimals(example1_path, tmp_path, capsys, rename, extra):
    with open(example1_path) as fh:
        data = json.load(fh)
    if rename is None:
        data["types"][extra] = {"tiers": []}
    else:
        data["types"][extra] = data["types"].pop(rename)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and f"type key {extra!r}" in err, err


@pytest.mark.parametrize("value", [None, True, 1.5, ["a"], {"a": 1}])
def test_agent_ids_must_be_strings_or_ints(example1_path, tmp_path, capsys, value):
    # A null id used to be read as the agent "None".
    with open(example1_path) as fh:
        data = json.load(fh)
    data["agents"][0]["id"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "agent id must be a string or an int" in err, err
    data["agents"][0]["id"] = 7
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 0


def test_an_empty_tier_palette_is_an_error(example1_path, tmp_path, capsys):
    # The all-zero palette used to reach the palette reduction and print
    # only "cannot take the palette of an empty coalition".
    with open(example1_path) as fh:
        data = json.load(fh)
    data["types"]["0"]["tiers"][0].append([0, 0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "tier palette (0, 0)" in err, err


@pytest.mark.parametrize("gamma", [10**30, MAX_GAMMA + 1])
def test_a_gamma_above_the_ceiling_is_an_error(tmp_path, capsys, gamma):
    # A gamma of 10**30 passed validation, and the solve died with an
    # OverflowError traceback building its first gamma-length vector.
    data = {
        "agents": [{"color": 0, "id": str(i), "type": 0} for i in range(2)],
        "gamma": gamma,
        "n": 2,
        "rho1": 2,
        "rho2": 1,
        "sigma": 2,
        "types": {"0": {"tiers": []}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and f"ceiling of {MAX_GAMMA} colors" in err, err


def two_agent_game(family, params):
    """Agents a (color 0) and b (color 1) of one type with this family."""
    return {
        "n": 2,
        "gamma": 2,
        "sigma": 2,
        "rho1": 2,
        "rho2": 2,
        "agents": [{"id": "a", "color": 0, "type": 0}, {"id": "b", "color": 1, "type": 0}],
        "types": {"0": {"family": family, "params": params}},
    }


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
    path = tmp_path / "family.json"
    path.write_text(json.dumps(two_agent_game(family, params)))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and message in err


VALUE_SUM = {"values": [1, 1], "target": 2, "class_sizes": [1, 1]}
INDSET = {"guard": 0, "vertex_colors": [1], "k": 1}


@pytest.mark.parametrize(
    "family, params, message",
    [
        # The first three ended in a TypeError traceback; a string or boolean
        # target silently turned the witness [["a", "b"]] into [["a"], ["b"]].
        ("value_sum_trichotomy", {**VALUE_SUM, "values": ["x", 1]}, "'values' must be int, not 'x'"),
        ("value_sum_trichotomy", {**VALUE_SUM, "class_sizes": ["1", 1]}, "'class_sizes' must be int >= 0"),
        ("indset_vertex", {**INDSET, "k": "1", "edges": []}, "'k' must be int, not '1'"),
        ("value_sum_trichotomy", {**VALUE_SUM, "target": "2"}, "'target' must be int, not '2'"),
        ("value_sum_trichotomy", {**VALUE_SUM, "target": True}, "'target' must be int, not True"),
        ("value_sum_trichotomy", {**VALUE_SUM, "class_sizes": [-1, 1]}, "'class_sizes' must be int >= 0, not -1"),
        ("value_sum_trichotomy", {**VALUE_SUM, "values": 1}, "'values' must be a list"),
        ("partition_guard", {**VALUE_SUM, "target": 2.0, "green": 0, "red": 1, "blue": 1}, "'target' must be int"),
        ("indset_guard", {**INDSET, "k": True, "red": 0, "blue": 1}, "'k' must be int, not True"),
    ],
)
def test_family_integer_parameters_are_checked(tmp_path, capsys, family, params, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(two_agent_game(family, params)))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and message in err and "Traceback" not in err


GUARD = {**VALUE_SUM, "green": 0, "red": 1, "blue": 1}


@pytest.mark.parametrize(
    "family, params, message",
    [
        # Each ended in a traceback: an AttributeError on `params.get`, a
        # TypeError in `tier_of` at solve time, or an IndexError in the builder.
        ("partition_guard", [], "must be an object"),
        ("value_sum_trichotomy", "x", "must be an object"),
        ("own_ratio_tiers", [0], "must be an object"),
        ("own_ratio_tiers", {"color": None, "tiers": [[[1, 2]]]}, "names color None"),
        ("indset_guard", {**INDSET, "guard": None, "red": 0, "blue": 1}, "names color None"),
        ("indset_guard", {**INDSET, "red": None, "blue": 1}, "names color None"),
        ("indset_guard", {**INDSET, "red": 0, "blue": None}, "names color None"),
        ("indset_vertex", {**INDSET, "guard": None, "edges": []}, "names color None"),
        ("partition_guard", {**GUARD, "red": None}, "names color None"),
        ("partition_guard", {**GUARD, "blue": None}, "names color None"),
        ("partition_guard", {**GUARD, "class_sizes": []}, "'green' must index 'class_sizes'"),
        ("partition_guard", {**GUARD, "green": 99}, "'green' must index 'class_sizes'"),
    ],
)
def test_malformed_family_parameters_are_errors(tmp_path, capsys, family, params, message):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(two_agent_game(family, params)))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and message in err, err


def test_value_sum_green_color_may_be_null(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(two_agent_game("value_sum_trichotomy", {**VALUE_SUM, "green_color": None})))
    assert main(["solve", str(path), "--algo", "brute"]) == 0


def test_value_sum_target_reaches_the_witness(tmp_path):
    # With the integer target the pair's values sum to it: one coalition.
    path, out = tmp_path / "family.json", tmp_path / "outcome.json"
    path.write_text(json.dumps(two_agent_game("value_sum_trichotomy", VALUE_SUM)))
    assert main(["solve", str(path), "--algo", "brute", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["coalitions"] == [["a", "b"]]


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


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("flags", [["--sigma", "0"], ["--sigma", "5"], ["--rho2", "5"]])
def test_an_out_of_range_budget_override_is_error(example1_path, capsys, command, flags):
    # example1 has four agents; the outcome file is never read.
    argv = [command, example1_path] + (["unread.json"] if command == "check" else [])
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert "out of range for n=4" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{instance}", "--out", "{dir}"],
        ["solve", "{dir}"],
        ["gen", "x3c", "--source", "{dir}", "--out", "{dir}/x.json"],
    ],
)
def test_a_directory_in_place_of_a_file_is_error(example1_path, tmp_path, capsys, argv):
    assert main([arg.format(instance=example1_path, dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot use {tmp_path}:") and "Traceback" not in err


def test_an_unreadable_file_is_error(example1_path, monkeypatch, capsys):
    def refuse(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "load_instance", refuse)
    assert main(["solve", example1_path]) == 2
    assert capsys.readouterr().err == f"cannot use {example1_path}: Permission denied\n"


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
