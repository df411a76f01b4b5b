from pathlib import Path

from hdg.cli import main
from hdg.fileio import load_instance, load_outcome, serialize_instance
from hdg.stability import NS, check_outcome

from fixtures import example1

FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_shipped_example1_matches_builder():
    shipped = load_instance(FIXTURES / "example1.json")
    assert serialize_instance(shipped) == serialize_instance(example1())


def test_shipped_outcome_is_nash_stable():
    inst = load_instance(FIXTURES / "example1.json")
    out = load_outcome(inst, FIXTURES / "example1_nash_outcome.json")
    assert check_outcome(inst, out, NS).stable


def test_cli_on_shipped_fixtures():
    assert (
        main(
            [
                "check",
                str(FIXTURES / "example1.json"),
                str(FIXTURES / "example1_nash_outcome.json"),
            ]
        )
        == 0
    )
    assert main(["solve", str(FIXTURES / "example1.json"), "--notion", "is"]) == 0
