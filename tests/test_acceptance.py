import pytest

from dncalc import acceptance
from dncalc.errors import DataError


@pytest.fixture
def rows(monkeypatch):
    """Stand-in criteria: each check takes 90 s on a fake clock."""
    clock = iter(range(0, 10_000, 90))
    monkeypatch.setattr(acceptance, "perf_counter", lambda: next(clock))

    def raises():
        raise DataError("no data")

    monkeypatch.setattr(
        acceptance,
        "ALL_CRITERIA",
        (
            ("first", lambda: (True, "one"), None),
            ("second", lambda: (True, "two"), 60),
            ("third", lambda: (False, "three"), 300),
            ("fourth", raises, None),
        ),
    )


def test_run_criteria_numbers_rows_by_position(rows):
    results = acceptance.run_criteria({2, 4})
    assert [(r.number, r.name) for r in results] == [(2, "second"), (4, "fourth")]
    assert [r.number for r in acceptance.run_criteria()] == [1, 2, 3, 4]


def test_a_criterion_over_its_budget_fails_and_one_without_a_budget_does_not(rows):
    lines = []
    first, second, third, fourth = acceptance.run_criteria(log=lines.append)
    assert (first.passed, first.detail, first.elapsed_seconds) == (True, "one", 90)
    assert not second.passed
    assert second.detail == "two; exceeded the 1 minute budget"
    # within its budget, a check keeps its own verdict
    assert (third.passed, third.detail) == (False, "three")
    assert lines[1] == (
        "criterion 2 [second]: FAIL in 90.0s (two; exceeded the 1 minute budget)"
    )


def test_a_criterion_that_raises_fails_naming_the_error(rows):
    fourth = acceptance.run_criteria({4})[0]
    assert (fourth.passed, fourth.detail) == (False, "DataError: no data")
