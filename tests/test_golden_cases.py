"""The seed-1 third of the pinned benchmark cases (see `golden_cases.py`).

Each case runs traced and untraced: an untraced run bills a timed message
once and carries a control message by its route's timing, a traced one
walks every hop, and both must give the pinned report and events. CI
checks all 81 cases the same way.
"""

import pytest

import golden_cases

TABLE = golden_cases.pinned()


def test_the_table_pins_every_case():
    assert sorted(TABLE) == sorted(golden_cases.case_ids())
    assert all(sorted(row) == ["events", "report", "trace", "trace_sorted"]
               for row in TABLE.values())


@pytest.mark.parametrize("case", golden_cases.case_ids(seeds=(1,)))
def test_seed_1_case_is_as_pinned(case):
    assert golden_cases.check(case, TABLE) == []
