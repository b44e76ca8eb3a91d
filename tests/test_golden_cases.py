"""The seed-1 third of the pinned benchmark cases, three grids' cases and
the counter cases (see `golden_cases.py`).

Each case runs three times: untraced and traced, each carrying a message
over a path of one capacity in one step and billing it once, and walked,
traced under `walking()`, where every message walks hop by hop. All three
must give the pinned report and events, and both traced runs the pinned
trace, sorted and unsorted. CI checks every case the same way.
"""

import pytest

import golden_cases

TABLE = golden_cases.pinned()
# grid 0 cut at 105 ms and grid 13 cut at 10 ms each forward off their
# trees, drop copies for their TTL and hit the time limit; grid 20 has a
# NAP on half of its nodes only
GRIDS = (0, 13, 20)


def test_the_table_pins_every_case():
    assert sorted(TABLE) == sorted(golden_cases.case_ids())
    assert all(sorted(row) == ["events", "report", "trace", "trace_sorted"]
               for row in TABLE.values())


@pytest.mark.parametrize("case", golden_cases.case_ids(seeds=(1,), grids=(), counters=False))
def test_seed_1_case_is_as_pinned(case):
    assert golden_cases.check(case, TABLE) == []


@pytest.mark.parametrize("case", golden_cases.case_ids(seeds=(), grids=GRIDS,
                                                        counters=False))
def test_grid_case_is_as_pinned(case):
    assert golden_cases.check(case, TABLE) == []


@pytest.mark.parametrize("case", golden_cases.case_ids(seeds=(), grids=()))
def test_counter_case_is_as_pinned(case):
    assert golden_cases.check(case, TABLE) == []


def test_a_pinned_grid_case_meets_every_anomaly():
    """At least one pinned case forwards a copy off its tree, drops one
    for its TTL and is cut at its time limit, so the table sees how each
    is counted and timed."""
    anomalies = ("off_tree_forwards", "ttl_drops", "time_limit_hits")
    met = [case for case in golden_cases.case_ids(seeds=(), grids=GRIDS, counters=False)
           if all(golden_cases.simulate(case)[1].counters.get(key) for key in anomalies)]
    assert met


def test_the_tier_1_cases_reach_every_counter():
    """Every counter a report holds is non-zero in some case checked here,
    but `protocol_violations`, which nothing counts, and `corrupt`, which
    only a hand-built packet reaches (test_simnet's
    `test_a_corrupt_copy_is_counted_in_the_report` gates it)."""
    cases = golden_cases.case_ids(seeds=(1,), grids=GRIDS)
    reports = [golden_cases.simulate(case)[1] for case in cases]
    counters = {key for report in reports for key in report.counters}
    reached = {key for report in reports for key, count in report.counters.items() if count}
    assert "time_limit_hits" in counters
    assert counters - reached == {"protocol_violations", "corrupt"}
