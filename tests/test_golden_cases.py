"""The seed-1 third of the pinned benchmark cases and three grids' cases
(see `golden_cases.py`).

Each case runs traced and untraced: an untraced run carries each message
over a path of one capacity in one step and bills it once, a traced one
walks every hop, and both must give the pinned report and events. CI
checks every case the same way.
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


@pytest.mark.parametrize("case", golden_cases.case_ids(seeds=(1,), grids=()))
def test_seed_1_case_is_as_pinned(case):
    assert golden_cases.check(case, TABLE) == []


@pytest.mark.parametrize("case", golden_cases.case_ids(seeds=(), grids=GRIDS))
def test_grid_case_is_as_pinned(case):
    assert golden_cases.check(case, TABLE) == []


def test_a_pinned_grid_case_meets_every_anomaly():
    """At least one pinned case forwards a copy off its tree, drops one
    for its TTL and is cut at its time limit, so the table sees how each
    is counted and timed."""
    anomalies = ("off_tree_forwards", "ttl_drops", "time_limit_hits")
    met = [case for case in golden_cases.case_ids(seeds=(), grids=GRIDS)
           if all(golden_cases.simulate(case)[1].counters.get(key) for key in anomalies)]
    assert met
