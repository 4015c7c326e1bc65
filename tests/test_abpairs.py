"""The pair runner (`tools/abpairs.py`): its verdict on synthetic pairs,
by the rule that a gain holds only when the change wins at least 9/10 of
the pairs and its median beats the parent's by more than the parent's
quartile spread."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "abpairs.py"
spec = importlib.util.spec_from_file_location("abpairs", TOOL)
abpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abpairs)

#: ten parent runs with median 10 and quartiles 9.7875 and 10.2125 (spread 0.425)
PARENT = [9.5, 9.75, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.25, 10.5]


def test_parent_quartiles():
    q1, median, q3 = abpairs.quartiles(PARENT)
    assert (q1, median, q3) == pytest.approx((9.7875, 10.0, 10.2125))


@pytest.mark.parametrize("change, wins, holds", [
    # every pair won, the median 1.0 lower: a gain
    ([p - 1.0 for p in PARENT], 10, True),
    # 9/10 won, by 0.3 each: the gap is inside the spread
    ([p - 0.3 for p in PARENT[:9]] + [PARENT[9] + 0.3], 9, False),
    # 9/10 won, by 1.0 each: a gain
    ([p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 1.0], 9, True),
    # 8/10 won by far: too few wins
    ([p - 1.0 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]], 8, False),
    # ties count for neither side
    (list(PARENT), 0, False),
    # better only in the wrong direction
    ([p + 1.0 for p in PARENT], 0, False),
])
def test_verdict_lower_is_better(change, wins, holds):
    assert abpairs.verdict(PARENT, change, lower_is_better=True) == (wins, holds)


def test_verdict_higher_is_better():
    higher = [p + 1.0 for p in PARENT]
    assert abpairs.verdict(PARENT, higher, lower_is_better=False) == (10, True)
    assert abpairs.verdict(PARENT, [p - 1.0 for p in PARENT], lower_is_better=False) == (0, False)
