"""object_order decides a pair from its votes and labels the vote regions
only when both signs are present. Its verdict must be the one order_regions
reports with the areas, on pairs built to have one sign, both signs with
either side larger, no signed vote at all, and exact ties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import OrderVerdict, SemDistMap, codec, object_order, order_regions

F = np.float32
C = 0.5
HIGH, LOW = F(0.9), F(0.2)  # HIGH * HIGH clears C * C, HIGH * LOW does not

OUT, ZERO, FRONT, BEHIND = range(4)
KINDS = {
    "front": (OUT, ZERO, FRONT),
    "behind": (OUT, ZERO, BEHIND),
    "no sign": (OUT, ZERO),
    "both": (OUT, ZERO, FRONT, BEHIND),
}


def maps_of(cells, rng):
    """A pair of maps whose votes follow cells: FRONT where the first map is
    in front, BEHIND where the second is, ZERO where both share a level and
    OUT outside the joint overlap."""
    a = np.zeros(cells.shape, F)
    b = np.zeros(cells.shape, F)
    for (y, x), cell in np.ndenumerate(cells):
        base = int(rng.integers(0, 3))
        step = int(rng.integers(1, 3))
        if cell == OUT:
            # one side absent, or both present with a joint confidence below C * C
            side = rng.integers(0, 3)
            if side != 1:
                a[y, x] = (HIGH if side == 0 else LOW) - base
            if side != 0:
                b[y, x] = HIGH - base - step
        else:
            level_a = {ZERO: base, FRONT: base, BEHIND: base + step}[cell]
            level_b = {ZERO: base, FRONT: base + step, BEHIND: base}[cell]
            a[y, x] = HIGH - level_a
            b[y, x] = HIGH - level_b
    return SemDistMap(a), SemDistMap(b)


@st.composite
def mixed_cells(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    flat = draw(st.lists(st.sampled_from(KINDS[kind]), min_size=h * w, max_size=h * w))
    return np.array(flat).reshape(h, w)


@st.composite
def tied_cells(draw):
    """A front block and a behind block of equal area but different shape,
    apart, on a field of OUT and ZERO cells."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = max(rows, cols) + draw(st.integers(0, 2)), rows + cols + 1 + draw(st.integers(0, 2))
    flat = draw(st.lists(st.sampled_from((OUT, ZERO)), min_size=h * w, max_size=h * w))
    cells = np.array(flat).reshape(h, w)
    cells[:, cols] = OUT  # keeps the blocks apart
    cells[:rows, :cols] = FRONT
    cells[:cols, cols + 1:cols + 1 + rows] = BEHIND
    return cells


def assert_verdicts_agree(map_a, map_b):
    for first, second in ((map_a, map_b), (map_b, map_a)):
        assert object_order(first, second, C) == order_regions(first, second, C).verdict


@settings(max_examples=150, deadline=None)
@given(cells=mixed_cells(), seed=st.integers(0, 2**16))
def test_verdict_equals_the_regions_verdict(cells, seed):
    assert_verdicts_agree(*maps_of(cells, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(cells=tied_cells(), seed=st.integers(0, 2**16))
def test_tied_regions_are_ambiguous(cells, seed):
    map_a, map_b = maps_of(cells, np.random.default_rng(seed))
    regions = order_regions(map_a, map_b, C)
    assert regions.largest_front_region == regions.largest_behind_region > 0
    assert object_order(map_a, map_b, C) is OrderVerdict.AMBIGUOUS
    assert_verdicts_agree(map_a, map_b)


@pytest.fixture
def label_calls(monkeypatch):
    calls = []
    label = codec._largest_component

    def counted(mask):
        calls.append(1)
        return label(mask)

    monkeypatch.setattr(codec, "_largest_component", counted)
    return calls


@pytest.mark.parametrize(
    "row, verdict, labels",
    [
        ([FRONT, FRONT, ZERO, OUT], OrderVerdict.A_IN_FRONT, 0),
        ([BEHIND, ZERO, BEHIND, OUT], OrderVerdict.B_IN_FRONT, 0),
        ([ZERO, ZERO, OUT, ZERO], OrderVerdict.AMBIGUOUS, 0),
        ([OUT, OUT, OUT, OUT], OrderVerdict.DISJOINT, 0),
        ([FRONT, FRONT, OUT, BEHIND], OrderVerdict.A_IN_FRONT, 2),
        ([FRONT, ZERO, BEHIND, BEHIND], OrderVerdict.B_IN_FRONT, 2),
        ([FRONT, ZERO, BEHIND, OUT], OrderVerdict.AMBIGUOUS, 2),
    ],
)
def test_only_pairs_with_both_signs_are_labelled(label_calls, row, verdict, labels):
    map_a, map_b = maps_of(np.array([row]), np.random.default_rng(0))
    assert object_order(map_a, map_b, C) is verdict
    assert len(label_calls) == labels
    assert order_regions(map_a, map_b, C).verdict is verdict
