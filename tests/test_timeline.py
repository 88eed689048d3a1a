import pytest
from hypothesis import given, settings, strategies as st

from diarscore.errors import SessionMismatchError, ValidationError
from diarscore.formats import SpeakerTurn, TimeInterval
from diarscore.timeline import (
    Diarization,
    build_regions,
    by_session,
    joint_regions,
    pairwise_overlap,
)

S = 1000  # ms per second


def d(session, **speakers):
    return Diarization(session, {k: v for k, v in speakers.items()})


def test_normalization_merges_touching_and_overlapping():
    diar = d("S1", A=[(0, 5 * S), (5 * S, 5 * S), (8 * S, 4 * S)])
    assert diar.intervals("A") == (TimeInterval(0, 12 * S),)


def test_normalization_rejects_bad_intervals():
    with pytest.raises(ValidationError):
        d("S1", A=[(0, 0)])
    with pytest.raises(ValidationError):
        d("S1", A=[(-5, 10)])


@given(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 25)), max_size=8))
def test_normalization_is_the_runs_of_covered_milliseconds(ivs):
    covered = sorted({ms for start, dur in ivs for ms in range(start, start + dur)})
    runs = []
    for ms in covered:
        if runs and runs[-1][1] == ms:
            runs[-1][1] += 1
        else:
            runs.append([ms, ms + 1])
    got = d("S1", A=ivs).intervals("A") if ivs else ()
    assert got == tuple(TimeInterval(lo, hi - lo) for lo, hi in runs)
    assert all(type(iv) is TimeInterval for iv in got)


@pytest.mark.parametrize("bad", ["", " ", "a b", "a\u3000b", "a\x1cb", "\u2028"])
def test_diarization_rejects_empty_or_whitespace_ids(bad):
    with pytest.raises(ValidationError) as exc:
        Diarization(bad, {})
    assert str(exc.value) == f"session must be non-empty without whitespace: {bad!r}"
    with pytest.raises(ValidationError) as exc:
        Diarization("S1", {bad: [(0, S)]})
    assert str(exc.value) == f"speaker id must be non-empty without whitespace: {bad!r}"


def test_diarization_accepts_non_ascii_ids():
    assert Diarization("会议1", {"说话人1": [(0, S)]}).speaker_ids == ("说话人1",)


def test_regions_example():
    a = d("S1", A=[(0, 10 * S)])
    b = d("S1", X=[(5 * S, 10 * S)])
    regions = build_regions(a, b)
    assert [(r.interval, set(r.ref_active), set(r.hyp_active)) for r in regions] == [
        (TimeInterval(0, 5 * S), {"A"}, set()),
        (TimeInterval(5 * S, 5 * S), {"A"}, {"X"}),
        (TimeInterval(10 * S, 5 * S), set(), {"X"}),
    ]


def test_regions_identical_inputs_single_region():
    a = d("S1", A=[(0, 10 * S)])
    regions = build_regions(a, a)
    assert len(regions) == 1
    assert regions[0].interval == TimeInterval(0, 10 * S)
    assert regions[0].ref_active == regions[0].hyp_active == frozenset({"A"})


def test_regions_empty_inputs():
    assert build_regions(d("S1"), d("S1")) == []


def test_regions_session_mismatch():
    with pytest.raises(SessionMismatchError):
        build_regions(d("S1", A=[(0, S)]), d("S2", A=[(0, S)]))


def test_overlap_examples():
    ten = d("S1", A=[(0, 10 * S)])
    assert pairwise_overlap(ten, d("S1", A=[(0, 10 * S)])) == {("A", "A"): 10 * S}
    disjoint = pairwise_overlap(d("S1", A=[(0, S)]), d("S1", X=[(2 * S, S)]))
    assert disjoint == {("A", "X"): 0}
    shifted = pairwise_overlap(ten, d("S1", X=[(5 * S, 10 * S)]))
    assert shifted == {("A", "X"): 5 * S}


intervals_st = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 80)).map(lambda t: (t[0] * 100, t[1] * 100)),
    min_size=0,
    max_size=6,
)
diar_st = st.builds(
    lambda m: Diarization("S1", m),
    st.dictionaries(st.sampled_from(["A", "B", "C"]), intervals_st, max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(diar_st, diar_st)
def test_region_durations_tile_the_span(a, b):
    regions = build_regions(a, b)
    if not regions:
        return
    span = regions[-1].interval.end - regions[0].interval.start
    assert sum(r.interval.dur for r in regions) == span
    for first, second in zip(regions, regions[1:]):
        assert first.interval.end == second.interval.start
        assert (first.ref_active, first.hyp_active) != (second.ref_active, second.hyp_active)


@settings(max_examples=60, deadline=None)
@given(diar_st, diar_st)
def test_overlap_symmetric_under_transpose(a, b):
    forward = pairwise_overlap(a, b)
    backward = pairwise_overlap(b, a)
    assert {(h, r): v for (r, h), v in forward.items()} == backward


@settings(max_examples=60, deadline=None)
@given(diar_st, diar_st)
def test_overlap_entries_bounded_by_either_duration(a, b):
    overlap = pairwise_overlap(a, b)
    for (r, h), v in overlap.items():
        assert 0 <= v <= min(
            sum(iv.dur for iv in a.intervals(r)), sum(iv.dur for iv in b.intervals(h))
        )


@settings(max_examples=60, deadline=None)
@given(diar_st, intervals_st)
def test_overlap_row_sum_bounded_for_non_overlapping_hyp(a, ivs):
    # the row-sum bound holds when hypothesis speakers cannot overlap each
    # other, e.g. a single-speaker hypothesis; equality iff fully covered
    b = Diarization("S1", {"X": ivs})
    overlap = pairwise_overlap(a, b)
    for r in a.speaker_ids:
        row = sum(v for (rr, _), v in overlap.items() if rr == r)
        assert row <= sum(iv.dur for iv in a.intervals(r))


def per_ms_regions(diarizations):
    """Maximal runs of the per-millisecond tuple of active sets, over the span."""
    ivs = [iv for d in diarizations for _, spk_ivs in d.items() for iv in spk_ivs]
    if not ivs:
        return []
    runs = []
    for ms in range(min(iv.start for iv in ivs), max(iv.end for iv in ivs)):
        act = tuple(
            frozenset(spk for spk, ivs in d.items() if any(iv.start <= ms < iv.end for iv in ivs))
            for d in diarizations
        )
        if runs and runs[-1][2] == act:
            runs[-1][1] += 1
        else:
            runs.append([ms, 1, act])
    return [(TimeInterval(start, dur), act) for start, dur, act in runs]


small_intervals_st = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 20)), min_size=0, max_size=5
)
small_diar_st = st.builds(
    lambda m: Diarization("S1", m),
    st.dictionaries(st.sampled_from(["A", "B", "C"]), small_intervals_st, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(small_diar_st, min_size=1, max_size=3))
def test_joint_regions_match_per_ms_oracle(diarizations):
    # inputs share speaker ids, so a set reused from another input or an
    # earlier state shows up as a wrong region
    assert joint_regions(diarizations) == per_ms_regions(diarizations)


def test_by_session_groups_turns():
    turns = [
        SpeakerTurn("S2", "1", "A", TimeInterval(0, S)),
        SpeakerTurn("S1", "1", "B", TimeInterval(0, S)),
        SpeakerTurn("S1", "1", "B", TimeInterval(2 * S, S)),
    ]
    grouped = by_session(turns)
    assert sorted(grouped) == ["S1", "S2"]
    assert grouped["S1"].intervals("B") == (TimeInterval(0, S), TimeInterval(2 * S, S))


def test_relabel_and_merge():
    diar = d("S1", A=[(0, S)], B=[(2 * S, S)])
    renamed = diar.relabel({"A": "X"})
    assert set(renamed.speaker_ids) == {"X", "B"}
    merged = diar.merged_with(d("S1", A=[(S, S)]))
    assert merged.intervals("A") == (TimeInterval(0, 2 * S),)
