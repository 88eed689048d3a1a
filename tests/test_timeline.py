from array import array

import pytest
from hypothesis import given, settings, strategies as st

from diarscore import timeline
from diarscore.errors import SessionMismatchError, ValidationError
from diarscore.formats import MAX_END_MS, SpeakerTurn, TimeInterval
from diarscore.timeline import (
    Diarization,
    build_regions,
    by_session,
    joint_regions,
    pairwise_overlap,
)
from support import diarization_oracle

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
    assert [(iv, set(ref_active), set(hyp_active)) for iv, (ref_active, hyp_active) in regions] == [
        (TimeInterval(0, 5 * S), {"A"}, set()),
        (TimeInterval(5 * S, 5 * S), {"A"}, {"X"}),
        (TimeInterval(10 * S, 5 * S), set(), {"X"}),
    ]


def test_regions_identical_inputs_single_region():
    a = d("S1", A=[(0, 10 * S)])
    regions = build_regions(a, a)
    assert regions == [(TimeInterval(0, 10 * S), (frozenset({"A"}), frozenset({"A"})))]


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
    span = regions[-1][0].end - regions[0][0].start
    assert sum(iv.dur for iv, _ in regions) == span
    for (first, first_active), (second, second_active) in zip(regions, regions[1:]):
        assert first.end == second.start
        assert first_active != second_active


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


def _gapped(steps):
    """(gap, dur) steps as intervals sorted with a gap of at least 1 ms between neighbours."""
    intervals, end = [], -1
    for gap, dur in steps:
        intervals.append((end + gap, dur))
        end += gap + dur
    return intervals


# small times, so unsorted, overlapping, touching and gapped intervals all
# occur; the gapped lists take the packed path that skips the sort
speaker_intervals_st = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 20)), max_size=8
) | st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=8).map(_gapped)
FORMS = {
    "TimeInterval": lambda ivs: [TimeInterval(*iv) for iv in ivs],
    "tuple": list,
    "array": lambda ivs: array("q", [t for iv in ivs for t in iv]),
}
speakers_st = st.dictionaries(
    st.sampled_from(["A", "B", "C", "D"]),
    st.tuples(speaker_intervals_st, st.sampled_from(sorted(FORMS))),
    max_size=4,
)


def _built(speakers):
    """The Diarization of generated speakers, each in its form, and its oracle."""
    diar = Diarization("S1", {spk: FORMS[form](ivs) for spk, (ivs, form) in speakers.items()})
    return diar, diarization_oracle({spk: ivs for spk, (ivs, _) in speakers.items()})


@settings(max_examples=300, deadline=None)
@given(speakers_st, speakers_st, st.dictionaries(st.sampled_from("ABCD"), st.sampled_from("ABX")))
def test_packed_diarization_matches_the_tuple_oracle(first, second, mapping):
    diar, expected = _built(first)
    other, other_expected = _built(second)
    assert diar.speaker_ids == tuple(expected)
    # asked in reverse order, items() still lists speakers in order
    assert {spk: diar.intervals(spk) for spk in reversed(diar.speaker_ids)} == expected
    assert list(diar.items()) == list(expected.items())
    assert all(type(iv) is TimeInterval for _, ivs in diar.items() for iv in ivs)
    if expected:
        start = min(ivs[0].start for ivs in expected.values())
        end = max(ivs[-1].end for ivs in expected.values())
        assert diar.extent() == TimeInterval(start, end - start)
    else:
        assert diar.extent() is None
    assert diar.to_turns() == [
        SpeakerTurn("S1", "1", spk, iv) for spk, ivs in expected.items() for iv in ivs
    ]
    assert diar == Diarization("S1", expected)
    assert (diar == other) == (expected == other_expected)
    renamed = {}
    for spk, ivs in expected.items():
        renamed.setdefault(mapping.get(spk, spk), []).extend(ivs)
    assert list(diar.relabel(mapping).items()) == list(diarization_oracle(renamed).items())
    combined = {spk: list(ivs) for spk, ivs in expected.items()}
    for spk, ivs in other_expected.items():
        combined.setdefault(spk, []).extend(ivs)
    assert list(diar.merged_with(other).items()) == list(diarization_oracle(combined).items())


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(["S1", "S2"]), st.sampled_from(["A", "B"])),
        speaker_intervals_st.filter(bool),
    ),
    st.randoms(use_true_random=False),
)
def test_by_session_over_shuffled_turns_matches_direct_construction(groups, rnd):
    turns = [
        SpeakerTurn(session, "1", spk, TimeInterval(*iv))
        for (session, spk), ivs in groups.items()
        for iv in ivs
    ]
    rnd.shuffle(turns)
    sessions = {}
    for (session, spk), ivs in groups.items():
        sessions.setdefault(session, {})[spk] = ivs
    grouped = by_session(turns)
    assert list(grouped) == sorted(sessions)
    assert grouped == {s: Diarization(s, speakers) for s, speakers in sessions.items()}
    for s, speakers in sessions.items():
        assert list(grouped[s].items()) == list(diarization_oracle(speakers).items())


def test_a_speakers_tuple_is_built_once_and_kept():
    diar = d("S1", A=[(0, S)], B=[(2 * S, S)])
    assert diar.intervals("B") is diar.intervals("B")
    assert dict(diar.items())["B"] is diar.intervals("B")
    with pytest.raises(KeyError):
        diar.intervals("C")


def test_an_array_is_copied_not_kept():
    packed = array("q", [0, S, 2 * S, S])
    diar = d("S1", A=packed)
    packed[1] = 5 * S
    assert diar.intervals("A") == (TimeInterval(0, S), TimeInterval(2 * S, S))


@pytest.mark.parametrize("packed", [array("q", [0, S, 2 * S]), array("i", [0, S])])
def test_a_packed_array_holds_int64_pairs(packed):
    with pytest.raises(ValidationError, match="holds 'q' \\(start, dur\\) pairs"):
        d("S1", A=packed)


def test_intervals_may_end_at_the_int64_bound():
    diar = d("S1", A=[(0, MAX_END_MS)], B=array("q", [S, S, MAX_END_MS - 1, 1]))
    assert diar.extent() == TimeInterval(0, MAX_END_MS)
    # a merge that ends at the bound is kept
    merged = d("S1", A=[(0, MAX_END_MS), (MAX_END_MS - 2, 1)])
    assert merged.intervals("A") == (TimeInterval(0, MAX_END_MS),)


PAST_THE_BOUND = [
    [(MAX_END_MS, 1)],
    [(MAX_END_MS + 1, 1)],  # a start an int64 cannot hold
    [(0, 2**64)],
    [(0, MAX_END_MS), (MAX_END_MS - 2, 3)],  # overlaps one that ends at the bound
    array("q", [0, S, MAX_END_MS - 1, 2]),  # sorted with a gap: the packed path
    array("q", [MAX_END_MS - 1, 2, 0, S]),  # unsorted: the sorting path
]


@pytest.mark.parametrize("intervals", PAST_THE_BOUND)
def test_diarization_refuses_an_interval_past_the_int64_bound(intervals):
    with pytest.raises(ValidationError, match=r"turn ends past 2\*\*63 - 1 ms"):
        d("S1", A=intervals)


@pytest.mark.parametrize(
    "interval,message",
    [
        ((MAX_END_MS - 1, 2), "turn ends past 2**63 - 1 ms"),
        ((MAX_END_MS + 1, 1), "turn ends past 2**63 - 1 ms"),
        ((0, 2**64), "turn ends past 2**63 - 1 ms"),
        ((-(2**64), S), "negative start time"),
        ((0, -(2**64)), "non-positive duration"),
    ],
)
def test_by_session_refuses_an_interval_past_the_int64_bound(interval, message):
    turns = [
        SpeakerTurn("S1", "1", "A", TimeInterval(0, S)),
        SpeakerTurn("S1", "1", "A", TimeInterval(*interval)),
    ]
    with pytest.raises(ValidationError) as exc:
        by_session(turns)
    assert str(exc.value).startswith(message)


def test_scoring_reads_the_packed_intervals(monkeypatch):
    # the tiling, the extent and equality never build a TimeInterval of a speaker
    def unbuilt(packed):
        raise AssertionError("a speaker's TimeIntervals were built")

    a = d("S1", A=[(0, 10 * S)], B=[(5 * S, 10 * S)])
    b = d("S1", X=[(S, 3 * S)])
    monkeypatch.setattr(timeline, "_time_intervals", unbuilt)
    assert pairwise_overlap(a, b) == {("A", "X"): 3 * S, ("B", "X"): 0}
    assert a.extent() == TimeInterval(0, 15 * S)
    assert a != b and a == d("S1", B=[(5 * S, 10 * S)], A=[(0, 10 * S)])
    assert repr(a) == "Diarization('S1', 2 speakers)"
