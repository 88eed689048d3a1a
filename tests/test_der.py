from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from diarscore.der import (
    DerBreakdown,
    SpeakerMap,
    aggregate_der,
    brute_force_der,
    compute_der,
    optimal_speaker_map,
    score_der,
)
from diarscore.errors import UndefinedMetricError, ValidationError
from diarscore.synth import generate_session
from diarscore.timeline import Diarization, pairwise_overlap
from support import total_speech

S = 1000


def test_identity_map_and_zero_der():
    diar = Diarization("S1", {"A": [(0, 10 * S)], "B": [(5 * S, 10 * S)]})
    smap = optimal_speaker_map(diar, diar)
    assert smap.pairs == (("A", "A"), ("B", "B"))
    breakdown = compute_der(diar, diar, smap)
    assert (breakdown.fa, breakdown.miss, breakdown.spkerr) == (0, 0, 0)
    assert breakdown.der == 0


def test_mapping_prefers_total_overlap():
    # overlaps: A-Y=8s, A-X=1s, B-X=7s, B-Y=2s; assignment {A:Y, B:X}
    # beats {A:X, B:Y} by 15s to 3s (hand-checked over both bijections)
    ref = Diarization("S1", {"A": [(0, 9 * S)], "B": [(9 * S, 9 * S)]})
    hyp = Diarization(
        "S1",
        {
            "Y": [(0, 8 * S), (16 * S, 2 * S)],
            "X": [(8 * S, 1 * S), (9 * S, 7 * S)],
        },
    )
    overlap = pairwise_overlap(ref, hyp)
    assert overlap == {
        ("A", "Y"): 8 * S,
        ("A", "X"): 1 * S,
        ("B", "X"): 7 * S,
        ("B", "Y"): 2 * S,
    }
    smap = optimal_speaker_map(ref, hyp)
    assert set(smap.pairs) == {("A", "Y"), ("B", "X")}


def test_compute_der_region_example():
    ref = Diarization("S1", {"A": [(0, 10 * S)], "B": [(5 * S, 10 * S)]})
    hyp = Diarization("S1", {"X": [(0, 10 * S)]})
    smap = SpeakerMap(pairs=(("A", "X"),), unmatched_ref=("B",), unmatched_hyp=())
    breakdown = compute_der(ref, hyp, smap)
    assert breakdown.total == 20 * S
    assert breakdown.miss == 10 * S  # [5,10) one speaker short, [10,15) one short
    assert breakdown.fa == 0
    assert breakdown.spkerr == 0
    assert breakdown.der == Fraction(1, 2)


def test_der_requires_reference_speech():
    # the counts exist without reference speech; only the rates are undefined
    ref = Diarization("S1", {})
    hyp = Diarization("S1", {"X": [(0, S)]})
    breakdown = compute_der(ref, hyp, SpeakerMap((), (), ("X",)))
    assert breakdown == DerBreakdown(fa=S, miss=0, spkerr=0, total=0)
    with pytest.raises(UndefinedMetricError, match=r"^no reference speech: DER undefined$"):
        breakdown.der
    for component in ("fa", "miss", "spkerr"):
        with pytest.raises(UndefinedMetricError, match=r"^no reference speech: rate undefined$"):
            breakdown.rate(component)


def test_permutation_invariance_of_hyp_labels():
    ref = generate_session(speakers=3, duration_ms=30_000, seed=1).diarization
    hyp = generate_session(speakers=3, duration_ms=30_000, seed=2).diarization
    base = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
    renamed = hyp.relabel({"SPK01": "Z9", "SPK02": "Z1", "SPK03": "Z5"})
    again = compute_der(ref, renamed, optimal_speaker_map(ref, renamed))
    assert base == again


def test_spurious_turn_in_silence_adds_exact_fa():
    ref = Diarization("S1", {"A": [(0, 10 * S)]})
    hyp = Diarization("S1", {"A": [(0, 10 * S)], "Q": [(20 * S, 3 * S)]})
    breakdown = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
    assert breakdown.fa == 3 * S
    assert (breakdown.miss, breakdown.spkerr) == (0, 0)
    assert breakdown.total == 10 * S


def test_swapping_ref_and_hyp_swaps_fa_and_miss():
    ref = generate_session(speakers=3, duration_ms=40_000, seed=3).diarization
    hyp = generate_session(speakers=2, duration_ms=40_000, seed=4).diarization
    forward = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
    back_map = optimal_speaker_map(hyp, ref)
    backward = compute_der(hyp, ref, back_map)
    assert (forward.fa, forward.miss) == (backward.miss, backward.fa)
    assert forward.spkerr == backward.spkerr


def test_aggregate_is_duration_weighted():
    small = DerBreakdown(fa=S, miss=0, spkerr=0, total=10 * S)
    large = DerBreakdown(fa=0, miss=9 * S, spkerr=0, total=30 * S)
    combined = aggregate_der([small, large])
    assert combined.der == Fraction(10, 40)  # 25%, not mean(10%, 30%) = 20%
    assert aggregate_der([small]) == small
    doubled = aggregate_der([small, small])
    assert doubled.der == small.der
    assert doubled.total == 2 * small.total


def test_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        aggregate_der([])


def test_brute_force_matches_assignment_on_small_sessions():
    for seed in range(20):
        ref = generate_session(speakers=1 + seed % 4, duration_ms=20_000, overlap=0.3 if seed % 4 else 0.0, seed=seed).diarization
        hyp = generate_session(speakers=1 + (seed + 2) % 4, duration_ms=20_000, overlap=0.3 if (seed + 2) % 4 else 0.0, seed=seed + 100).diarization
        assigned = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
        _, enumerated = brute_force_der(ref, hyp)
        assert assigned == enumerated


def test_optimal_map_matches_exhaustive_overlap_maximization():
    ref = generate_session(speakers=3, duration_ms=25_000, seed=11).diarization
    hyp = generate_session(speakers=3, duration_ms=25_000, seed=12).diarization
    overlap = pairwise_overlap(ref, hyp)
    refs, hyps = sorted(ref.speaker_ids), sorted(hyp.speaker_ids)
    best = max(
        sum(overlap[(r, h)] for r, h in zip(refs, perm)) for perm in permutations(hyps, len(refs))
    )
    smap = optimal_speaker_map(ref, hyp)
    assert sum(overlap[pair] for pair in smap.pairs) == best


def test_equal_overlaps_pair_speakers_in_id_order():
    ref = Diarization("S1", {"A": [(0, 10 * S)], "B": [(0, 10 * S)]})
    hyp = Diarization("S1", {"Y": [(0, 10 * S)], "X": [(0, 10 * S)]})
    assert set(pairwise_overlap(ref, hyp).values()) == {10 * S}
    assert optimal_speaker_map(ref, hyp).pairs == (("A", "X"), ("B", "Y"))


def test_speaker_map_injectivity_enforced():
    with pytest.raises(ValidationError):
        SpeakerMap(pairs=(("A", "X"), ("A", "Y")), unmatched_ref=(), unmatched_hyp=())


intervals_st = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 15)).map(lambda t: (t[0] * 100, t[1] * 100)),
    max_size=4,
)
diar_st = st.builds(
    lambda m: Diarization("S1", m),
    st.dictionaries(st.sampled_from(["A", "B", "C", "D"]), intervals_st, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(diar_st, diar_st)
def test_score_der_equals_map_then_compute(ref, hyp):
    smap = optimal_speaker_map(ref, hyp)
    assert score_der(ref, hyp) == (smap, compute_der(ref, hyp, smap))


@settings(max_examples=100, deadline=None)
@given(diar_st, diar_st)
def test_score_der_rate_equals_brute_force(ref, hyp):
    assume(total_speech(ref))
    assert score_der(ref, hyp)[1].der == brute_force_der(ref, hyp)[1].der


def test_score_der_requires_reference_speech():
    # both scorers return the counts of a session without reference speech
    hyp = Diarization("S1", {"X": [(0, S)], "Y": [(2 * S, 3 * S)]})
    empty = Diarization("S1", {})
    for scorer in (score_der, brute_force_der):
        for other, fa in ((hyp, 4 * S), (empty, 0)):
            smap, breakdown = scorer(empty, other)
            assert smap == SpeakerMap((), (), other.speaker_ids)
            assert breakdown == DerBreakdown(fa=fa, miss=0, spkerr=0, total=0)
            with pytest.raises(UndefinedMetricError):
                breakdown.der
            with pytest.raises(UndefinedMetricError):
                breakdown.rate("fa")
