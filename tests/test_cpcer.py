import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diarscore import cpcer
from diarscore.cer import EditCounts, edit_distance
from diarscore.cpcer import (
    SpeakerText,
    attach_order_from_rttm,
    compute_cpcer,
    concat_by_speaker,
)
from diarscore.errors import SessionMismatchError, UndefinedMetricError
from diarscore.formats import SpeakerTurn, TimeInterval, TranscriptEntry
from diarscore.synth import generate_session
from support import histogram_bounds_oracle, traced_peak


def entry(speaker, text, key, session="S1"):
    return TranscriptEntry(speaker=speaker, session=session, text=text, order_key=key)


def test_concat_sorts_by_order_key():
    merged = concat_by_speaker([entry("A", "世界", 5000), entry("A", "你好", 1000)])
    assert merged.streams == {"A": "你好世界"}


def test_concat_identity_for_single_entries():
    merged = concat_by_speaker([entry("A", "你好", 0), entry("B", "世界", 1)])
    assert merged.streams == {"A": "你好", "B": "世界"}


def test_concat_empty():
    merged = concat_by_speaker([], session="S1")
    assert merged.streams == {}
    assert merged.session == "S1"


def test_concat_stable_for_equal_keys_and_warns_on_conflict(caplog):
    with caplog.at_level("WARNING"):
        merged = concat_by_speaker([entry("A", "x", 7), entry("A", "y", 7)])
    assert merged.streams == {"A": "xy"}
    assert "conflicting" in caplog.text


def test_concat_rejects_mixed_sessions():
    with pytest.raises(SessionMismatchError):
        concat_by_speaker([entry("A", "x", 0, "S1"), entry("B", "y", 1, "S2")])


def test_cpcer_zero_for_relabeled_identity():
    ref = SpeakerText("S1", {"A": "你好世界", "B": "天气不错"})
    hyp = SpeakerText("S1", {"spk2": "天气不错", "spk1": "你好世界"})
    result = compute_cpcer(ref, hyp)
    assert result.cpcer == 0
    assert result.counts.n == 8


def test_cpcer_two_stream_example():
    # brute force over the two bijections by hand: {A:2, B:1} wins with one sub
    ref = SpeakerText("S1", {"A": "abc", "B": "def"})
    hyp = SpeakerText("S1", {"1": "def", "2": "abx"})
    result = compute_cpcer(ref, hyp)
    assert result.assignment.pairs == (("A", "2"), ("B", "1"))
    assert (result.counts.s, result.counts.d, result.counts.i) == (1, 0, 0)
    assert result.cpcer == Fraction(1, 6)


def test_cpcer_pads_unmatched_hyp_stream():
    ref = SpeakerText("S1", {"A": "abc"})
    hyp = SpeakerText("S1", {"1": "abc", "2": "zz"})
    result = compute_cpcer(ref, hyp)
    assert result.assignment.pairs == (("A", "1"),)
    assert result.assignment.unmatched_hyp == ("2",)
    assert result.counts.i == 2
    assert result.cpcer == Fraction(2, 3)


def test_cpcer_empty_hypothesis_is_all_deletions():
    ref = SpeakerText("S1", {"A": "abcd", "B": "ef"})
    hyp = SpeakerText("S1", {})
    result = compute_cpcer(ref, hyp)
    assert result.counts.d == 6
    assert result.cpcer == 1


def test_cpcer_rejects_empty_reference():
    # the insertions are counted; only the rate of an empty reference is undefined
    hyp = SpeakerText("S1", {"B": "xy", "C": "z"})
    for mode in ("assignment", "brute-force"):
        for ref in (SpeakerText("S1", {}), SpeakerText("S1", {"A": ""})):
            result = compute_cpcer(ref, hyp, mode=mode)
            assert result.counts == EditCounts(s=0, d=0, i=3, n=0)
            with pytest.raises(UndefinedMetricError, match=r"^empty reference: CER undefined$"):
                result.cpcer
            with pytest.raises(UndefinedMetricError, match=r"^empty reference: rate undefined$"):
                result.counts.rate("i")
        empty = SpeakerText("S1", {})
        assert compute_cpcer(empty, empty, mode=mode).counts == EditCounts(0, 0, 0, 0)


def test_cpcer_session_mismatch():
    with pytest.raises(SessionMismatchError):
        compute_cpcer(SpeakerText("S1", {"A": "x"}), SpeakerText("S2", {"A": "x"}))


def test_cpcer_invariant_under_hyp_renaming():
    sess = generate_session(speakers=3, duration_ms=30_000, seed=5)
    ref = concat_by_speaker(sess.transcript)
    renamed = SpeakerText(
        "S0001", {f"Z{i}": text for i, (_, text) in enumerate(sorted(ref.streams.items()))}
    )
    assert compute_cpcer(ref, renamed).cpcer == 0


def test_cpcer_appending_hyp_stream_never_helps():
    ref = SpeakerText("S1", {"A": "abcdef"})
    hyp = SpeakerText("S1", {"1": "abcdef"})
    base = compute_cpcer(ref, hyp).cpcer
    extended = SpeakerText("S1", {"1": "abcdef", "2": "qq"})
    assert compute_cpcer(ref, extended).cpcer >= base


def test_brute_force_agrees_with_assignment():
    for seed in range(12):
        k = 1 + seed % 4
        sess = generate_session(speakers=k, duration_ms=20_000, overlap=0.2 if k > 1 else 0.0, seed=seed)
        ref = concat_by_speaker(sess.transcript)
        k2 = 1 + (seed + 1) % 4
        other = generate_session(speakers=k2, duration_ms=20_000, overlap=0.2 if k2 > 1 else 0.0, seed=seed + 50)
        hyp = concat_by_speaker(other.transcript)
        fast = compute_cpcer(ref, hyp, mode="assignment")
        slow = compute_cpcer(ref, hyp, mode="brute-force")
        assert fast.counts == slow.counts
        assert fast.assignment == slow.assignment


# Streams over 1-4 letters share most characters, so the histogram bounds
# are weak and the assignment mode has to align and re-solve.
small_alphabet_streams = st.sampled_from(["a", "ab", "abc", "abcd"]).flatmap(
    lambda alphabet: st.lists(st.text(alphabet=alphabet, max_size=8), max_size=4)
)


@settings(max_examples=300, deadline=None)
@given(small_alphabet_streams.filter(any), small_alphabet_streams)
def test_bounded_assignment_matches_full_matrix(ref_texts, hyp_texts):
    ref = SpeakerText("S1", {f"R{k}": t for k, t in enumerate(ref_texts)})
    hyp = SpeakerText("S1", {f"H{k}": t for k, t in enumerate(hyp_texts)})
    fast = compute_cpcer(ref, hyp, mode="assignment")
    slow = compute_cpcer(ref, hyp, mode="brute-force")
    assert fast.assignment == slow.assignment
    assert fast.counts == slow.counts


@settings(max_examples=300, deadline=None)
@given(small_alphabet_streams, small_alphabet_streams)
def test_histogram_bound_never_exceeds_distance(ref_texts, hyp_texts):
    cost, inexact = cpcer._histogram_bounds(ref_texts, hyp_texts)
    assert cost.shape == (len(ref_texts), len(hyp_texts))
    for i, r in enumerate(ref_texts):
        for j, h in enumerate(hyp_texts):
            distance = edit_distance(r, h)
            assert cost[i, j] <= distance
            if not r or not h:
                assert (i, j) not in inexact
            if (i, j) not in inexact:
                assert cost[i, j] == distance


@settings(max_examples=300, deadline=None)
@given(small_alphabet_streams, small_alphabet_streams, st.booleans())
def test_histogram_bounds_match_the_all_histogram_formula(ref_texts, hyp_texts, pad):
    if pad:  # the square shape compute_cpcer passes, empty streams appended
        size = max(len(ref_texts), len(hyp_texts))
        ref_texts = cpcer._pad(ref_texts, ref_texts, size)[1]
        hyp_texts = cpcer._pad(hyp_texts, hyp_texts, size)[1]
    cost, inexact = cpcer._histogram_bounds(ref_texts, hyp_texts)
    assert (cost.tolist(), inexact) == histogram_bounds_oracle(ref_texts, hyp_texts)


def test_histogram_bounds_hold_one_histogram_per_side():
    # 4 x 4 streams, each the same 3,000 distinct characters in its own
    # order: every histogram is large and every pair shares every key
    rng = random.Random(3)
    pool = [chr(0x4E00 + k) for k in range(3000)]
    refs, hyps = (["".join(rng.sample(pool, len(pool))) for _ in range(4)] for _ in range(2))
    longest = max(refs + hyps, key=len)
    _, one = traced_peak(Counter, map(ord, longest))
    (cost, inexact), peak = traced_peak(cpcer._histogram_bounds, refs, hyps)
    assert (cost.tolist(), inexact) == histogram_bounds_oracle(refs, hyps)
    # a reference histogram and the one hypothesis histogram being built;
    # histograms keyed by one-character strings took 2.26 times one, and
    # every histogram at once plus a key set per pair over 7 times
    assert peak <= 2.5 * one, peak / one


def zipf_streams(rng, speakers, length, pool_size=3000, edit_rate=0.1):
    """Matched reference/hypothesis streams drawn Zipf-like from one shared pool."""
    pool = [chr(0x4E00 + k) for k in range(pool_size)]
    cum, total = [], 0.0
    for rank in range(1, pool_size + 1):
        total += 1 / rank
        cum.append(total)

    def draw(k):
        return "".join(rng.choices(pool, cum_weights=cum, k=k))

    refs, hyps = [], []
    for _ in range(speakers):
        ref = draw(length)
        hyp = []
        for ch in ref:
            u = rng.random()
            if u < edit_rate / 3:
                continue  # deletion
            hyp.append(draw(1) if u < 2 * edit_rate / 3 else ch)  # substitution or keep
            if 2 * edit_rate / 3 <= u < edit_rate:
                hyp.append(draw(1))  # insertion
        refs.append(ref)
        hyps.append("".join(hyp))
    return refs, hyps


@pytest.mark.parametrize("speakers, length", [(4, 3000), (6, 2000)])
def test_shared_vocabulary_aligns_fewer_than_all_cells(monkeypatch, speakers, length):
    refs, hyps = zipf_streams(random.Random(speakers), speakers, length)
    ref = SpeakerText("S1", {f"R{k}": t for k, t in enumerate(refs)})
    # hypothesis names sort in the reverse order of their speakers
    hyp = SpeakerText("S1", {f"H{speakers - k}": t for k, t in enumerate(hyps)})
    slow = compute_cpcer(ref, hyp, mode="brute-force")
    calls = []

    def counted(r, h):
        calls.append((r, h))
        return edit_distance(r, h)

    monkeypatch.setattr(cpcer, "edit_distance", counted)
    fast = compute_cpcer(ref, hyp, mode="assignment")
    assert fast.assignment == slow.assignment
    assert fast.counts == slow.counts
    assert fast.assignment.pairs == tuple((f"R{k}", f"H{speakers - k}") for k in range(speakers))
    assert len(calls) < speakers * speakers


def test_attach_order_from_rttm_returns_the_entries_unchanged(caplog):
    # keys that fall against the turns' starts: only the transcript sets the order
    turns = [
        SpeakerTurn("S1", "1", "A", TimeInterval(9000, 1000)),
        SpeakerTurn("S1", "1", "B", TimeInterval(5000, 1000)),
        SpeakerTurn("S1", "1", "A", TimeInterval(2000, 1000)),
    ]
    entries = [entry("A", "первый", 7), entry("B", "x", 0), entry("A", "второй", 3)]
    with caplog.at_level("WARNING"):
        assert attach_order_from_rttm(iter(entries), turns) == entries
    assert caplog.records == []


def test_attach_order_warns_for_pairs_only_the_rttm_holds(caplog):
    turns = [
        SpeakerTurn("S2", "1", "C", TimeInterval(0, 1000)),
        SpeakerTurn("S1", "1", "B", TimeInterval(0, 1000)),
        SpeakerTurn("S1", "1", "A", TimeInterval(0, 1000)),
        SpeakerTurn("S1", "1", "B", TimeInterval(2000, 1000)),
        SpeakerTurn("S1", "1", "Z", TimeInterval(0, 1000)),
        SpeakerTurn("S1", "1", "Z", TimeInterval(5000, 1000)),
    ]
    entries = [entry("Z", "z", 0), entry("A", "x", 1), entry("A", "y", 2)]
    with caplog.at_level("WARNING"):
        assert attach_order_from_rttm(entries, turns) == entries
    # pairs with entries in first-appearance order, then the RTTM-only pairs sorted
    assert [r.getMessage() for r in caplog.records] == [
        "session S1 speaker Z: 1 transcript entries vs 2 turns; keeping file order",
        "session S1 speaker A: 2 transcript entries vs 1 turns; keeping file order",
        "session S1 speaker B: 0 transcript entries vs 2 turns; keeping file order",
        "session S2 speaker C: 0 transcript entries vs 1 turns; keeping file order",
    ]


def test_attach_order_keeps_file_order_on_count_mismatch(caplog):
    turns = [SpeakerTurn("S1", "1", "A", TimeInterval(0, 1000))]
    entries = [entry("A", "x", 0), entry("A", "y", 1)]
    with caplog.at_level("WARNING"):
        ordered = attach_order_from_rttm(entries, turns)
    assert [e.order_key for e in ordered] == [0, 1]
    assert "keeping file order" in caplog.text
