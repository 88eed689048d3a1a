import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from diarscore import synth
from diarscore.cpcer import compute_cpcer, concat_by_speaker
from diarscore.der import compute_der, optimal_speaker_map
from diarscore.errors import InjectionError, ValidationError
from diarscore.formats import emit_rttm, emit_transcript
from diarscore.synth import (
    corrupt_diarization,
    corrupt_text,
    generate_session,
    write_ledger,
)
from support import carve_oracle, parse_ledger, total_chars, total_speech


def test_same_seed_reproduces_byte_identical_files():
    a = generate_session(speakers=3, duration_ms=40_000, seed=17)
    b = generate_session(speakers=3, duration_ms=40_000, seed=17)
    assert emit_rttm(a.diarization.to_turns()) == emit_rttm(b.diarization.to_turns())
    assert emit_transcript(a.transcript) == emit_transcript(b.transcript)
    c = generate_session(speakers=3, duration_ms=40_000, seed=18)
    assert emit_rttm(a.diarization.to_turns()) != emit_rttm(c.diarization.to_turns())


def test_single_speaker_has_no_overlap():
    sess = generate_session(speakers=1, duration_ms=30_000, overlap=0.0, seed=2)
    assert sess.realized_overlap == 0


def test_overlap_with_one_speaker_rejected():
    with pytest.raises(ValidationError, match="infeasible"):
        generate_session(speakers=1, overlap=0.2)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        generate_session(speakers=0)
    with pytest.raises(ValidationError):
        generate_session(duration_ms=0)
    with pytest.raises(ValidationError):
        generate_session(overlap=1.0)


def test_text_pool_exhaustion_is_reported():
    # distinct-character text caps sessions at roughly 100 minutes of speech
    with pytest.raises(ValidationError, match="text pool"):
        generate_session(speakers=4, duration_ms=8_000_000, seed=1)


def test_reference_scores_zero_against_itself():
    sess = generate_session(speakers=4, duration_ms=40_000, seed=21)
    ref = sess.diarization
    assert compute_der(ref, ref, optimal_speaker_map(ref, ref)).der == 0
    streams = concat_by_speaker(sess.transcript)
    assert compute_cpcer(streams, streams).cpcer == 0


def test_corrupt_nothing_is_identity():
    sess = generate_session(speakers=3, duration_ms=30_000, seed=30)
    hyp, ledger = corrupt_diarization(sess.diarization, seed=1)
    assert hyp == sess.diarization
    assert (ledger.fa_ms, ledger.miss_ms, ledger.spkerr_ms) == (0, 0, 0)
    hyp_entries, text_ledger = corrupt_text(sess.transcript, seed=1)
    ref_streams = concat_by_speaker(sess.transcript)
    assert concat_by_speaker(hyp_entries).streams == ref_streams.streams
    assert (text_ledger.sub, text_ledger.delete, text_ledger.insert) == (0, 0, 0)


def test_fa_injection_measures_back_exactly():
    sess = generate_session(speakers=1, duration_ms=100_000, overlap=0.0, silence=0.2, seed=31)
    ref = sess.diarization
    hyp, _ = corrupt_diarization(ref, fa_ms=1000, seed=5)
    breakdown = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
    assert breakdown.fa == 1000
    assert (breakdown.miss, breakdown.spkerr) == (0, 0)
    assert breakdown.total == total_speech(ref)


def test_spkerr_injection_measures_back_exactly():
    sess = generate_session(speakers=3, duration_ms=60_000, seed=32)
    ref = sess.diarization
    hyp, _ = corrupt_diarization(ref, spkerr_ms=2000, seed=6)
    breakdown = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
    assert breakdown.spkerr == 2000
    assert (breakdown.fa, breakdown.miss) == (0, 0)


def test_mixed_injection_measures_back_exactly():
    sess = generate_session(speakers=4, duration_ms=80_000, silence=0.2, seed=33)
    ref = sess.diarization
    hyp, ledger = corrupt_diarization(ref, fa_ms=1500, miss_ms=2500, spkerr_ms=1200, seed=7)
    breakdown = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
    assert (breakdown.fa, breakdown.miss, breakdown.spkerr) == (1500, 2500, 1200)


def test_injection_errors():
    sess = generate_session(speakers=1, duration_ms=10_000, overlap=0.0, seed=34)
    with pytest.raises(InjectionError):
        corrupt_diarization(sess.diarization, spkerr_ms=100)  # needs 2 speakers
    with pytest.raises(InjectionError):
        corrupt_diarization(sess.diarization, miss_ms=10_000_000)  # more than exists
    with pytest.raises(ValidationError):
        corrupt_diarization(sess.diarization, fa_ms=-1)


@pytest.mark.parametrize("grid_ms", [0, -10])
def test_grid_must_be_positive(grid_ms):
    # refused before the amounts are checked against the grid
    sess = generate_session(speakers=2, duration_ms=10_000, overlap=0.0, seed=34)
    with pytest.raises(ValidationError) as exc:
        corrupt_diarization(sess.diarization, fa_ms=100, grid_ms=grid_ms)
    assert str(exc.value) == f"grid_ms must be positive: {grid_ms}"


def test_corrupt_text_single_kind_rates():
    sess = generate_session(speakers=1, duration_ms=35_000, overlap=0.0, seed=35)
    streams = concat_by_speaker(sess.transcript)
    n = total_chars(streams)
    assert n >= 100
    hyp_entries, _ = corrupt_text(sess.transcript, sub=3, seed=8)
    result = compute_cpcer(streams, concat_by_speaker(hyp_entries))
    assert (result.counts.s, result.counts.d, result.counts.i) == (3, 0, 0)

    hyp_entries, _ = corrupt_text(sess.transcript, delete=5, insert=5, seed=9)
    result = compute_cpcer(streams, concat_by_speaker(hyp_entries))
    assert (result.counts.s, result.counts.d, result.counts.i) == (0, 5, 5)
    assert result.counts.n == n


def test_corrupt_text_infeasible_counts():
    sess = generate_session(speakers=1, duration_ms=10_000, overlap=0.0, seed=36)
    n = total_chars(concat_by_speaker(sess.transcript))
    with pytest.raises(InjectionError):
        corrupt_text(sess.transcript, sub=n, delete=1)


def test_corrupt_text_requires_distinct_characters():
    from diarscore.formats import TranscriptEntry

    entries = [TranscriptEntry("A", "S1", "aa", 0)]
    with pytest.raises(ValidationError, match="distinct"):
        corrupt_text(entries, sub=1)


def test_ledger_round_trip():
    hyp, dl = corrupt_diarization(
        generate_session(speakers=2, duration_ms=30_000, seed=37).diarization,
        fa_ms=10,
        miss_ms=20,
        spkerr_ms=30,
        seed=1,
    )
    text = write_ledger(dl, None)
    assert text == "fa_ms\t10\nmiss_ms\t20\nspkerr_ms\t30\n"
    assert parse_ledger(text.splitlines()) == {"fa_ms": 10, "miss_ms": 20, "spkerr_ms": 30}


SPANS = st.lists(
    st.tuples(st.integers(0, 5_000), st.integers(0, 600), st.sampled_from(["A", "B", None])).map(
        lambda t: (t[0], t[0] + t[1], t[2])
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    SPANS,
    st.lists(st.integers(0, 2_000), min_size=1, max_size=3),
    st.sampled_from([1, 10]),
    st.integers(0, 2**32),
)
def test_carve_matches_the_rescanning_oracle(spans, needs, grid, seed):
    # carves in turn on one freelist, as corrupt_diarization carves missed
    # speech and then speaker errors out of the same single-speaker spans
    fast, slow = list(spans), list(spans)
    rng_fast, rng_slow = random.Random(seed), random.Random(seed)
    for need in needs:
        try:
            expected = carve_oracle(slow, need, "x", rng_slow, grid)
        except InjectionError as exc:
            with pytest.raises(InjectionError, match=re.escape(str(exc))):
                synth._carve(fast, need, "x", rng_fast, grid)
        else:
            assert synth._carve(fast, need, "x", rng_fast, grid) == expected
        assert fast == slow
        assert rng_fast.getstate() == rng_slow.getstate()
