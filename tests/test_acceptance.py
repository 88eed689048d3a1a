"""Acceptance suite.

One test per exit criterion, each printing a [PASS]/[FAIL] line (visible
with ``pytest -s`` or on failure).  Published component/total rows are used
strictly as arithmetic-identity fixtures: synthetic sessions are corrupted
until their measured rates match a row, then the reported total must equal
the component sum at the stated tolerance.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from diarscore.cer import edit_counts, edit_distance
from diarscore.cpcer import compute_cpcer, concat_by_speaker
from diarscore.der import brute_force_der, compute_der, optimal_speaker_map
from diarscore.formats import emit_rttm, parse_rttm
from diarscore.fusion import fuse_channels
from diarscore.reporting import percent
from diarscore.synth import (
    corrupt_diarization,
    corrupt_text,
    generate_session,
)
from diarscore.timeline import Diarization
from support import random_turn_list, total_chars, total_speech

# Published (FA, MISS, SPKERR, DER) percentages for three baseline
# modality mixes; the visual row's printed total is 0.01 below its
# component sum (components were rounded independently).
DIARIZATION_ROWS = {
    "audio-only": (0.01, 19.88, 11.36, 31.25),
    "visual-only": (6.64, 8.17, 3.89, 18.69),
    "audio-visual": (4.01, 5.86, 3.22, 13.09),
}

# Published (S, D, I, cpCER) percentages for six diarization/recognition
# modality mixes.
RECOGNITION_ROWS = {
    "oracle-seg audio": (40.84, 27.33, 0.51, 68.68),
    "oracle-seg audio-visual": (35.78, 27.82, 0.36, 63.96),
    "audio diar + audio asr": (31.83, 44.34, 4.27, 80.44),
    "visual diar + audio asr": (39.25, 31.22, 0.66, 71.13),
    "visual diar + av asr": (35.17, 31.01, 0.61, 66.79),
    "av diar + av asr": (35.94, 29.45, 0.68, 66.07),
}


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - start:.2f}s)")


def pct(value) -> float:
    return float(percent(value))


def test_diarization_rows_arithmetic_identity():
    with criterion("diarization rows: components sum to the reported rate"):
        start = time.perf_counter()
        for seed, (label, (fa_p, miss_p, spkerr_p, der_p)) in enumerate(DIARIZATION_ROWS.items()):
            # the published row itself must be internally consistent to 0.01
            assert abs((fa_p + miss_p + spkerr_p) - der_p) <= 0.01 + 1e-9, label

            sess = generate_session(
                speakers=3, duration_ms=160_000, overlap=0.05, silence=0.2, seed=seed
            )
            ref = sess.diarization
            total = total_speech(ref)
            inject = [round(p * total / 100) for p in (fa_p, miss_p, spkerr_p)]
            hyp, _ = corrupt_diarization(
                ref, fa_ms=inject[0], miss_ms=inject[1], spkerr_ms=inject[2], seed=11
            )
            breakdown = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
            measured = [
                pct(breakdown.rate("fa")),
                pct(breakdown.rate("miss")),
                pct(breakdown.rate("spkerr")),
            ]
            for got, want in zip(measured, (fa_p, miss_p, spkerr_p)):
                assert abs(got - want) <= 0.05, (label, got, want)
            reported_der = pct(breakdown.der)
            assert abs(reported_der - sum(measured)) <= 0.01 + 1e-9, (label, reported_der, measured)
        assert time.perf_counter() - start < 5.0


def test_recognition_rows_arithmetic_identity():
    with criterion("recognition rows: S+D+I sums to the reported cpCER"):
        start = time.perf_counter()
        for index, (label, (s_p, d_p, i_p, cp_p)) in enumerate(RECOGNITION_ROWS.items()):
            assert abs((s_p + d_p + i_p) - cp_p) <= 0.01 + 1e-9, label

            sess = generate_session(
                speakers=2, duration_ms=1_300_000, overlap=0.1, silence=0.1, seed=100 + index
            )
            ref_streams = concat_by_speaker(sess.transcript)
            n = total_chars(ref_streams)
            s, d, i = (round(p * n / 100) for p in (s_p, d_p, i_p))
            hyp_entries, _ = corrupt_text(sess.transcript, sub=s, delete=d, insert=i, seed=7)
            result = compute_cpcer(ref_streams, concat_by_speaker(hyp_entries))
            counts = result.counts
            assert (counts.s, counts.d, counts.i) == (s, d, i), label
            measured = [pct(Fraction(c, n)) for c in (counts.s, counts.d, counts.i)]
            for got, want in zip(measured, (s_p, d_p, i_p)):
                assert abs(got - want) <= 0.05, (label, got, want)
            reported = pct(result.cpcer)
            assert abs(reported - sum(measured)) <= 0.01 + 1e-9, (label, reported, measured)
        assert time.perf_counter() - start < 5.0


def test_der_mapping_matches_brute_force_oracle():
    with criterion("DER speaker mapping equals brute force on 200 random sessions"):
        start = time.perf_counter()
        for trial in range(200):
            kr = 1 + trial % 5
            kh = 1 + (trial * 3 + 1) % 5
            ref = generate_session(
                speakers=kr,
                duration_ms=8_000 + (trial % 7) * 2_000,
                overlap=0.3 if kr > 1 else 0.0,
                silence=0.2,
                seed=trial * 2,
            ).diarization
            hyp = generate_session(
                speakers=kh,
                duration_ms=8_000 + (trial % 5) * 2_000,
                overlap=0.3 if kh > 1 else 0.0,
                silence=0.2,
                seed=trial * 2 + 1,
            ).diarization
            assigned = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
            _, enumerated = brute_force_der(ref, hyp)
            assert assigned == enumerated, trial
        assert time.perf_counter() - start < 30.0


def test_cpcer_assignment_matches_brute_force_oracle():
    with criterion("cpCER assignment equals brute force on 200 random sessions"):
        start = time.perf_counter()
        for trial in range(200):
            kr = 1 + trial % 6
            kh = 1 + (trial * 5 + 2) % 6
            ref = concat_by_speaker(
                generate_session(
                    speakers=kr,
                    duration_ms=9_000,
                    overlap=0.25 if kr > 1 else 0.0,
                    silence=0.2,
                    seed=1000 + trial * 2,
                ).transcript
            )
            hyp = concat_by_speaker(
                generate_session(
                    speakers=kh,
                    duration_ms=9_000,
                    overlap=0.25 if kh > 1 else 0.0,
                    silence=0.2,
                    seed=1000 + trial * 2 + 1,
                ).transcript
            )
            fast = compute_cpcer(ref, hyp, mode="assignment")
            slow = compute_cpcer(ref, hyp, mode="brute-force")
            assert fast.counts == slow.counts, trial
            assert fast.assignment == slow.assignment, trial
        assert time.perf_counter() - start < 60.0


def test_ledger_recovery_loops():
    with criterion("100 corrupt-then-score loops recover ledgers exactly"):
        start = time.perf_counter()
        for trial in range(100):
            k = 2 + trial % 3
            sess = generate_session(
                speakers=k, duration_ms=40_000 + (trial % 5) * 8_000, silence=0.2, seed=trial
            )
            ref = sess.diarization
            total = total_speech(ref)
            fa = (trial * 37) % (total // 10)
            miss = (trial * 53) % (total // 10)
            spkerr = (trial * 71) % (total // 12)
            hyp, ledger = corrupt_diarization(ref, fa_ms=fa, miss_ms=miss, spkerr_ms=spkerr, seed=trial + 1)
            breakdown = compute_der(ref, hyp, optimal_speaker_map(ref, hyp))
            assert (breakdown.fa, breakdown.miss, breakdown.spkerr) == (fa, miss, spkerr), trial
            assert breakdown.total == total, trial

            streams = concat_by_speaker(sess.transcript)
            n = total_chars(streams)
            s = (trial * 13) % (n // 4)
            d = (trial * 17) % (n // 4)
            i = (trial * 7) % (n // 5)
            hyp_entries, text_ledger = corrupt_text(sess.transcript, sub=s, delete=d, insert=i, seed=trial + 2)
            counts = compute_cpcer(streams, concat_by_speaker(hyp_entries)).counts
            assert (counts.s, counts.d, counts.i) == (s, d, i), trial
        assert time.perf_counter() - start < 30.0


def test_edit_distance_matches_independent_dp():
    with criterion("edit distance equals a quadratic DP oracle on 1000 pairs"):

        def oracle(a, b):
            prev = list(range(len(b) + 1))
            for x, ca in enumerate(a, 1):
                cur = [x] + [0] * len(b)
                for y, cb in enumerate(b, 1):
                    cur[y] = min(prev[y] + 1, cur[y - 1] + 1, prev[y - 1] + (ca != cb))
                prev = cur
            return prev[-1]

        import random

        rng = random.Random(99)
        alphabet = "abcdef你好世界"
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            expected = oracle(a, b)
            assert edit_distance(a, b) == expected
            assert edit_counts(a, b).distance == expected


def test_fusion_idempotence_and_majority():
    with criterion("fusion is idempotent and majority voting holds"):
        d = generate_session(speakers=3, duration_ms=30_000, seed=50).diarization
        for k in (1, 3, 6):
            fused = fuse_channels([d] * k)
            breakdown = compute_der(d, fused, optimal_speaker_map(d, fused))
            assert breakdown.der == 0, k
            assert fused == d, k

        from diarscore.formats import TimeInterval

        says = Diarization("S1", {"A": [(0, 10_000)]})
        silent = Diarization("S1", {"B": [(20_000, 1_000)]})
        fused = fuse_channels([says, says, silent])
        assert fused.intervals("A") == (TimeInterval(0, 10_000),)


def test_rttm_round_trip_and_column_contract():
    with criterion("RTTM parse/emit round-trips and columns 4/5/8 hold"):
        import io

        for seed in range(100):
            turns = random_turn_list(seed)
            assert parse_rttm(io.StringIO(emit_rttm(turns))) == turns

        from diarscore.formats import SpeakerTurn, TimeInterval

        line = emit_rttm([SpeakerTurn("S001", "1", "SPK01", TimeInterval(10_500, 3_250))]).strip()
        fields = line.split()
        assert fields[3] == "10.50"  # start: 4th column
        assert fields[4] == "3.25"  # duration: 5th column
        assert fields[7] == "SPK01"  # speaker: 8th column
        assert len(fields) == 10


def test_absolute_corpus_scores_out_of_scope():
    with criterion("published absolute scores used as arithmetic fixtures only"):
        # Without the corpus and trained systems the absolute numbers are
        # not reproducible; the suites above cover the metric definitions.
        # The fixtures themselves must stay internally consistent.
        for fa, miss, spkerr, der in DIARIZATION_ROWS.values():
            assert abs(fa + miss + spkerr - der) <= 0.01 + 1e-9
        for s, d, i, cp in RECOGNITION_ROWS.values():
            assert abs(s + d + i - cp) <= 0.01 + 1e-9
