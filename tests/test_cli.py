import contextlib
import io
import json
import logging
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diarscore import __version__, cli, timeline
from diarscore.cli import main
from diarscore.cpcer import attach_order_from_rttm
from diarscore.formats import (
    SpeakerTurn,
    TimeInterval,
    emit_rttm,
    emit_transcript,
    parse_rttm,
    parse_transcript,
)
from diarscore.synth import generate_session
from support import score_cpcer_oracle, total_chars, total_speech, traced_peak


@pytest.fixture
def session_files(tmp_path):
    sess = generate_session(speakers=3, duration_ms=40_000, seed=12)
    ref = tmp_path / "ref.rttm"
    ref.write_text(emit_rttm(sess.diarization.to_turns()), encoding="utf-8")
    trn = tmp_path / "ref.trn"
    trn.write_text(emit_transcript(sess.transcript), encoding="utf-8")
    return sess, ref, trn


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_der_self_is_zero(capsys, session_files, tmp_path):
    _, ref, _ = session_files
    tsv = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "score-der", "--ref", ref, "--hyp", ref, "--tsv", tsv)
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].split() == ["Session", "FA", "MISS", "SPKERR", "DER"]
    assert lines[1].split() == ["S0001", "0.00", "0.00", "0.00", "0.00"]
    assert lines[2].split()[0] == "OVERALL"
    # TSV mirrors the same numbers
    tsv_lines = tsv.read_text(encoding="utf-8").splitlines()
    assert tsv_lines[1].split("\t") == ["S0001", "0.00", "0.00", "0.00", "0.00"]


def test_score_der_output_is_deterministic(capsys, session_files):
    _, ref, _ = session_files
    _, out1, _ = run(capsys, "score-der", "--ref", ref, "--hyp", ref)
    _, out2, _ = run(capsys, "score-der", "--ref", ref, "--hyp", ref)
    assert out1 == out2


def test_score_der_brute_force_agrees(capsys, session_files, tmp_path):
    sess, ref, _ = session_files
    from diarscore.synth import corrupt_diarization

    hyp_d, _ = corrupt_diarization(sess.diarization, fa_ms=900, miss_ms=700, spkerr_ms=400, seed=3)
    hyp = tmp_path / "hyp.rttm"
    hyp.write_text(emit_rttm(hyp_d.to_turns()), encoding="utf-8")
    _, fast, _ = run(capsys, "score-der", "--ref", ref, "--hyp", hyp)
    _, slow, _ = run(capsys, "score-der", "--ref", ref, "--hyp", hyp, "--brute-force")
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert strip(fast) == strip(slow)


def test_score_der_errors(capsys, tmp_path, session_files):
    _, ref, _ = session_files
    code, _, err = run(capsys, "score-der", "--ref", tmp_path / "missing.rttm", "--hyp", ref)
    assert code == 2
    assert "i/o error" in err
    bad = tmp_path / "bad.rttm"
    bad.write_text("SPEAKER S1 1 oops 1.0 <NA> <NA> A <NA> <NA>\n", encoding="utf-8")
    code, _, err = run(capsys, "score-der", "--ref", bad, "--hyp", ref)
    assert code == 1
    assert "line 1" in err
    other = tmp_path / "other.rttm"
    other.write_text("SPEAKER OTHER 1 1.00 1.00 <NA> <NA> A <NA> <NA>\n", encoding="utf-8")
    code, _, err = run(capsys, "score-der", "--ref", ref, "--hyp", other)
    assert code == 1
    assert "no overlapping sessions" in err


def test_score_der_reports_unmatched_sessions(capsys, tmp_path, caplog):
    a = generate_session(speakers=2, duration_ms=20_000, seed=1, session="S0001")
    b = generate_session(speakers=2, duration_ms=20_000, seed=2, session="S0002")
    ref = tmp_path / "ref.rttm"
    ref.write_text(
        emit_rttm(a.diarization.to_turns() + b.diarization.to_turns()), encoding="utf-8"
    )
    hyp = tmp_path / "hyp.rttm"
    hyp.write_text(emit_rttm(a.diarization.to_turns()), encoding="utf-8")
    with caplog.at_level("WARNING"):
        code, out, _ = run(capsys, "score-der", "--ref", ref, "--hyp", hyp)
    assert code == 0
    assert "S0002" in caplog.text and "not scored" in caplog.text
    assert [ln.split()[0] for ln in out.splitlines() if not ln.startswith("#")] == [
        "Session",
        "S0001",
        "OVERALL",
    ]


def test_non_utf8_input_is_a_validation_error(capsys, tmp_path, session_files):
    _, ref, _ = session_files
    bad = tmp_path / "bad.rttm"
    bad.write_bytes(b"SPEAKER S1 1 \xff\xfe 1.0 <NA> <NA> A <NA> <NA>\n")
    code, _, err = run(capsys, "score-der", "--ref", bad, "--hyp", ref)
    assert code == 1
    assert "UTF-8" in err


def test_score_cpcer_self_is_zero(capsys, session_files, tmp_path):
    _, ref, trn = session_files
    tsv = tmp_path / "out.tsv"
    code, out, _ = run(
        capsys, "score-cpcer", "--ref-trn", trn, "--ref-rttm", ref, "--hyp-trn", trn, "--tsv", tsv
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].split() == ["Session", "S", "D", "I", "cpCER"]
    assert lines[1].split() == ["S0001", "0.00", "0.00", "0.00", "0.00"]
    assert tsv.read_text(encoding="utf-8").splitlines()[1].split("\t")[1:] == [
        "0.00",
        "0.00",
        "0.00",
        "0.00",
    ]


def test_score_cpcer_recovers_text_ledger(capsys, session_files, tmp_path):
    sess, ref, trn = session_files
    from diarscore.cpcer import concat_by_speaker
    from diarscore.synth import corrupt_text

    n = total_chars(concat_by_speaker(sess.transcript))
    hyp_entries, _ = corrupt_text(sess.transcript, sub=4, delete=3, insert=2, seed=9)
    hyp = tmp_path / "hyp.trn"
    hyp.write_text(emit_transcript(hyp_entries), encoding="utf-8")
    code, out, _ = run(capsys, "score-cpcer", "--ref-trn", trn, "--hyp-trn", hyp)
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("S0001")][0].split()
    from diarscore.reporting import percent
    from fractions import Fraction

    assert row[1:] == [
        percent(Fraction(4, n)),
        percent(Fraction(3, n)),
        percent(Fraction(2, n)),
        percent(Fraction(9, n)),
    ]


def write_report_inputs(tmp_path, first):
    """The session_files session S0001 and three more: S0002 is scored too,
    S0003 has no hypothesis and S0004 no reference."""
    from diarscore.synth import corrupt_diarization, corrupt_text

    sessions = [first] + [
        generate_session(speakers=2, duration_ms=dur, seed=12 + k, session=f"S000{k + 1}")
        for k, dur in ((1, 20_000), (2, 5_000), (3, 5_000))
    ]
    ref_turns, hyp_turns, ref_entries, hyp_entries = [], [], [], []
    for k, sess in enumerate(sessions):
        hyp_d, _ = corrupt_diarization(
            sess.diarization, fa_ms=900, miss_ms=700, spkerr_ms=400, seed=3 + k
        )
        hyp_e, _ = corrupt_text(sess.transcript, sub=4, delete=3, insert=2, seed=9 + k)
        if sess.diarization.session != "S0004":
            ref_turns += sess.diarization.to_turns()
            ref_entries += sess.transcript
        if sess.diarization.session != "S0003":
            hyp_turns += hyp_d.to_turns()
            hyp_entries += hyp_e
    paths = {name: tmp_path / name for name in ("ref.rttm", "hyp.rttm", "ref.trn", "hyp.trn")}
    paths["ref.rttm"].write_text(emit_rttm(ref_turns), encoding="utf-8")
    paths["hyp.rttm"].write_text(emit_rttm(hyp_turns), encoding="utf-8")
    paths["ref.trn"].write_text(emit_transcript(ref_entries), encoding="utf-8")
    paths["hyp.trn"].write_text(emit_transcript(hyp_entries), encoding="utf-8")
    return paths


DER_TABLE = """\
Session    FA  MISS  SPKERR    DER
S0001    2.10  1.64    0.94   4.68
S0002    4.66  3.62    2.07  10.35
OVERALL  2.90  2.25    1.29   6.44
"""
DER_TSV = """\
session\tfa\tmiss\tspkerr\tder
S0001\t2.10\t1.64\t0.94\t4.68
S0002\t4.66\t3.62\t2.07\t10.35
OVERALL\t2.90\t2.25\t1.29\t6.44
"""
CPCER_TABLE = """\
Session     S     D     I  cpCER
S0001    3.05  2.29  1.53   6.87
S0002    6.78  5.08  3.39  15.25
OVERALL  4.21  3.16  2.11   9.47
"""
CPCER_TSV = """\
session\ts\td\ti\tcpcer
S0001\t3.05\t2.29\t1.53\t6.87
S0002\t6.78\t5.08\t3.39\t15.25
OVERALL\t4.21\t3.16\t2.11\t9.47
"""
# (arguments after the command, header lines after the version line, table, TSV)
REPORTS = [
    (
        ["score-der", "--ref", "ref.rttm", "--hyp", "hyp.rttm"],
        "# collar: none (overlapping speech scored)\n# mapping: assignment\n",
        DER_TABLE,
        DER_TSV,
    ),
    (
        ["score-der", "--ref", "ref.rttm", "--hyp", "hyp.rttm", "--brute-force"],
        "# collar: none (overlapping speech scored)\n# mapping: brute-force\n",
        DER_TABLE,
        DER_TSV,
    ),
    (
        ["score-cpcer", "--ref-trn", "ref.trn", "--ref-rttm", "ref.rttm", "--hyp-trn", "hyp.trn"],
        "# punctuation: stripped\n# assignment: assignment\n",
        CPCER_TABLE,
        CPCER_TSV,
    ),
    (
        ["score-cpcer", "--ref-trn", "ref.trn", "--hyp-trn", "hyp.trn", "--keep-punctuation",
         "--brute-force"],
        "# punctuation: kept\n# assignment: brute-force\n",
        CPCER_TABLE,
        CPCER_TSV,
    ),
]


@pytest.mark.parametrize(
    "argv,tunables,table,tsv", REPORTS, ids=["der", "der-brute", "cpcer", "cpcer-kept-brute"]
)
def test_report_is_pinned(capsys, caplog, session_files, tmp_path, argv, tunables, table, tsv):
    (tmp_path / "report").mkdir()
    paths = write_report_inputs(tmp_path / "report", session_files[0])
    argv = [paths.get(a, a) for a in argv]
    with caplog.at_level("WARNING"):
        code, out, _ = run(capsys, *argv, "--tsv", tmp_path / "out.tsv")
    assert code == 0
    assert out == f"# diarscore {__version__} {argv[0]}\n" + tunables + table
    assert (tmp_path / "out.tsv").read_text(encoding="utf-8") == tsv
    assert [r.getMessage() for r in caplog.records] == [
        "session S0003 has no hypothesis; not scored",
        "session S0004 has no reference; not scored",
    ]


def test_fuse_idempotent_from_cli(capsys, session_files, tmp_path):
    _, ref, _ = session_files
    out_path = tmp_path / "fused.rttm"
    code, _, _ = run(capsys, "fuse", ref, ref, ref, "-o", out_path)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == ref.read_text(encoding="utf-8")


def test_fuse_weights_validation(capsys, session_files):
    _, ref, _ = session_files
    # fusion parses the weights: a count mismatch comes before a bad value
    for weights in ("1", "x", ""):
        assert run(capsys, "fuse", ref, ref, "--weights", weights) == (
            1, "", "error: one weight per input required\n"
        )
    for weights, bad in (("1,x", "x"), ("1/0,1", "1/0")):
        assert run(capsys, "fuse", ref, ref, "--weights", weights) == (
            1, "", f"error: weight {bad!r} is not a finite number\n"
        )


def test_fuse_refuses_a_file_with_two_sessions(capsys, tmp_path):
    two = tmp_path / "two.rttm"
    two.write_text(
        "SPEAKER S1 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER S2 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n",
        encoding="utf-8",
    )
    assert run(capsys, "fuse", two) == (
        1, "", f"error: {two}: expected exactly one session, got 2\n"
    )


def test_binarize_all_ones_full_span(capsys, tmp_path):
    matrix = tmp_path / "probs.txt"
    matrix.write_text("S1 10 A B\n" + "1.0 1.0\n" * 40, encoding="utf-8")
    code, out, _ = run(capsys, "binarize", matrix, "--max-gap", 0, "--min-dur", 0)
    assert code == 0
    turns = parse_rttm(io.StringIO(out))
    assert {(t.speaker, t.interval) for t in turns} == {
        ("A", (0, 400)),
        ("B", (0, 400)),
    }


def test_binarize_validation_error(capsys, tmp_path):
    matrix = tmp_path / "probs.txt"
    matrix.write_text("S1 10 A\n0.5\n", encoding="utf-8")
    code, _, err = run(capsys, "binarize", matrix, "--threshold", 1.5)
    assert code == 1
    assert "threshold" in err


@pytest.mark.parametrize(
    "tunable, message",
    [
        (["--threshold", 1.5], "threshold must lie strictly inside (0, 1): 1.5"),
        (["--max-gap", -1], "smoothing parameters must be non-negative"),
        (["--min-dur", -1], "smoothing parameters must be non-negative"),
    ],
)
@pytest.mark.parametrize("matrix", ["missing.txt", "refused.txt"])
def test_binarize_refuses_a_bad_tunable_before_the_matrix(capsys, tmp_path, tunable, message, matrix):
    (tmp_path / "refused.txt").write_text("S1 10 A\n0.5 x\n", encoding="utf-8")
    assert run(capsys, "binarize", tmp_path / matrix, *tunable) == (1, "", f"error: {message}\n")


def test_binarize_rejects_nan_probability(capsys, tmp_path):
    matrix = tmp_path / "probs.txt"
    matrix.write_text("S1 10 A B\n0.9 0.9\n0.1 nan\n", encoding="utf-8")
    code, out, err = run(capsys, "binarize", matrix)
    assert code == 1
    assert out == ""
    assert "[0, 1]" in err


def test_binarize_off_grid_frames_re_parse_exactly(capsys, tmp_path):
    matrix = tmp_path / "probs.txt"
    matrix.write_text("S1 15 A\n0\n1\n0\n1\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "binarize", matrix, "--max-gap", 0, "--min-dur", 0)
    assert code == 0
    assert [t.interval for t in parse_rttm(io.StringIO(out))] == [(15, 15), (45, 30)]


def test_manifest_and_assemble_round_trip(capsys, session_files, tmp_path):
    _, ref, _ = session_files
    code, manifest_out, _ = run(capsys, "manifest", ref)
    assert code == 0
    manifest_path = tmp_path / "manifest.tsv"
    manifest_path.write_text(manifest_out, encoding="utf-8")
    texts_path = tmp_path / "texts.tsv"
    lines = manifest_out.splitlines()
    texts_path.write_text(
        "\n".join([lines[0] + "\ttext"] + [f"{ln}\t语{i}" for i, ln in enumerate(lines[1:])]) + "\n",
        encoding="utf-8",
    )
    code, transcript_out, _ = run(
        capsys, "assemble", "--manifest", manifest_path, "--texts", texts_path
    )
    assert code == 0
    entries = parse_transcript(io.StringIO(transcript_out))
    assert entries
    assert all(e.session == "S0001" for e in entries)


def test_inputs_are_parsed_from_the_open_file(capsys, tmp_path):
    # a bad first line is reported before an invalid UTF-8 byte that lies
    # more than one read chunk later is ever decoded
    filler = "SPK01_S0001 " + "x" * 20_000 + "\n"
    trn = tmp_path / "bad.trn"
    trn.write_bytes(("loneid\n" + filler).encode() + b"SPK01_S0001 \xff\n")
    manifest = tmp_path / "bad.tsv"
    manifest.write_bytes(("not a header\n" + filler).encode() + b"\xff\n")
    good = tmp_path / "good.trn"
    good.write_text("SPK01_S0001 x\n", encoding="utf-8")
    header = "error: line 1: expected header ('session', 'speaker', 'start_ms', 'dur_ms')\n"
    for argv, stderr in (
        (["score-cpcer", "--ref-trn", trn, "--hyp-trn", good],
         "error: line 1: no text column after the utterance ID\n"),
        (["score-cpcer", "--ref-trn", good, "--hyp-trn", trn],
         "error: line 1: no text column after the utterance ID\n"),
        (["assemble", "--manifest", manifest, "--texts", good], header),
    ):
        assert run(capsys, *argv)[::2] == (1, stderr), argv


@pytest.mark.parametrize(
    "row,stderr",
    [
        # SPK01_R01_S102901 would re-parse as speaker SPK01_R01 of session S102901
        (
            "R01_S102901\tSPK01\t0\t1000",
            "error: utterance ID 'SPK01_R01_S102901' does not split back into"
            " speaker 'SPK01' and session 'R01_S102901'\n",
        ),
        (
            "S1\tA\t-500\t1000",
            "error: line 2: negative start time: -500 ms\n",
        ),
    ],
    ids=["session-with-underscore", "negative-start"],
)
def test_assemble_refuses_a_row_it_cannot_write(capsys, tmp_path, row, stderr):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"session\tspeaker\tstart_ms\tdur_ms\n{row}\n", encoding="utf-8")
    texts = tmp_path / "texts.tsv"
    texts.write_text(f"{row}\thello\n", encoding="utf-8")
    assert run(capsys, "assemble", "--manifest", manifest, "--texts", texts) == (1, "", stderr)


def test_synth_rejects_a_session_id_that_splits_elsewhere(capsys, tmp_path):
    out_dir = tmp_path / "synth"
    code, out, err = run(capsys, "synth", "--out-dir", out_dir, "--session", "R01_S1")
    assert (code, out) == (1, "")
    assert err == (
        "error: utterance ID 'SPK03_R01_S1' does not split back into"
        " speaker 'SPK03' and session 'R01_S1'\n"
    )
    assert not out_dir.exists()  # no partial output


def test_synth_is_deterministic(capsys, tmp_path):
    args = ["synth", "--speakers", 3, "--duration-ms", 30000, "--seed", 7,
            "--fa-ms", 500, "--miss-ms", 300, "--spkerr-ms", 200, "--sub", 3, "--del", 2, "--ins", 1]
    code, _, _ = run(capsys, *args, "--out-dir", tmp_path / "a")
    assert code == 0
    code, _, _ = run(capsys, *args, "--out-dir", tmp_path / "b")
    assert code == 0
    for name in ("ref.rttm", "ref.trn", "hyp.rttm", "hyp.trn", "ledger.tsv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_synth_ledger_matches_scoring_through_files(capsys, tmp_path):
    from fractions import Fraction

    from diarscore.reporting import percent
    from diarscore.timeline import by_session

    out = tmp_path / "synthdir"
    code, _, _ = run(
        capsys, "synth", "--out-dir", out, "--seed", 3, "--duration-ms", 50000,
        "--fa-ms", 800, "--miss-ms", 600, "--spkerr-ms", 400,
    )
    assert code == 0
    code, report, _ = run(
        capsys, "score-der", "--ref", out / "ref.rttm", "--hyp", out / "hyp.rttm"
    )
    assert code == 0
    ref_text = (out / "ref.rttm").read_text(encoding="utf-8")
    total = total_speech(by_session(parse_rttm(io.StringIO(ref_text)))["S0001"])
    row = [ln for ln in report.splitlines() if ln.startswith("S0001")][0].split()
    assert row[1:4] == [percent(Fraction(v, total)) for v in (800, 600, 400)]


def test_overall_row_is_duration_weighted(capsys, tmp_path):
    from fractions import Fraction

    from diarscore.reporting import percent
    from diarscore.synth import corrupt_diarization

    ref_turns, hyp_turns, injected, totals = [], [], [], []
    # two sessions of very different sizes and error amounts
    for seed, dur, fa in ((1, 20_000, 1000), (2, 80_000, 2000)):
        sess = generate_session(speakers=2, duration_ms=dur, seed=seed, session=f"S{seed:04d}")
        hyp, _ = corrupt_diarization(sess.diarization, fa_ms=fa, seed=seed, grid_ms=10)
        ref_turns += sess.diarization.to_turns()
        hyp_turns += hyp.to_turns()
        injected.append(fa)
        totals.append(total_speech(sess.diarization))
    ref = tmp_path / "ref.rttm"
    hyp_p = tmp_path / "hyp.rttm"
    ref.write_text(emit_rttm(ref_turns), encoding="utf-8")
    hyp_p.write_text(emit_rttm(hyp_turns), encoding="utf-8")
    code, out, _ = run(capsys, "score-der", "--ref", ref, "--hyp", hyp_p)
    assert code == 0
    overall = [ln.split() for ln in out.splitlines() if ln.startswith("OVERALL")][0]
    expected = percent(Fraction(sum(injected), sum(totals)))
    assert overall[1] == expected  # FA pooled over durations, not averaged
    assert overall[4] == expected


def test_jobs_flag_is_a_usage_error(capsys, session_files):
    # sessions are scored in one thread: a thread pool over pure Python only
    # added start-up cost, so the flag is gone
    _, ref, trn = session_files
    for argv in (
        ["score-der", "--ref", ref, "--hyp", ref],
        ["score-cpcer", "--ref-trn", trn, "--hyp-trn", trn],
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in (*argv, "--jobs", 2)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


GOOD_LINE = "SPEAKER S1 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n"
# (second line of a file, the whole stderr of the run that reads it)
BAD_RTTM = [
    (
        "SPEAKER S1 1 1.00 1.00 <NA> <NA> A\n",
        "error: line 2: expected at least 9 fields, got 8\n",
    ),
    (
        "SPEAKER S1 1 1e3 1.00 <NA> <NA> A <NA> <NA>\n",
        "error: line 2: not a decimal time with at most 3 fractional digits: '1e3'\n",
    ),
    (
        "SPEAKER S1 1 1.0005 1.00 <NA> <NA> A <NA> <NA>\n",
        "error: line 2: not a decimal time with at most 3 fractional digits: '1.0005'\n",
    ),
    (
        "SPEAKER S1 1 -1.00 1.00 <NA> <NA> A <NA> <NA>\n",
        "error: line 2: negative time: '-1.00'\n",
    ),
    (
        "SPEAKER S1 1 1.00 0.000 <NA> <NA> A <NA> <NA>\n",
        "error: line 2: non-positive duration: 0 ms\n",
    ),
    pytest.param(
        "SPEAKER S1 1 " + "1" * 5000 + " 1.00 <NA> <NA> A <NA> <NA>\n",
        "error: line 2: time too long to convert: 5000 characters\n",
        id="over-long-time",
    ),
    (
        "SPEAKER S1 1 \uff11.00 \u0661.5 <NA> <NA> A <NA> <NA>\n",
        # RTTM times are ASCII decimal seconds
        "error: line 2: not a decimal time with at most 3 fractional digits: '\uff11.00'\n",
    ),
]


def _rttm_commands(good, bad):
    """Each RTTM-reading command with the bad file second among its inputs."""
    return [
        ["score-der", "--ref", good, bad, "--hyp", good],
        ["score-der", "--ref", good, "--hyp", good, bad],
        ["fuse", good, bad],
        ["manifest", good, bad],
    ]


@pytest.mark.parametrize("bad_line,stderr", BAD_RTTM)
def test_rttm_errors_from_every_command(capsys, tmp_path, bad_line, stderr):
    good = tmp_path / "good.rttm"
    good.write_text(GOOD_LINE, encoding="utf-8")
    bad = tmp_path / "bad.rttm"
    bad.write_text(GOOD_LINE + bad_line, encoding="utf-8")
    for argv in _rttm_commands(good, bad):
        code, _, err = run(capsys, *argv)
        if stderr is None:
            assert (code, err) == (0, ""), argv
        else:
            assert (code, err) == (1, stderr), argv


def test_invalid_utf8_rttm_from_every_command(capsys, tmp_path):
    good = tmp_path / "good.rttm"
    good.write_text(GOOD_LINE, encoding="utf-8")
    bad = tmp_path / "bad.rttm"
    bad.write_bytes(GOOD_LINE.encode() + b"SPEAKER S1 1 \xff 1.00 <NA> <NA> A <NA> <NA>\n")
    expected = (
        "error: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 58: invalid start byte\n"
    )
    for argv in _rttm_commands(good, bad):
        assert run(capsys, *argv)[::2] == (1, expected), argv


SYNTH_SEED_3 = ["--seed", 3, "--fa-ms", 500, "--miss-ms", 300, "--spkerr-ms", 200,
                "--sub", 10, "--del", 6, "--ins", 4]


@pytest.fixture
def synth_files(capsys, tmp_path):
    """The synth seed-3 files plus a manifest, a texts file and a probability matrix."""
    out = tmp_path / "plain"
    assert run(capsys, "synth", "--out-dir", out, *SYNTH_SEED_3)[0] == 0
    assert run(capsys, "manifest", out / "ref.rttm", "-o", out / "manifest.tsv")[0] == 0
    lines = (out / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    texts = [lines[0] + "\ttext"] + [f"{ln}\t语{k}" for k, ln in enumerate(lines[1:])]
    (out / "texts.tsv").write_text("".join(ln + "\n" for ln in texts), encoding="utf-8")
    rows = [f"{k % 3 / 2} {k % 5 / 4}\n" for k in range(200)]
    (out / "probs.txt").write_text("S1 10 A B\n" + "".join(rows), encoding="utf-8")
    return out


SCORE_CPCER = ["score-cpcer", "--ref-trn", "ref.trn", "--ref-rttm", "ref.rttm",
               "--hyp-trn", "hyp.trn"]
ASSEMBLE = ["assemble", "--manifest", "manifest.tsv", "--texts", "texts.tsv"]

LOADED_MODULES = """
import contextlib, io, json, sys

def loaded():
    return sorted(m.removeprefix("diarscore.") for m in sys.modules
                  if m.startswith("diarscore.") or m in ("logging", "numpy", "unicodedata"))

import diarscore
report = [loaded()]
import diarscore.cli
report.append(loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = diarscore.cli.main(json.loads(sys.argv[1]))
report += [loaded(), code, out.getvalue()]
print(json.dumps(report))
"""

CLI_MODULES = ["cli", "errors", "formats"]
SCORE_DER_MODULES = CLI_MODULES + ["assignment", "der", "reporting", "timeline"]
POSTPROC_MODULES = CLI_MODULES + ["postproc", "timeline"]
COMMAND_MODULES = {
    "score-der": SCORE_DER_MODULES,
    "score-cpcer": CLI_MODULES + ["assignment", "cer", "cpcer", "reporting", "unicodedata"],
    "fuse": CLI_MODULES + ["assignment", "der", "fusion", "timeline"],
    "binarize": POSTPROC_MODULES + ["numpy"],
    "manifest": POSTPROC_MODULES,
    "assemble": POSTPROC_MODULES,
    "synth": CLI_MODULES
    + ["assignment", "cer", "cpcer", "reporting", "synth", "timeline", "unicodedata"],
}
SCORE_DER = ["score-der", "--ref", "ref.rttm", "--hyp", "hyp.rttm"]


def run_fresh(cwd, *args):
    """A new interpreter run with ``args`` in ``cwd``, this checkout's src/ on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv",
    [
        SCORE_DER,
        SCORE_DER + ["--brute-force"],
        SCORE_CPCER,
        SCORE_CPCER + ["--brute-force"],
        ["fuse", "ref.rttm", "hyp.rttm", "ref.rttm", "-o", "fused.rttm"],
        ["manifest", "ref.rttm", "-o", "manifest2.tsv"],
        ASSEMBLE + ["-o", "assembled.trn"],
        ["synth", "--out-dir", "again", *SYNTH_SEED_3],
        ["binarize", "ones.txt", "--max-gap", 0, "--min-dur", 0],
    ],
    ids=lambda argv: argv[0] + " --brute-force" * ("--brute-force" in argv),
)
def test_each_command_loads_only_its_modules(synth_files, argv):
    # each CLI step is its own process, and interpreter start-up is most of
    # a short job: a bare `import diarscore` loads no submodule, the CLI
    # module loads only what every command uses, and each command adds only
    # the modules it runs.  Only binarize does array work, so only binarize
    # loads numpy; only cer normalizes text, so only the commands that load it
    # load unicodedata; and logging loads with the first warning, which no
    # command gives on these inputs.
    argv = [str(a) for a in argv]
    (synth_files / "ones.txt").write_text("S1 10 A B\n" + "1.0 1.0\n" * 40, encoding="utf-8")
    proc = run_fresh(synth_files, "-c", LOADED_MODULES, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    bare, cli_only, after, code, out = json.loads(proc.stdout)
    assert (bare, cli_only) == ([], CLI_MODULES)
    assert (code, after) == (0, sorted(COMMAND_MODULES[argv[0]]))
    if argv[0] == "binarize":
        assert out == (
            "SPEAKER S1 1 0.00 0.40 <NA> <NA> A <NA> <NA>\n"
            "SPEAKER S1 1 0.00 0.40 <NA> <NA> B <NA> <NA>\n"
        )


def test_a_fresh_score_der_writes_each_warning_as_one_stderr_line(tmp_path):
    # the CLI gives its stderr format to logging only with the first warning,
    # so a fresh process is the one place that format can be seen
    ref = (
        "SPEAKER D001 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER D001 1 1.00 1.00 <NA> <NA> B <NA> <NA>\n"
        "SPEAKER D001 1 2.00 1.00 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER D001 1 3.00 1.00 <NA> <NA> B <NA> <NA>\n"
        "SPEAKER D001 1 4.00 1.00 <NA> <NA> A <NA> <NA>\n"
        "LEXEME D001 1 4.00 0.50 hello lex A <NA> <NA>\n"
        "SPEAKER D002 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n"
    )
    (tmp_path / "ref.rttm").write_text(ref, encoding="utf-8")
    (tmp_path / "hyp.rttm").write_text(
        "SPEAKER D001 1 0.00 5.00 <NA> <NA> X <NA> <NA>\n", encoding="utf-8"
    )
    proc = run_fresh(tmp_path, "-m", "diarscore.cli", *SCORE_DER)
    assert (proc.returncode, proc.stderr) == (
        0,
        "WARNING: line 6: skipping record type 'LEXEME'\n"
        "WARNING: session D002 has no hypothesis; not scored\n",
    )
    assert proc.stdout.splitlines()[-1].split()[0] == "OVERALL"


@pytest.mark.parametrize(
    "argv,bom_input",
    [
        (["score-der", "--ref", "ref.rttm", "--hyp", "hyp.rttm"], "ref.rttm"),
        (["score-der", "--ref", "ref.rttm", "--hyp", "hyp.rttm"], "hyp.rttm"),
        (SCORE_CPCER, "ref.trn"),
        (SCORE_CPCER, "hyp.trn"),
        (SCORE_CPCER, "ref.rttm"),
        (["binarize", "probs.txt"], "probs.txt"),
        (ASSEMBLE, "manifest.tsv"),
        (ASSEMBLE, "texts.tsv"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_a_byte_order_mark_changes_nothing(capsys, caplog, synth_files, argv, bom_input):
    bom_file = synth_files.parent / "bom" / bom_input
    bom_file.parent.mkdir()
    bom_file.write_bytes(b"\xef\xbb\xbf" + (synth_files / bom_input).read_bytes())
    results = []
    for paths in ({}, {bom_input: bom_file}):
        caplog.clear()
        with caplog.at_level("WARNING"):
            result = run(capsys, *[paths.get(a, synth_files / a if "." in a else a) for a in argv])
        results.append((result, [r.getMessage() for r in caplog.records]))
    assert results[0][0][0] == 0
    assert results[1] == results[0]


def test_a_byte_order_mark_inside_a_joined_rttm_is_refused(capsys, synth_files):
    # two BOM-prefixed halves joined with cat: only the opening mark is
    # stripped, and the inner one used to cost a turn with only a warning
    lines = (synth_files / "ref.rttm").read_bytes().splitlines(keepends=True)
    half = len(lines) // 2
    joined = synth_files / "joined.rttm"
    joined.write_bytes(b"".join([b"\xef\xbb\xbf", *lines[:half], b"\xef\xbb\xbf", *lines[half:]]))
    argv = ["score-der", "--ref", joined, "--hyp", synth_files / "hyp.rttm"]
    assert run(capsys, *argv) == (
        1,
        "",
        f"error: line {half + 1}: not an RTTM record type: '\\ufeffSPEAKER'\n",
    )


@pytest.mark.parametrize(
    "manifest_rows,texts_rows,stderr",
    [
        # the row of equal sort key between the repeats keeps them apart after the sort
        (
            ["S1\tA\t0\t100", "S1\tA\t0\t50", "S1\tA\t200\t100", "S1\tA\t0\t100"],
            ["S1\tA\t0\t100\thello", "S1\tA\t200\t100\tworld"],
            "error: line 5: repeated manifest row:"
            " ManifestRow(session='S1', speaker='A', start=0, dur=100)\n",
        ),
        (
            ["S1\tA\t0\t100", "S1\tA\t200\t100"],
            ["S1\tA\t0\t100\thello", "S1\tA\t200\t100\tworld", "S1\tA\t200\t100\tWORLD"],
            "error: line 3: repeated row:"
            " ManifestRow(session='S1', speaker='A', start=200, dur=100)\n",
        ),
    ],
    ids=["manifest", "texts"],
)
def test_assemble_refuses_a_repeated_row(capsys, tmp_path, manifest_rows, texts_rows, stderr):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{ln}\n" for ln in ["session\tspeaker\tstart_ms\tdur_ms", *manifest_rows]),
        encoding="utf-8",
    )
    texts = tmp_path / "texts.tsv"
    texts.write_text("".join(f"{ln}\n" for ln in texts_rows), encoding="utf-8")
    assert run(capsys, "assemble", "--manifest", manifest, "--texts", texts) == (1, "", stderr)


def test_assemble_names_the_line_of_a_stray_text_row(capsys, tmp_path):
    # a texts row the manifest lacks used to be refused without a line number;
    # the first stray row in file order is named, not the first in sort order
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("session\tspeaker\tstart_ms\tdur_ms\nS1\tA\t0\t100\n", encoding="utf-8")
    texts = tmp_path / "texts.tsv"
    texts.write_text(
        "session\tspeaker\tstart_ms\tdur_ms\ttext\nS1\tA\t0\t100\thello\n\n"
        "S1\tZ\t0\t100\tx\nS1\tB\t500\t100\ty\n",
        encoding="utf-8",
    )
    assert run(capsys, "assemble", "--manifest", manifest, "--texts", texts) == (
        1,
        "",
        "error: line 4: text supplied for rows absent from the manifest:"
        " [ManifestRow(session='S1', speaker='Z', start=0, dur=100),"
        " ManifestRow(session='S1', speaker='B', start=500, dur=100)]\n",
    )


def test_ref_rttm_cannot_change_a_cpcer(capsys, caplog, synth_files):
    import random

    lines = (synth_files / "ref.trn").read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(0).shuffle(lines)
    shuffled = synth_files / "shuffled.trn"
    shuffled.write_text("".join(lines), encoding="utf-8")
    argv = ["score-cpcer", "--hyp-trn", synth_files / "hyp.trn"]
    with caplog.at_level("WARNING"):
        _, in_order, _ = run(capsys, *argv, "--ref-trn", synth_files / "ref.trn")
        outputs = [
            run(capsys, *argv, "--ref-trn", shuffled, *extra)
            for extra in ([], ["--ref-rttm", synth_files / "ref.rttm"])
        ]
    assert caplog.records == []
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert outputs[0][1] != in_order  # the shuffle itself does change the score


def test_a_byte_order_mark_inside_a_joined_transcript_is_refused(capsys, synth_files):
    # the inner mark used to make speaker '\ufeffSPK..' a stream of its own, with exit 0
    lines = (synth_files / "ref.trn").read_bytes().splitlines(keepends=True)
    half = len(lines) // 2
    joined = synth_files / "joined.trn"
    joined.write_bytes(b"".join([b"\xef\xbb\xbf", *lines[:half], b"\xef\xbb\xbf", *lines[half:]]))
    speaker = lines[half].decode("utf-8").split("_")[0]
    argv = ["score-cpcer", "--ref-trn", joined, "--hyp-trn", synth_files / "hyp.trn"]
    assert run(capsys, *argv) == (
        1,
        "",
        f"error: line {half + 1}: speaker must not hold control or format characters:"
        f" {chr(0xFEFF) + speaker!r}\n",
    )


@pytest.mark.parametrize(
    "manifest_rows,texts_rows,stderr",
    [
        (
            ["S1\tA\t0\t100", "S 1\tA\t200\t100"],
            ["S1\tA\t0\t100\thello"],
            "error: line 3: session must be non-empty without whitespace: 'S 1'\n",
        ),
        (
            ["S1\tA\t0\t100"],
            ["S1\tA\t0\t100\thello", "S1\tA\u200b\t200\t100\tworld"],
            "error: line 2: speaker must not hold control or format characters: 'A\\u200b'\n",
        ),
    ],
    ids=["manifest", "texts"],
)
def test_assemble_checks_ids_at_their_line(capsys, tmp_path, manifest_rows, texts_rows, stderr):
    # a bad ID used to pass the parsers and fail in assemble, without a line number
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"{ln}\n" for ln in ["session\tspeaker\tstart_ms\tdur_ms", *manifest_rows]),
        encoding="utf-8",
    )
    texts = tmp_path / "texts.tsv"
    texts.write_text("".join(f"{ln}\n" for ln in texts_rows), encoding="utf-8")
    assert run(capsys, "assemble", "--manifest", manifest, "--texts", texts) == (1, "", stderr)


def test_an_empty_reference_session_reads_undefined(capsys, caplog, tmp_path):
    # S2's reference is punctuation only: its counts exist, its rates do not
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    tsv = tmp_path / "out.tsv"
    ref.write_text("SPK01_S1 你好\nSPK01_S2 。\nSPK01_S3 再见\n", encoding="utf-8")
    hyp.write_text("SPK01_S1 你好\nSPK01_S2 世界\nSPK01_S3 再见\n", encoding="utf-8")
    for extra in ([], ["--brute-force"]):
        caplog.clear()
        argv = ["score-cpcer", "--ref-trn", ref, "--hyp-trn", hyp, "--tsv", tsv, *extra]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        table = out.splitlines()[3:]
        assert [line.split() for line in table] == [
            ["Session", "S", "D", "I", "cpCER"],
            ["S1", "0.00", "0.00", "0.00", "0.00"],
            ["S2", *["undefined"] * 4],
            ["S3", "0.00", "0.00", "0.00", "0.00"],
            # S2's 2 insertions over the 4 reference characters of S1 and S3
            ["OVERALL", "0.00", "0.00", "50.00", "50.00"],
        ]
        tsv_rows = tsv.read_text(encoding="utf-8").splitlines()
        assert tsv_rows[2] == "\t".join(["S2", *["undefined"] * 4])
        assert [r.getMessage() for r in caplog.records] == [
            "session S2 has an empty reference; its rates are undefined"
        ]


def test_an_empty_overall_reference_is_an_error(capsys, tmp_path):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    tsv = tmp_path / "out.tsv"
    ref.write_text("SPK01_S1 。\nSPK01_S2 ！\n", encoding="utf-8")
    hyp.write_text("SPK01_S1 你好\nSPK01_S2 世界\n", encoding="utf-8")
    argv = ["score-cpcer", "--ref-trn", ref, "--hyp-trn", hyp, "--tsv", tsv]
    assert run(capsys, *argv) == (1, "", "error: session 'OVERALL' has an empty reference\n")
    assert not tsv.exists()


@pytest.mark.parametrize("command", ["score-der", "score-cpcer"])
def test_an_unwritable_tsv_leaves_stdout_empty(capsys, session_files, tmp_path, command):
    # the TSV is written before the table is printed, so a failed write
    # leaves no report on stdout to be mistaken for a finished run
    _, ref, trn = session_files
    inputs = {
        "score-der": ["--ref", ref, "--hyp", ref],
        "score-cpcer": ["--ref-trn", trn, "--hyp-trn", trn],
    }
    tsv = tmp_path / "missing" / "out.tsv"
    code, out, err = run(capsys, command, *inputs[command], "--tsv", tsv)
    assert (code, out) == (2, "")
    assert err.startswith("i/o error: ")


def test_score_cpcer_holds_one_text_per_stream_and_one_histogram_per_side(tmp_path):
    # 6,000 lines over 4 speakers, each character of the file distinct, so
    # each stream's histogram has 4,500 keys; hypothesis = reference
    lines, chars = 6_000, 3
    trn = tmp_path / "ref.trn"
    texts = ["".join(chr(0x4E00 + k * chars + c) for c in range(chars)) for k in range(lines)]
    trn.write_text("".join(f"SPK{k % 4}_S1 {t}\n" for k, t in enumerate(texts)), encoding="utf-8")
    argv = ["score-cpcer", "--ref-trn", trn, "--hyp-trn", trn]
    (code, out, _), peak = traced_peak(run_quiet, argv)
    assert code == 0 and out.splitlines()[-1].split() == ["OVERALL", *["0.00"] * 4]
    # what has to be held: each stream's joined text on both sides and one
    # histogram of the longest stream per side
    streams = ["".join(texts[k::4]) for k in range(4)]
    _, histogram = traced_peak(Counter, map(ord, streams[0]))
    held = 2 * sum(map(sys.getsizeof, streams)) + 2 * histogram
    # the run's peak came to 1.12 times that; histograms and match tables
    # keyed by one-character strings came to 1.53 times, and holding one
    # slotted entry per line on both sides to over 3.5 times
    assert peak <= 1.5 * held, peak / held


def test_read_speaker_texts_holds_blocks_not_lines(tmp_path):
    # 40,000 lines of 2 to 12 CJK characters over 2 sessions x 4 speakers
    rng = random.Random(9)
    trn = tmp_path / "ref.trn"
    lines = []
    for k in range(40_000):
        text = "".join(chr(rng.randrange(0x4E00, 0x9FA6)) for _ in range(rng.randrange(2, 13)))
        lines.append(f"SPK{k % 4}_S{k // 4 % 2} {text}\n")
    trn.write_text("".join(lines), encoding="utf-8")
    (texts, counts), peak = traced_peak(cli._read_speaker_texts, str(trn), True)
    assert list(counts.values()) == [5_000] * 8
    held = sum(sys.getsizeof(t) for s in texts.values() for t in s.streams.values())
    # the read came to 1.32 times the texts it returns; one string per line
    # came to 8.1 times
    assert peak <= 1.5 * held, peak / held


TRN_ALPHABET = "你好世界abcdé" + " \t\u3000\u2028" + "。，!." + "\u0301\u200b"
TRN_TEXT_LINE = st.tuples(
    st.sampled_from(["A_S1", "B_S1", "x_y_S1", "A_S2", "C_S2", "B_S3"]),
    st.sampled_from([" ", "\t", "  "]),
    st.text(st.sampled_from(TRN_ALPHABET), min_size=1, max_size=6),
).map(lambda t: "".join(t) + "\n")
# blank lines, and lines with an empty text
TRN_OTHER_LINE = st.sampled_from(["\n", " \t\n", "A_S1 \n", "C_S2\t\r\n"])
# three text lines to one other line, so that most pairs get texts to join
TRN_LINES = st.lists(
    st.one_of(TRN_TEXT_LINE, TRN_TEXT_LINE, TRN_TEXT_LINE, TRN_OTHER_LINE), max_size=24
)


def rttm_of(pairs):
    """RTTM text with one 1 s turn per (session, speaker) in pairs, one after another."""
    return emit_rttm(
        SpeakerTurn(s, "1", spk, TimeInterval(k * 1000, 1000)) for k, (s, spk) in enumerate(pairs)
    )


TRN_RTTM = rttm_of([("S1", "A"), ("S1", "A"), ("S2", "C"), ("S4", "D")])


def run_logged(argv):
    """run_quiet, plus the messages logged to the diarscore logger, in order."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("diarscore")
    logger.addHandler(handler)
    try:
        result = run_quiet(argv)
    finally:
        logger.removeHandler(handler)
    return (*result, [r.getMessage() for r in records])


@settings(max_examples=200, deadline=None)
@given(
    ref=TRN_LINES,
    hyp=TRN_LINES,
    flags=st.sets(st.sampled_from(["--keep-punctuation", "--brute-force", "--ref-rttm"])),
)
def test_score_cpcer_matches_the_per_entry_route(ref, hyp, flags):
    # interleaved sessions, repeated IDs, empty texts, whitespace and
    # punctuation: every output is the one the entry lists and
    # concat_by_speaker give; blocks of 2 lines, so that a pair's lines are
    # joined across block boundaries
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_TEXT_BLOCK_LINES", 2):
        paths = {name: Path(tmp) / name for name in ("ref.trn", "hyp.trn", "ref.rttm", "t.tsv")}
        paths["ref.trn"].write_text("".join(ref), encoding="utf-8")
        paths["hyp.trn"].write_text("".join(hyp), encoding="utf-8")
        paths["ref.rttm"].write_text(TRN_RTTM, encoding="utf-8")
        argv = ["score-cpcer", "--ref-trn", paths["ref.trn"], "--hyp-trn", paths["hyp.trn"]]
        argv += ["--tsv", paths["t.tsv"], *sorted(flags - {"--ref-rttm"})]
        if "--ref-rttm" in flags:
            argv += ["--ref-rttm", paths["ref.rttm"]]
        outputs = []
        for route in (cli._cmd_score_cpcer, score_cpcer_oracle):
            with mock.patch.object(cli, "_cmd_score_cpcer", route):
                result = run_logged(argv)
            tsv = paths["t.tsv"].read_bytes() if paths["t.tsv"].exists() else None
            paths["t.tsv"].unlink(missing_ok=True)
            outputs.append((result, tsv))
    assert outputs[0] == outputs[1]


def test_ref_rttm_warns_as_attach_order_from_rttm_does(caplog, tmp_path):
    # pairs first seen as S1/A, S2/B, then S1/C; S2/B has one turn too few,
    # and only the RTTM holds S1/Z, which sorts before S2/B
    trn = tmp_path / "ref.trn"
    trn.write_text("A_S1 a\nB_S2 b\nA_S1 c\nC_S1 d\nB_S2 e\n", encoding="utf-8")
    rttm = tmp_path / "ref.rttm"
    pairs = [("S1", "A"), ("S1", "Z"), ("S2", "B"), ("S1", "C"), ("S1", "A")]
    rttm.write_text(rttm_of(pairs), encoding="utf-8")
    with caplog.at_level("WARNING"):
        with open(trn, encoding="utf-8") as fh, open(rttm, encoding="utf-8") as rh:
            attach_order_from_rttm(parse_transcript(fh), parse_rttm(rh))
        library = [r.getMessage() for r in caplog.records]
        caplog.clear()
        argv = ["score-cpcer", "--ref-trn", trn, "--ref-rttm", rttm, "--hyp-trn", trn]
        assert run_quiet(argv)[0] == 0
        command = [r.getMessage() for r in caplog.records]
    assert command == library == [
        "session S2 speaker B: 2 transcript entries vs 1 turns; keeping file order",
        "session S1 speaker Z: 0 transcript entries vs 1 turns; keeping file order",
    ]


def test_score_der_holds_packed_intervals_not_time_intervals(tmp_path, monkeypatch):
    # 25 sessions of 4 speakers with 100 turns each a side: 20,000 turns, and
    # one session's tiling is a small part of what the run holds
    rng = random.Random(7)
    paths = []
    for side, shift in (("ref", 0), ("hyp", 130)):
        turns = []
        for s in range(25):
            for k in range(4):
                t = rng.randrange(1000)
                for _ in range(100):
                    t += rng.randrange(10, 2000)
                    dur = rng.randrange(10, 5000)
                    interval = TimeInterval(t + shift, dur)
                    turns.append(SpeakerTurn(f"S{s:03d}", "1", f"SPK{k}", interval))
                    t += dur
        paths.append(tmp_path / f"{side}.rttm")
        paths[-1].write_text(emit_rttm(turns), encoding="utf-8")
    argv = ["score-der", "--ref", paths[0], "--hyp", paths[1]]
    (code, out, _), peak = traced_peak(run_quiet, argv)
    assert code == 0 and out.splitlines()[-1].split()[0] == "OVERALL"
    # what a tuple of TimeIntervals holds per interval, each time a fresh int
    # as the reader makes them: about 130 bytes as traced
    times = [(str(t.interval.start), str(t.interval.dur)) for t in turns]
    _, as_tuples = traced_peak(lambda: tuple(TimeInterval(int(a), int(b)) for a, b in times))
    per_interval = as_tuples / len(turns)
    # 16 bytes a turn packed plus one session's tiling came to a third of
    # it; holding every turn as a TimeInterval came to over 1.2 times
    assert peak / (2 * len(turns)) <= 0.5 * per_interval, peak / (2 * len(turns)) / per_interval

    def unbuilt(packed):
        raise AssertionError("score-der built a speaker's TimeIntervals")

    monkeypatch.setattr(timeline, "_time_intervals", unbuilt)
    assert run_quiet(argv) == (code, out, "")


INVISIBLE_ARGV = {
    "ref.rttm": lambda ref, d: ["score-der", "--ref", ref, "--hyp", d / "hyp.rttm"],
    "ref.trn": lambda ref, d: ["score-cpcer", "--ref-trn", ref, "--hyp-trn", d / "hyp.trn"],
}


def run_quiet(argv):
    """main() with stdout and stderr captured, for tests that cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def clean_synth(tmp_path_factory):
    """The synth seed-3 files and the stdout each scoring command prints for them."""
    out = tmp_path_factory.mktemp("clean")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in ["synth", "--out-dir", out, *SYNTH_SEED_3]]) == 0
    clean = {}
    for name in INVISIBLE_ARGV:
        code, stdout, _ = run_quiet(INVISIBLE_ARGV[name](out / name, out))
        assert code == 0
        clean[name] = stdout
    return out, clean


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(sorted(INVISIBLE_ARGV)),
    mark=st.sampled_from(["\ufeff", "\u200b", "\u2060"]),
    # uniform positions: drawn integers lean to small values, which are all
    # inside the first field
    rng=st.randoms(use_true_random=True),
)
def test_an_invisible_character_scores_clean_or_is_refused_at_its_line(
    clean_synth, name, mark, rng
):
    # format characters are not whitespace: inside a field they either leave
    # the score alone (text, ignored fields) or make the line refusable
    out, clean = clean_synth
    lines = (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
    k = rng.randrange(len(lines))
    at = rng.randint(0, len(lines[k].rstrip("\n")))
    lines[k] = lines[k][:at] + mark + lines[k][at:]
    marked = out / f"marked.{name}"
    marked.write_text("".join(lines), encoding="utf-8")
    code, stdout, stderr = run_quiet(INVISIBLE_ARGV[name](marked, out))
    if code == 0:
        assert stdout == clean[name]
    else:
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"error: line {k + 1}: "), stderr


@pytest.mark.parametrize(
    "header,stderr",
    [
        ("S1 0 A B", "error: line 1: frame_ms must be positive: 0\n"),
        (
            "S1 10 A B\u200b",
            "error: line 1: speaker must not hold control or format characters: 'B\\u200b'\n",
        ),
    ],
    ids=["frame", "silent-speaker-id"],
)
def test_binarize_refuses_a_header_at_its_line(capsys, tmp_path, header, stderr):
    matrix = tmp_path / "probs.txt"
    matrix.write_text(header + "\n" + "1.0 0.0\n" * 40, encoding="utf-8")
    assert run(capsys, "binarize", matrix) == (1, "", stderr)
