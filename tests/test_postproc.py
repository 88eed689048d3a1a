import io
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diarscore import cli, postproc
from diarscore.cpcer import concat_by_speaker
from diarscore.errors import ParseError, ValidationError
from diarscore.formats import TimeInterval, emit_rttm
from diarscore.postproc import (
    ManifestRow,
    ProbabilityMatrix,
    SegmentManifest,
    assemble_transcript,
    binarize_probs,
    binarize_stream,
    build_manifest,
    combine_manifests,
    emit_manifest,
    parse_manifest,
    parse_matrix,
    parse_texts,
    smooth_segments,
)
from diarscore.timeline import Diarization

S = 1000


def matrix(values, speakers=("A",), frame_ms=10, session="S1"):
    return ProbabilityMatrix(
        session=session, frame_ms=frame_ms, speakers=tuple(speakers), values=np.array(values)
    )


def matrix_text(m):
    """A matrix file, each probability as the shortest text that re-parses to it."""
    lines = [" ".join([m.session, str(m.frame_ms), *m.speakers])]
    lines += [" ".join(map(repr, row)) for row in m.values.tolist()]
    return "".join(line + "\n" for line in lines)


def test_binarize_all_ones_full_span():
    m = matrix([[1.0], [1.0], [1.0]])
    d = binarize_probs(m)
    assert d.intervals("A") == (TimeInterval(0, 30),)


def test_binarize_all_zeros_empty():
    m = matrix([[0.0], [0.0]])
    assert binarize_probs(m).speaker_ids == ()


def test_binarize_run_lengths():
    m = matrix([[0.9], [0.9], [0.1], [0.9]])
    d = binarize_probs(m, threshold=0.5)
    assert d.intervals("A") == (TimeInterval(0, 20), TimeInterval(30, 10))


def test_binarize_threshold_bounds():
    m = matrix([[0.5]])
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            binarize_probs(m, threshold=bad)


def test_matrix_validation():
    with pytest.raises(ValidationError):
        matrix([[1.2]])
    with pytest.raises(ValidationError):
        ProbabilityMatrix("S1", 0, ("A",), np.array([[0.5]]))
    with pytest.raises(ValidationError):
        ProbabilityMatrix("S1", 10, ("A", "A"), np.array([[0.5, 0.5]]))


def test_smooth_merges_then_drops():
    d = Diarization("S1", {"A": [(0, 20), (30, 10)]})
    # gap 10 < 300 merges to [0, 40); 40 < 200 drops it
    assert smooth_segments(d).speaker_ids == ()
    kept = smooth_segments(d, max_gap_ms=300, min_dur_ms=40)
    assert kept.intervals("A") == (TimeInterval(0, 40),)


def test_smooth_identity_on_smooth_input():
    d = Diarization("S1", {"A": [(0, 5 * S), (6 * S, 5 * S)]})
    assert smooth_segments(d) == d
    assert smooth_segments(Diarization("S1", {})) == Diarization("S1", {})


def test_smooth_idempotent():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ivs = []
        t = 0
        for _ in range(20):
            t += int(rng.integers(1, 500))
            dur = int(rng.integers(1, 400))
            ivs.append((t, dur))
            t += dur
        d = Diarization("S1", {"A": ivs})
        once = smooth_segments(d)
        assert smooth_segments(once) == once


def test_binarize_then_smooth_noop_on_binary_matrix():
    rng = np.random.default_rng(3)
    values = (rng.random((50, 2)) > 0.5).astype(float)
    m = matrix(values, speakers=("A", "B"))
    d = binarize_probs(m)
    assert smooth_segments(d, max_gap_ms=0, min_dur_ms=10) == d


def test_manifest_rows_and_order():
    d = Diarization("S1", {"A": [(0, 10 * S)], "B": [(5 * S, 10 * S)]})
    m = build_manifest(d)
    assert m.rows == (
        ManifestRow("S1", "A", 0, 10 * S),
        ManifestRow("S1", "B", 5 * S, 10 * S),
    )
    assert build_manifest(Diarization("S1", {})).rows == ()


def test_manifest_tsv_round_trip():
    d = Diarization("S1", {"A": [(0, 10 * S)]})
    m = build_manifest(d)
    assert parse_manifest(io.StringIO(emit_manifest(m))) == m
    with pytest.raises(ParseError):
        parse_manifest(io.StringIO("not\ta\theader\tline\n"))


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\nb"])
@pytest.mark.parametrize("field", ["session", "speaker"])
def test_emit_manifest_refuses_an_id_it_cannot_read_back(field, bad):
    row = ManifestRow("S1", "A", 0, 10)._replace(**{field: bad})
    with pytest.raises(ValidationError) as exc:
        emit_manifest(SegmentManifest((row,)))
    assert str(exc.value) == f"{field} must be non-empty without whitespace: {bad!r}"


def test_manifest_and_texts_reject_bad_times_alike():
    header = "session\tspeaker\tstart_ms\tdur_ms"
    with pytest.raises(ParseError) as exc:
        parse_manifest(io.StringIO(f"{header}\nS1\tA\tx\t100\n"))
    assert (exc.value.line, str(exc.value)) == (
        2,
        "line 2: non-integer time in ['S1', 'A', 'x', '100']",
    )
    with pytest.raises(ParseError) as exc:
        parse_texts(io.StringIO(f"{header}\ttext\nS1\tA\t0\t1.5\thi\n"))
    assert (exc.value.line, str(exc.value)) == (
        2,
        "line 2: non-integer time in ['S1', 'A', '0', '1.5', 'hi']",
    )
    # a time is an optional minus then ASCII digits, which int() alone does not insist on
    for bad in ["\uff11\uff10", "1_000", " +20", "+20", "1" * 5000]:
        with pytest.raises(ParseError) as exc:
            parse_manifest(io.StringIO(f"{header}\nS1\tA\t0\t100\nS1\tA\t{bad}\t100\n"))
        assert (exc.value.line, str(exc.value)) == (
            3,
            f"line 3: non-integer time in {['S1', 'A', bad, '100']!r}",
        )


def test_matrix_file_round_trip():
    m = matrix([[0.25, 1.0], [0.0, 0.5]], speakers=("A", "B"))
    parsed = parse_matrix(io.StringIO(matrix_text(m)))
    assert parsed.session == m.session
    assert parsed.frame_ms == m.frame_ms
    assert parsed.speakers == m.speakers
    assert np.array_equal(parsed.values, m.values)


def test_matrix_round_trip_keeps_binarize_output():
    # 6 significant digits wrote 0.4999999 as 0.5, which crosses the threshold
    m = matrix([[0.4999999], [0.9]])
    assert binarize_probs(m).intervals("A") == (TimeInterval(10, 10),)
    reparsed = parse_matrix(io.StringIO(matrix_text(m)))
    assert binarize_probs(reparsed).intervals("A") == (TimeInterval(10, 10),)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.floats(0, 1), min_size=k, max_size=k), min_size=1, max_size=5
        )
    )
)
def test_matrix_emit_parse_is_identity(rows):
    m = matrix(rows, speakers=[f"S{k}" for k in range(len(rows[0]))])
    parsed = parse_matrix(io.StringIO(matrix_text(m)))
    assert parsed.values.tobytes() == m.values.tobytes()


def test_matrix_file_errors():
    with pytest.raises(ParseError):
        parse_matrix(io.StringIO(""))
    with pytest.raises(ParseError):
        parse_matrix(io.StringIO("S1 ten A\n0.5\n"))
    with pytest.raises(ParseError):
        parse_matrix(io.StringIO("S1 10 A B\n0.5\n"))


def test_matrix_without_rows_is_empty_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = parse_matrix(io.StringIO("S1 10 A B\n\n \n"))
    assert parsed.values.shape == (0, 2)


def test_matrix_rejects_nan():
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        ProbabilityMatrix("S1", 10, ("A",), np.array([[np.nan], [0.7]]))
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        parse_matrix(io.StringIO("S1 10 A B\n0.1 nan\n"))


@pytest.mark.parametrize(
    "row, message",
    [("0.5", "expected 2 probabilities, got 1"), ("0.5 x", "non-numeric probability")],
)
@pytest.mark.parametrize("line", [2, 4])
def test_matrix_error_line_numbers(row, message, line):
    body = ["0.1 0.2\n", "\n", "0.3 0.4\n"][: line - 2]
    with pytest.raises(ParseError, match=message) as info:
        parse_matrix(["S1 10 A B\n", *body, row + "\n", "0.5 0.5\n"])
    assert info.value.line == line


NUMBERS = ["0", "1", "0.5", ".25", "1.", "+0.75", "-0", "1e-1", "5E-1", "0.000"]
EXOTIC = [
    "0_5", "0.0_5", "１", "١", "٠.٥", "nan", "-inf", "inf", "1e5", "-0.5", "#", "#0.5",
    '"0.5"', "'1'", "0.5,0.5", "x", "0x1", "1__0", "٫5", "0.5\x00", ".", "\r",
]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\u2028"]
ENDINGS = ["\n", "\n", "\r\n", " \n", "\t\n"]


# one probability as numpy's text reader accepts it, checked per line
TOKEN = re.compile(
    r"[+-]?((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf(inity)?|nan)", re.IGNORECASE | re.ASCII
)


def grammar_oracle(lines):
    """The matrix body by the token grammar: its values, or the first refused line."""
    start = next(i for i, raw in enumerate(lines) if raw.strip())
    width = len(lines[start].split()) - 2
    rows = []
    for lineno, raw in enumerate(lines[start + 1 :], start + 2):
        text = raw.removesuffix("\n").removesuffix("\r")  # one line ending
        # a carriage return or line break before the ending outranks the
        # width and the fields
        if "\r" in text:
            return ParseError, f"carriage return inside the line: {raw!r}", lineno
        if "\n" in text:
            return ParseError, f"line break inside the line: {raw!r}", lineno
        fields = text.split()
        refused = not all(map(TOKEN.fullmatch, fields))
        if not (fields or refused):
            continue
        # within a line, a wrong width outranks a refused field
        if len(fields) != width:
            return ParseError, f"expected {width} probabilities, got {len(fields)}", lineno
        if refused:
            return ParseError, f"non-numeric probability in {fields!r}", lineno
        rows.append([float(x) for x in fields])
        if not all(0 <= v <= 1 for v in rows[-1]):
            return ValidationError, "probabilities must lie in [0, 1]", lineno
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def random_matrix_lines(rng):
    width = int(rng.integers(1, 4))
    lines = ["\n"] * int(rng.integers(0, 2))
    lines.append("S1 10 " + " ".join("ABC"[:width]) + "\n")
    exotic = rng.random() < 0.5
    for _ in range(int(rng.integers(0, 7))):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "\n", " \n", "\t\x0b\n", "\u3000\r\n"])))
            continue
        n = width if rng.random() < 0.9 else int(rng.integers(0, width + 2))
        tokens = [
            str(rng.choice(EXOTIC if exotic and rng.random() < 0.2 else NUMBERS)) for _ in range(n)
        ]
        line = str(rng.choice(["", " ", "\xa0"]))
        for k, token in enumerate(tokens):
            line += (str(rng.choice(SEPARATORS)) if k else "") + token
        lines.append(line + str(rng.choice(ENDINGS)))
    if rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\n")
    return lines


def check_random_cases(cases):
    """parse_matrix against grammar_oracle on random bodies: the outcomes seen.

    binarize_stream must refuse a body exactly as parse_matrix does, and
    otherwise return what binarize_probs returns on the parsed matrix.
    """
    outcomes = Counter()
    rng = np.random.default_rng(2022)
    for _ in range(cases):
        lines = random_matrix_lines(rng)
        expected = grammar_oracle(lines)
        try:
            parsed = parse_matrix(lines)
        except (ParseError, ValidationError) as exc:
            assert isinstance(expected, tuple), lines
            error, message, line = expected
            assert (type(exc), str(exc), exc.line) == (error, f"line {line}: {message}", line), lines
            with pytest.raises(error) as streamed:
                binarize_stream(lines)
            assert (str(streamed.value), streamed.value.line) == (str(exc), line), lines
            outcomes[message.split()[0]] += 1
        else:
            values = parsed.values
            assert (values.shape, values.tobytes()) == (expected.shape, expected.tobytes()), lines
            assert binarize_stream(lines) == binarize_probs(parsed), lines
            outcomes["values"] += 1
    return outcomes


def test_matrix_reader_matches_per_line_oracle():
    outcomes = check_random_cases(3000)
    # every outcome carries a real share of the cases; only the "\r" token
    # refuses a line for its carriage return, so that outcome is rarer
    assert outcomes.pop("carriage") > 20, outcomes
    assert set(outcomes) == {"values", "non-numeric", "expected", "probabilities"}
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_matrix_reader_matches_oracle_across_chunks(monkeypatch, chunk):
    # the random bodies hold at most 6 lines, which one default chunk takes whole
    monkeypatch.setattr(postproc, "_MATRIX_CHUNK_LINES", chunk)
    check_random_cases(3000)


HEADER = "S1 10 A B\n"
ROW = "0.1 0.2\n"


@pytest.mark.parametrize(
    "lines, expected",
    [
        # in 3-line chunks, lines 2-4 are the first chunk and lines 5-7 the second
        ([HEADER, ROW, ROW, ROW, "0.5 x\n", ROW], (5, "non-numeric probability in ['0.5', 'x']")),
        ([HEADER, ROW, ROW, "0.5\n", ROW, ROW], (4, "expected 2 probabilities, got 1")),
        (["\n", HEADER, ROW, ROW, "0.5 x\n"], (5, "non-numeric probability in ['0.5', 'x']")),
        ([HEADER, ROW, "\n", " \n", "\t\n", ROW], 2),
        ([HEADER, ROW, ROW, ROW, "\n", "\n", "\n", ROW], 4),
        ([HEADER, ROW, "\n", "\n", "\n", "0.5 x\n"], (6, "non-numeric probability in ['0.5', 'x']")),
        ([HEADER, ROW, ROW, ROW], 3),
        ([HEADER], 0),
    ],
    ids=[
        "refused-first-of-second-chunk",
        "refused-last-of-first-chunk",
        "blank-before-header",
        "blanks-straddle",
        "blank-chunk",
        "refused-after-blank-chunk",
        "one-full-chunk",
        "empty-body",
    ],
)
def test_matrix_chunk_boundaries(monkeypatch, lines, expected):
    monkeypatch.setattr(postproc, "_MATRIX_CHUNK_LINES", 3)
    oracle = grammar_oracle(lines)
    try:
        values = parse_matrix(iter(lines)).values
    except ParseError as exc:
        line, message = expected
        assert (exc.line, str(exc)) == (line, f"line {line}: {message}")
        assert (ParseError, message, line) == oracle
    else:
        assert values.shape == (expected, 2)
        assert values.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("bad", ["0.5 0.5\n\r", "0.5\n0.5\n", "0.1 0.2\n0.3 0.4\n"])
def test_matrix_refuses_a_line_break_inside_a_line(bad):
    with pytest.raises(ParseError) as exc:
        parse_matrix([HEADER, ROW, bad, ROW])
    assert (exc.value.line, str(exc.value)) == (3, f"line 3: line break inside the line: {bad!r}")


def test_matrix_parse_holds_one_chunk_of_lines():
    # distinct rows, each read from the stream as its own string
    rows = 150_000
    text = "S1 10 A B C D\n" + "".join(
        f"{i / rows:.6f} {1 - i / rows:.6f} {i % 997 / 997:.4f} 0.5\n" for i in range(rows)
    )
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        values = parse_matrix(stream).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (rows, 4)
    # the parsed chunks and their concatenation, about twice the array; a
    # list of every line of the body read over 4 times the array
    assert peak <= 2.5 * values.nbytes, peak / values.nbytes


ROW_TEXT = {0.0: "0", 0.3: "0.3", 0.5: "0.5", 0.7: "0.7", 1.0: "1"}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.one_of(
                st.none(),  # a blank line, which holds no frame
                st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), min_size=k, max_size=k),
            ),
            max_size=12,
        ).map(lambda rows: (k, rows))
    ),
    st.sampled_from([0.3, 0.5, 0.6]),
)
def test_binarize_stream_matches_the_array_route(shaped, threshold):
    width, rows = shaped
    text = " ".join(["S1", "10", *"ABC"[:width]]) + "\n"
    for row in rows:
        text += "\n" if row is None else " ".join(map(ROW_TEXT.get, row)) + "\n"
    expected = binarize_probs(parse_matrix(io.StringIO(text)), threshold)
    # the runs found frame by frame, as the reference for both routes
    frames = [row for row in rows if row is not None]
    runs = {}
    for k, speaker in enumerate("ABC"[:width]):
        above = [i for i, row in enumerate(frames) if row[k] >= threshold]
        runs[speaker] = [(10 * i, 10) for i in above]  # Diarization merges abutting frames
    assert expected == Diarization("S1", runs)
    for chunk in (1, 2, 3, postproc._MATRIX_CHUNK_LINES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(postproc, "_MATRIX_CHUNK_LINES", chunk)
            assert binarize_stream(io.StringIO(text), threshold) == expected, chunk


ON, OFF, BOTH = "0.9 0.1\n", "0.1 0.1\n", "0.9 0.9\n"


@pytest.mark.parametrize(
    "body, expected",
    [
        # in 3-line chunks, frames 0-2 are the first chunk, 3-5 the second, 6-8 the third
        ([OFF, ON, ON, ON, ON, ON, ON, ON, OFF], {"A": [(10, 70)]}),
        ([ON, ON, OFF, OFF], {"A": [(0, 20)]}),
        ([OFF, OFF, OFF, OFF, BOTH], {"A": [(40, 10)], "B": [(40, 10)]}),
        ([OFF, BOTH, BOTH], {"A": [(10, 20)], "B": [(10, 20)]}),
        ([ON, ON, ON, "\n", " \n", "\n", ON, OFF], {"A": [(0, 40)]}),
        (
            [ON, BOTH, "\n", "\n", "\n", OFF, BOTH],
            {"A": [(0, 20), (30, 10)], "B": [(10, 10), (30, 10)]},
        ),
        ([], {}),
    ],
    ids=[
        "run-across-two-boundaries",
        "run-from-frame-0",
        "run-on-last-frame",
        "run-to-full-last-chunk",
        "run-across-blank-chunk",
        "runs-around-blank-chunk",
        "empty-body",
    ],
)
def test_binarize_stream_chunk_boundaries(monkeypatch, body, expected):
    monkeypatch.setattr(postproc, "_MATRIX_CHUNK_LINES", 3)
    lines = [HEADER, *body]
    d = binarize_stream(iter(lines))
    assert d == Diarization("S1", expected)
    assert d == binarize_probs(parse_matrix(iter(lines)))


def test_binarize_command_never_builds_the_array(tmp_path):
    # distinct rows, as in test_matrix_parse_holds_one_chunk_of_lines
    rows = 150_000
    path = tmp_path / "probs.txt"
    path.write_text(
        "S1 10 A B C D\n"
        + "".join(
            f"{i / rows:.6f} {1 - i / rows:.6f} {i % 997 / 997:.4f} 0.5\n" for i in range(rows)
        ),
        encoding="utf-8",
    )
    array_bytes = rows * 4 * np.dtype(np.float64).itemsize
    out = tmp_path / "out.rttm"
    tracemalloc.start()
    try:
        assert cli.main(["binarize", str(path), "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path, encoding="utf-8") as fh:
        expected = smooth_segments(binarize_probs(parse_matrix(fh)))
    assert out.read_text(encoding="utf-8") == emit_rttm(expected.to_turns())
    # one chunk of lines and its rows; parsing the whole array first held
    # it twice, over 2 times its size, and 16,384-line chunks held 0.57 times
    assert peak <= 0.25 * array_bytes, peak / array_bytes


def test_assemble_passthrough_and_ordering():
    rows = (
        ManifestRow("S1", "A", 5 * S, S),
        ManifestRow("S1", "A", 1 * S, S),
        ManifestRow("S1", "B", 2 * S, S),
    )
    manifest = SegmentManifest(rows=rows)
    texts = {
        ManifestRow("S1", "A", 5 * S, S): "世界",
        ManifestRow("S1", "A", 1 * S, S): "你好",
        ManifestRow("S1", "B", 2 * S, S): "嗯",
    }
    entries = assemble_transcript(manifest, texts)
    assert [(e.speaker, e.text) for e in entries] == [("A", "你好世界"), ("B", "嗯")]


def test_assemble_empty_manifest():
    assert assemble_transcript(SegmentManifest(rows=()), {}) == []


def test_assemble_rejects_stray_text():
    manifest = SegmentManifest(rows=(ManifestRow("S1", "A", 0, S),))
    stray = {ManifestRow("S1", "Z", 0, S): "x"}
    with pytest.raises(ValidationError):
        assemble_transcript(manifest, stray)


def test_assemble_missing_text_is_empty():
    manifest = SegmentManifest(
        rows=(ManifestRow("S1", "A", 0, S), ManifestRow("S1", "A", 2 * S, S))
    )
    entries = assemble_transcript(manifest, {ManifestRow("S1", "A", 2 * S, S): "好"})
    assert entries[0].text == "好"


def test_assemble_feeds_concat_consistently():
    # the joint-decoding reassembly and the scoring-side merge agree
    rows = (
        ManifestRow("S1", "A", 5 * S, S),
        ManifestRow("S1", "A", 1 * S, S),
        ManifestRow("S1", "B", 3 * S, S),
    )
    texts = {rows[0]: "世界", rows[1]: "你好", rows[2]: "天气"}
    entries = assemble_transcript(SegmentManifest(rows=rows), texts)
    merged = concat_by_speaker(entries)
    assert merged.streams == {"A": "你好世界", "B": "天气"}


def test_texts_file_round_trip():
    line = "S1\tA\t0\t1000\t你好 世界\n"
    texts = parse_texts(io.StringIO("session\tspeaker\tstart_ms\tdur_ms\ttext\n" + line))
    assert texts == {ManifestRow("S1", "A", 0, 1000): "你好 世界"}


def test_combine_manifests_sorts_globally():
    m1 = build_manifest(Diarization("S2", {"A": [(0, S)]}))
    m2 = build_manifest(Diarization("S1", {"B": [(0, S)]}))
    combined = combine_manifests([m1, m2])
    assert [r.session for r in combined.rows] == ["S1", "S2"]
