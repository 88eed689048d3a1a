import io
import itertools
import random
import re
import sys
import unicodedata
from array import array
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from diarscore import formats
from diarscore.errors import ParseError, ValidationError
from diarscore.formats import (
    MAX_END_MS,
    SpeakerTurn,
    TimeInterval,
    TranscriptEntry,
    check_id,
    emit_rttm,
    emit_transcript,
    parse_rttm,
    parse_transcript,
    seconds_to_ms,
    split_utterance_id,
)
from diarscore.postproc import (
    ManifestRow,
    SegmentManifest,
    parse_manifest,
    parse_matrix,
    parse_texts,
)
from diarscore.timeline import Diarization, by_session
from support import random_turn_list

EXAMPLE_LINE = "SPEAKER S001 1 10.50 3.25 <NA> <NA> SPK01 <NA> <NA>"


BAD_IDS = ["", " ", "a b", "a\u3000b", "a\x1cb", "\u2028"]


@pytest.mark.parametrize("bad", BAD_IDS)
def test_turn_rejects_empty_or_whitespace_ids(bad):
    # a turn is checked where it is written, not where it is built
    turn = SpeakerTurn(bad, "1", "A", TimeInterval(0, 10))
    with pytest.raises(ValidationError) as exc:
        emit_rttm([turn])
    assert str(exc.value) == f"session must be non-empty without whitespace: {bad!r}"
    with pytest.raises(ValidationError) as exc:
        emit_rttm([SpeakerTurn("S1", "1", bad, TimeInterval(0, 10))])
    assert str(exc.value) == f"speaker must be non-empty without whitespace: {bad!r}"


@pytest.mark.parametrize("channel", ["", "a b"])
def test_emit_refuses_a_channel_it_cannot_read_back(channel):
    # written as is, "" shifts the times by one field and "a b" puts 'b' in the start column
    with pytest.raises(ValidationError) as exc:
        emit_rttm([SpeakerTurn("S1", channel, "A", TimeInterval(1000, 500))])
    assert str(exc.value) == f"channel must be non-empty without whitespace: {channel!r}"


@pytest.mark.parametrize(
    "interval,message",
    [
        (TimeInterval(-1, 500), "negative start time: -1 ms"),
        (TimeInterval(0, 0), "non-positive duration: 0 ms"),
        (TimeInterval(0, -500), "non-positive duration: -500 ms"),
        (TimeInterval(MAX_END_MS, 1), f"turn ends past 2**63 - 1 ms: {MAX_END_MS} + 1 ms"),
        (TimeInterval(1, MAX_END_MS), f"turn ends past 2**63 - 1 ms: 1 + {MAX_END_MS} ms"),
    ],
)
def test_emit_refuses_times_it_cannot_read_back(interval, message):
    with pytest.raises(ValidationError) as exc:
        emit_rttm([SpeakerTurn("S1", "1", "A", interval)])
    assert str(exc.value) == message


def ms_decimal(ms):
    """Exact decimal seconds of an int, for any sign: the writer's reference."""
    return str(Decimal(ms) / 1000)


@given(
    st.text(st.sampled_from("a1 \t\r\n\x1c\u3000;语"), max_size=3),
    st.text(st.sampled_from("a1 \t\r\n\x1c\u3000;语"), max_size=3),
    st.text(st.sampled_from("a1 \t\r\n\x1c\u3000;语"), max_size=3),
    st.integers(min_value=-10, max_value=2000) | st.integers(MAX_END_MS - 2000, MAX_END_MS + 10),
    st.integers(min_value=-10, max_value=2000),
)
def test_emit_rttm_writes_exactly_the_turns_that_re_parse(session, channel, speaker, start, dur):
    turn = SpeakerTurn(session, channel, speaker, TimeInterval(start, dur))
    line = (
        f"SPEAKER {session} {channel} {ms_decimal(start)} {ms_decimal(dur)}"
        f" <NA> <NA> {speaker} <NA> <NA>\n"
    )
    try:  # newline=None splits lines the way a file opened in text mode does
        reparsed = parse_rttm(io.StringIO(line, newline=None))
    except (ParseError, ValidationError):
        reparsed = None
    if reparsed == [turn]:
        assert parse_rttm(io.StringIO(emit_rttm([turn]), newline=None)) == [turn]
    else:
        with pytest.raises(ValidationError):
            emit_rttm([turn])


def test_a_turn_may_end_at_the_int64_bound():
    line = "SPEAKER S1 1 9223372036854775.806 0.001 <NA> <NA> A <NA> <NA>\n"
    turns = parse_rttm(io.StringIO(line))
    assert turns == [SpeakerTurn("S1", "1", "A", TimeInterval(MAX_END_MS - 1, 1))]
    assert emit_rttm(turns) == line
    assert by_session(turns)["S1"].extent() == TimeInterval(MAX_END_MS - 1, 1)


def test_a_turn_that_ends_past_the_int64_bound_is_refused_at_its_line():
    text = (
        "SPEAKER S1 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER S1 1 9223372036854775.807 0.001 <NA> <NA> A <NA> <NA>\n"
    )
    with pytest.raises(ValidationError) as exc:
        parse_rttm(io.StringIO(text))
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: turn ends past 2**63 - 1 ms: {MAX_END_MS} + 1 ms"


def test_turn_accepts_non_ascii_ids():
    turn = SpeakerTurn("会议1", "1", "说话人1", TimeInterval(0, 10))
    assert parse_rttm(io.StringIO(emit_rttm([turn]))) == [turn]


def test_id_check_rejects_exactly_whitespace_control_and_format_characters():
    for code in range(0x110000):
        c = chr(code)
        invisible = unicodedata.category(c) in ("Cc", "Cf")
        try:
            check_id("id", c)
        except ValidationError as exc:
            if c.isspace():
                assert str(exc) == f"id must be non-empty without whitespace: {c!r}"
            else:
                assert invisible, hex(code)
                assert str(exc) == f"id must not hold control or format characters: {c!r}"
        else:
            assert not (c.isspace() or invisible), hex(code)


@pytest.mark.parametrize("bad", ["SPK01\u200b", "SPK01\ufeff", "\ufeffSPK01", "a\u2060b", "a\x00"])
def test_id_check_rejects_invisible_characters(bad):
    with pytest.raises(ValidationError, match="must not hold control or format characters"):
        check_id("speaker", bad)


@pytest.mark.parametrize("uid", ["\ufeffSPK01_S1", "SPK01\u200b_S1", "SPK01_S1\x7f"])
def test_transcript_ids_are_checked_at_their_line(uid):
    text = f"SPK01_S1 你好\nSPK02_S1 世界\n{uid} 再见\n"
    with pytest.raises(ValidationError) as exc:
        parse_transcript(io.StringIO(text))
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: ")
    assert "must not hold control or format characters" in str(exc.value)


def test_parse_example_line():
    (turn,) = parse_rttm(io.StringIO(EXAMPLE_LINE))
    assert turn.session == "S001"
    assert turn.speaker == "SPK01"
    assert turn.interval == TimeInterval(10500, 3250)
    assert turn.channel == "1"


def test_parse_honors_column_positions_with_placeholders():
    # times sit in fields 4 and 5, speaker in field 8, whatever the rest holds
    line = "SPEAKER sess 2 1.00 2.00 word junk WHO 0.9 extra"
    (turn,) = parse_rttm([line])
    assert turn.interval == TimeInterval(1000, 2000)
    assert turn.speaker == "WHO"
    assert turn.channel == "2"


def test_parse_empty_file():
    assert parse_rttm(io.StringIO("")) == []


def test_parse_skips_non_speaker_records_with_warning(caplog):
    text = "LEXEME S001 1 1.00 1.00 <NA> <NA> SPK01 <NA> <NA>\n" + EXAMPLE_LINE + "\n"
    with caplog.at_level("WARNING"):
        turns = parse_rttm(io.StringIO(text))
    assert len(turns) == 1
    assert "LEXEME" in caplog.text


def test_non_rttm_input_fails_at_line_1(caplog):
    # a transcript read as RTTM: its first field is no RTTM record type
    text = "".join(f"SPK01_S0001 utterance number {k}\n" for k in range(50))
    with caplog.at_level("WARNING"), pytest.raises(ParseError) as exc:
        parse_rttm(io.StringIO(text))
    assert exc.value.line == 1
    assert str(exc.value) == "line 1: not an RTTM record type: 'SPK01_S0001'"
    assert caplog.records == []


def test_other_record_types_warn_once_plus_a_total(caplog):
    kinds = sorted(formats._OTHER_RTTM_TYPES)
    text = "".join(
        f"{kinds[k % len(kinds)]} S001 1 1.00 1.00 <NA> <NA> SPK01 <NA> <NA>\n" for k in range(50)
    )
    with caplog.at_level("WARNING"):
        assert parse_rttm(io.StringIO(text + EXAMPLE_LINE + "\n")) == parse_rttm([EXAMPLE_LINE])
    assert [r.getMessage() for r in caplog.records] == [
        f"line 1: skipping record type {kinds[0]!r}",
        "skipped 50 records that are not SPEAKER",
    ]


def test_a_speaker_record_behind_a_byte_order_mark_is_refused():
    # utf-8-sig strips only the mark that opens a file; one inside a joined
    # file used to turn its SPEAKER line into a skipped record type
    text = EXAMPLE_LINE + "\n\ufeff" + EXAMPLE_LINE + "\n"
    with pytest.raises(ParseError) as exc:
        parse_rttm(io.StringIO(text))
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: not an RTTM record type: '\\ufeffSPEAKER'"


def test_parse_skips_comments_and_blank_lines():
    text = "; a comment\n\n" + EXAMPLE_LINE + "\n"
    assert len(parse_rttm(io.StringIO(text))) == 1


def test_parse_preserves_file_order():
    lines = [
        "SPEAKER S001 1 20.00 1.00 <NA> <NA> B <NA> <NA>",
        "SPEAKER S001 1 10.00 1.00 <NA> <NA> A <NA> <NA>",
    ]
    turns = parse_rttm(lines)
    assert [t.speaker for t in turns] == ["B", "A"]


@pytest.mark.parametrize(
    "line,match",
    [
        ("SPEAKER S001 1 10.50 3.25 <NA> <NA> SPK01", "9 fields"),
        ("SPEAKER S001 1 abc 3.25 <NA> <NA> SPK01 <NA> <NA>", "decimal"),
        ("SPEAKER S001 1 10.5001 3.25 <NA> <NA> SPK01 <NA> <NA>", "decimal"),
    ],
)
def test_parse_errors_carry_line_numbers(line, match):
    with pytest.raises(ParseError, match="line 1") as exc:
        parse_rttm([line])
    assert match in str(exc.value)


@pytest.mark.parametrize(
    "line",
    [
        "SPEAKER S001 1 10.50 0.00 <NA> <NA> SPK01 <NA> <NA>",
        "SPEAKER S001 1 10.50 -1.00 <NA> <NA> SPK01 <NA> <NA>",
    ],
)
def test_parse_rejects_non_positive_durations(line):
    with pytest.raises(ValidationError, match="line 1"):
        parse_rttm([line])


def test_emit_example_turn():
    turn = SpeakerTurn("S001", "1", "SPK01", TimeInterval(10500, 3250))
    assert emit_rttm([turn]) == EXAMPLE_LINE + "\n"


def test_emit_empty():
    assert emit_rttm([]) == ""


def test_emit_sorts_by_session_start_speaker():
    turns = [
        SpeakerTurn("S002", "1", "A", TimeInterval(0, 1000)),
        SpeakerTurn("S001", "1", "B", TimeInterval(5000, 1000)),
        SpeakerTurn("S001", "1", "A", TimeInterval(5000, 1000)),
    ]
    lines = emit_rttm(turns).splitlines()
    assert [ln.split()[1] for ln in lines] == ["S001", "S001", "S002"]
    assert [ln.split()[7] for ln in lines] == ["A", "B", "A"]


def test_emit_output_deterministic_for_permutations():
    turns = random_turn_list(seed=5)
    import itertools

    reference = emit_rttm(turns)
    for perm in itertools.islice(itertools.permutations(turns[:4]), 8):
        assert emit_rttm(list(perm) + turns[4:]) == reference


def test_round_trip_random_turns():
    for seed in range(25):
        turns = random_turn_list(seed)
        assert parse_rttm(io.StringIO(emit_rttm(turns))) == turns


def test_random_turn_list_is_deterministic_and_sorted():
    turns = random_turn_list(seed=4)
    assert turns == random_turn_list(seed=4)
    keys = [(t.session, t.interval.start, t.speaker) for t in turns]
    assert keys == sorted(keys)


@given(st.integers(min_value=0, max_value=10**8))
def test_seconds_ms_round_trip_on_centiseconds(ms10):
    ms = ms10 * 10 % 10**8
    assert seconds_to_ms(f"{ms // 1000}.{ms % 1000 // 10:02d}") == ms


def test_seconds_to_ms_exact():
    assert seconds_to_ms("10.50") == 10500
    assert seconds_to_ms("3.25") == 3250
    assert seconds_to_ms("7") == 7000
    assert seconds_to_ms("0.001") == 1


def regex_seconds_to_ms(text):
    """A regex time parser that seconds_to_ms must agree with."""
    m = re.fullmatch(r"(-?)([0-9]+)(?:\.([0-9]{1,3}))?", text, re.ASCII)
    if m is None:
        raise ParseError(f"not a decimal time with at most 3 fractional digits: {text!r}")
    sign, whole, frac = m.groups()
    try:
        ms = int(whole) * 1000 + int((frac or "").ljust(3, "0") or "0")
    except ValueError:  # int() refuses over-long digit strings (since 3.10.7)
        raise ParseError(f"time too long to convert: {len(text)} characters") from None
    if sign and ms != 0:
        raise ValidationError(f"negative time: {text!r}")
    return ms


def outcome(fn, text):
    try:
        return fn(text)
    except ValueError as exc:  # ParseError, ValidationError, or a stray ValueError
        return type(exc), str(exc)


def random_time_text(rng):
    if rng.random() < 0.5:  # near-misses of digits[.d{1,3}]
        digits = "0123456789" * 4 + "\u0661\uff11\u00b2"
        text = rng.choice(["", "", "", "-", "+", "-0", "0"])
        text += "".join(rng.choice(digits) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.7:
            text += "." + "".join(rng.choice(digits) for _ in range(rng.randint(0, 5)))
        return text + rng.choice(["", "", "", "\n", " ", "\n\n", "\r"])
    alphabet = "0123456789.-+e \n\u0661\uff11\u00b2\u066b"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))


def test_time_fast_path_agrees_with_regex():
    rng = random.Random(20221)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    fixed = [
        "0", "-0", "-0.000", "-0.001", "1.", ".5", "1.5", "1.50", "1.500", "1.5000",
        "007.010", "1.5\n", "7\n", "\u0661", "\uff11.5", "\u00b2", "1.\u0661", "",
        "9" * limit, "9" * (limit + 1), "9" * (limit + 1) + ".5", "9" * (limit - 1) + ".123",
        "-" + "9" * limit, "-" + "9" * (limit + 1), "-0" * 2, "--1", "-.5", "-", "+1", " 1",
    ]
    texts = fixed + [random_time_text(rng) for _ in range(20_000)]
    kinds = set()
    for text in texts:
        got, want = outcome(seconds_to_ms, text), outcome(regex_seconds_to_ms, text)
        assert got == want, text
        kinds.add(type(got) is int or got[0])
    # every outcome occurs: a value, a parse error, a negative time
    assert kinds == {True, ParseError, ValidationError}


def messy_rttm_files(rng, n_files):
    """RTTM texts that share sessions and speakers, with the extras a reader skips."""
    files = []
    for _ in range(n_files):
        lines = []
        for _ in range(rng.randint(0, 40)):
            kind = rng.random()
            if kind < 0.05:
                lines.append(rng.choice(["", "   ", "; comment", ";;x y"]))
            elif kind < 0.1:
                lines.append("SPKR-INFO S001 1 <NA> <NA> <NA> unknown SPK01 <NA> <NA>")
            else:
                start, dur = rng.randrange(0, 60_000), rng.randrange(1, 5_000)
                times = [f"{ms // 1000}.{ms % 1000:03d}" for ms in (start, dur)]
                times = [t.rstrip("0").rstrip(".") if rng.random() < 0.3 else t for t in times]
                fields = [
                    "SPEAKER",
                    f"S{rng.randint(1, 3):03d}",
                    rng.choice(["1", "ch2"]),
                    *times,
                    "<NA>",
                    "<NA>",
                    f"SPK{rng.randint(1, 4)}",
                    "<NA>",
                ] + ["<NA>"] * rng.randint(0, 2)
                lines.append(rng.choice([" ", "\t", "  "]).join(fields))
        files.append("".join(line + rng.choice(["\n", "\r\n"]) for line in lines))
    return files


def oracle_turns(text):
    """(session, channel, speaker, (start_ms, dur_ms)) of each SPEAKER line, by
    plain field splitting: the reference for inputs the reader accepts."""
    turns = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "SPEAKER":
            start, dur = (
                int(whole) * 1000 + int((frac + "000")[:3])
                for whole, _, frac in (t.partition(".") for t in fields[3:5])
            )
            turns.append((fields[1], fields[2], fields[7], (start, dur)))
    return turns


def test_row_reader_and_grouping_agree_with_turns():
    rng = random.Random(5)
    for _ in range(200):
        files = messy_rttm_files(rng, rng.randint(1, 3))
        expected = [t for text in files for t in oracle_turns(text)]
        turns = [t for text in files for t in formats._rttm_turns(io.StringIO(text))]
        assert turns == expected
        assert all(type(t) is SpeakerTurn and type(t.interval) is TimeInterval for t in turns)
        sessions = {}
        for session, _, speaker, interval in expected:
            sessions.setdefault(session, {}).setdefault(speaker, []).append(interval)
        grouped = by_session(t for text in files for t in formats._rttm_turns(io.StringIO(text)))
        assert list(grouped) == sorted(sessions)
        assert grouped == {s: Diarization(s, speakers) for s, speakers in sessions.items()}


def test_row_reader_raises_like_parse_rttm():
    rng = random.Random(6)
    bad = [
        ("SPEAKER S001 1 1.00 1.00 <NA> <NA>", ParseError, "expected at least 9 fields, got 7"),
        (
            "SPEAKER S001 1 1.0001 1.00 <NA> <NA> A <NA>",
            ParseError,
            "not a decimal time with at most 3 fractional digits: '1.0001'",
        ),
        ("SPEAKER S001 1 1.00 -2 <NA> <NA> A <NA>", ValidationError, "negative time: '-2'"),
        ("SPEAKER S001 1 1.00 0 <NA> <NA> A <NA>", ValidationError, "non-positive duration: 0 ms"),
    ]
    for _ in range(100):
        (text,) = messy_rttm_files(rng, 1)
        lines = text.splitlines(keepends=True)
        at = rng.randint(0, len(lines))
        line, error, message = rng.choice(bad)
        lines.insert(at, line + "\n")
        with pytest.raises(error) as exc:
            list(formats._rttm_turns(lines))
        assert type(exc.value) is error
        assert str(exc.value) == f"line {at + 1}: {message}"
        assert exc.value.line == at + 1


def test_row_reader_reads_an_open_file_lazily():
    stream = io.StringIO("SPEAKER S1 1 0.00 1.00 <NA> <NA> A <NA>\nnot read yet\n")
    rows = formats._rttm_turns(stream)
    assert next(rows) == SpeakerTurn("S1", "1", "A", TimeInterval(0, 1000))
    assert stream.readline() == "not read yet\n"  # only the first line was consumed


def test_parse_transcript_example():
    (entry,) = parse_transcript(io.StringIO("SPK01_S001 你好世界\n"))
    assert entry.speaker == "SPK01"
    assert entry.session == "S001"
    assert entry.text == "你好世界"
    assert entry.order_key == 0


def test_parse_transcript_empty():
    assert parse_transcript(io.StringIO("")) == []


def test_split_at_last_underscore():
    (entry,) = parse_transcript(io.StringIO("A_B_S001 x\n"))
    assert (entry.speaker, entry.session) == ("A_B", "S001")
    # independent oracle: python's own rsplit
    assert split_utterance_id("A_B_S001") == tuple("A_B_S001".rsplit("_", 1))


def test_transcript_text_keeps_internal_whitespace():
    (entry,) = parse_transcript(io.StringIO("SPK01_S001 hello  there\n"))
    assert entry.text == "hello  there"


def test_transcript_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_transcript(io.StringIO("loneid\n"))
    with pytest.raises(ParseError, match="line 1"):
        parse_transcript(io.StringIO("nounderscore some text\n"))


def test_parse_errors_keep_line_attribute():
    # the line number is an attribute, not only a prefix of the message
    good_rttm = "SPEAKER S001 1 10.50 3.25 <NA> <NA> SPK01 <NA> <NA>"
    with pytest.raises(ParseError) as exc:
        parse_rttm([good_rttm, "SPEAKER s 1 x 1.00 <NA> <NA> A <NA> <NA>"])
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: not a decimal time with at most 3 fractional digits: 'x'"
    with pytest.raises(ParseError) as exc:
        parse_transcript(io.StringIO("SPK01_S001 hi\nnounderscore hi\n"))
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: utterance ID without speaker_session shape: 'nounderscore'"


GOOD_RTTM = "SPEAKER S1 1 0.00 1.00 <NA> <NA> A <NA> <NA>\n"
MANIFEST_HEADER = "session\tspeaker\tstart_ms\tdur_ms\n"


@pytest.mark.parametrize(
    "parse,text,error,line,message",
    [
        (
            parse_rttm,
            GOOD_RTTM + "SPEAKER S1 1 1.00 0 <NA> <NA> A <NA> <NA>\n",
            ValidationError, 2, "non-positive duration: 0 ms",
        ),
        (
            parse_rttm,
            GOOD_RTTM + "\nSPEAKER S1 1 1.00 1.00 <NA> <NA> A\u200b <NA> <NA>\n",
            ValidationError, 3, "speaker must not hold control or format characters: 'A\\u200b'",
        ),
        (
            parse_rttm,
            GOOD_RTTM + "SPEAKER S1 1 \uff11.50 1.00 <NA> <NA> A <NA> <NA>\n",
            ParseError, 2, "not a decimal time with at most 3 fractional digits: '\uff11.50'",
        ),
        (
            parse_transcript,
            "SPK01_S1 你好\nnounderscore 世界\n",
            ParseError, 2, "utterance ID without speaker_session shape: 'nounderscore'",
        ),
        (
            parse_transcript,
            "SPK01_S1 你好\nSPK01\u200b_S1 世界\n",
            ValidationError, 2,
            "speaker must not hold control or format characters: 'SPK01\\u200b'",
        ),
        (
            parse_manifest,
            MANIFEST_HEADER + "S1\tA\t0\t100\nS1\tA\t-500\t1000\n",
            ValidationError, 3, "negative start time: -500 ms",
        ),
        (
            parse_manifest,
            MANIFEST_HEADER + "S1\tA\t0\t100\n\nS1\tA\t0\t100\n",
            ValidationError, 4,
            "repeated manifest row: ManifestRow(session='S1', speaker='A', start=0, dur=100)",
        ),
        (
            parse_texts,
            "S1\tA\t0\t100\thello\nS1\tA\t-5\t100\tworld\n",
            ValidationError, 2, "negative start time: -5 ms",
        ),
        (
            parse_matrix,
            "\nS1 0 A B\n0.5 0.5\n",
            ValidationError, 2, "frame_ms must be positive: 0",
        ),
        (
            # B never speaks, so no Diarization would ever check its id
            parse_matrix,
            "S1 10 A B\u200b\n1.0 0.0\n",
            ValidationError, 1, "speaker must not hold control or format characters: 'B\\u200b'",
        ),
        (
            parse_matrix,
            "S1 10 A A\n1.0 0.0\n",
            ValidationError, 1, "duplicate speaker ids in matrix",
        ),
        (
            # numpy's reader skips the blank line, so its row index is not the line
            parse_matrix,
            "S1 10 A B\n0.1 0.2\n\n0.3 1.5\n",
            ValidationError, 4, "probabilities must lie in [0, 1]",
        ),
        (
            parse_matrix,
            "S1 10 A B\n0.9 0.2_5\n",
            ParseError, 2, "non-numeric probability in ['0.9', '0.2_5']",
        ),
        (
            # the first refused line wins, whatever its kind
            parse_matrix,
            "S1 10 A B\n0.5 0.5\n0.5 nan\n0.5 x\n",
            ValidationError, 3, "probabilities must lie in [0, 1]",
        ),
        (
            parse_matrix,
            "S1 \uff11_0 A\n1.0\n",
            ParseError, 1, "frame_ms not an integer: '\uff11_0'",
        ),
        (
            parse_manifest,
            MANIFEST_HEADER + "S1\tA\t\uff11\uff10\t100\n",
            ParseError, 2, "non-integer time in ['S1', 'A', '\uff11\uff10', '100']",
        ),
        (
            parse_texts,
            "S1\tA\t0\t100\thello\nS1\tA\t200\t\uff11\uff10\tworld\n",
            ParseError, 2, "non-integer time in ['S1', 'A', '200', '\uff11\uff10', 'world']",
        ),
        (
            parse_manifest,
            MANIFEST_HEADER + "S1\tA\t0\t100\nS1\tA\t200\n",
            ParseError, 3, "expected 4 tab-separated fields, got 3",
        ),
        (
            parse_texts,
            "S1\tA\t0\t100\thello\nS1\tA\t200\t100\n",
            ParseError, 2, "expected 5 tab-separated fields, got 4",
        ),
        (
            parse_matrix,
            "\nS1 10\n0.5\n",
            ParseError, 2, "header needs: session frame_ms speaker...",
        ),
        (
            # a library caller can pass a \r that a file opened in text mode never yields
            parse_matrix,
            "S1 10 A B\n0.1 0.2\n0.5\r0.5\n",
            ParseError, 3, "carriage return inside the line: '0.5\\r0.5\\n'",
        ),
        (
            parse_matrix,
            "S1 10 A B\n0.1 0.2\n\r\r\n",
            ParseError, 3, "carriage return inside the line: '\\r\\r\\n'",
        ),
    ],
    ids=[
        "rttm-duration", "rttm-id", "rttm-time", "transcript-uid", "transcript-id",
        "manifest-start", "manifest-repeat", "texts-start", "matrix-frame", "matrix-silent-id",
        "matrix-duplicate", "matrix-range", "matrix-float-only", "matrix-range-first",
        "matrix-wide-frame", "manifest-wide-start", "texts-wide-duration", "manifest-short-row",
        "texts-short-row", "matrix-short-header", "matrix-inner-cr", "matrix-blank-cr",
    ],
)
def test_every_reader_refuses_a_line_at_its_number(parse, text, error, line, message):
    with pytest.raises(error) as exc:
        parse(io.StringIO(text))
    assert type(exc.value) is error
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def _rttm_time(ms):
    return f"{ms // 1000}.{ms % 1000:03d}"


# each consumer of an interval, and the line its readers put the interval on
INTERVAL_CONSUMERS = {
    "rttm-reader": (2, lambda start, dur: parse_rttm(io.StringIO(
        GOOD_RTTM + f"SPEAKER S1 1 {_rttm_time(start)} {_rttm_time(dur)} <NA> <NA> A <NA> <NA>\n"
    ))),
    "emit_rttm": (None, lambda start, dur: emit_rttm(
        [SpeakerTurn("S1", "1", "A", TimeInterval(start, dur))]
    )),
    "diarization-list": (None, lambda start, dur: Diarization("S1", {"A": [(start, dur)]})),
    "diarization-array": (
        None, lambda start, dur: Diarization("S1", {"A": array("q", [start, dur])})
    ),
    "by_session": (None, lambda start, dur: by_session(
        [SpeakerTurn("S1", "1", "A", TimeInterval(start, dur))]
    )),
    "segment-manifest": (
        None, lambda start, dur: SegmentManifest(rows=(ManifestRow("S1", "A", start, dur),))
    ),
    "parse_manifest": (2, lambda start, dur: parse_manifest(io.StringIO(
        MANIFEST_HEADER + f"S1\tA\t{start}\t{dur}\n"
    ))),
    "parse_texts": (2, lambda start, dur: parse_texts(io.StringIO(
        f"S1\tA\t0\t100\thello\nS1\tA\t{start}\t{dur}\tworld\n"
    ))),
}
BAD_INTERVALS = {
    "negative-start": ((-1000, 500), "negative start time: -1000 ms"),
    "zero-duration": ((1000, 0), "non-positive duration: 0 ms"),
    "late-end": ((MAX_END_MS, 1), f"turn ends past 2**63 - 1 ms: {MAX_END_MS} + 1 ms"),
}


@pytest.mark.parametrize(
    "consumer,case",
    [
        pytest.param(consumer, case, id=f"{consumer}-{case}")
        for consumer in INTERVAL_CONSUMERS
        for case in BAD_INTERVALS
        # seconds_to_ms refuses a negative RTTM time first, as `negative time`
        if (consumer, case) != ("rttm-reader", "negative-start")
    ],
)
def test_every_interval_consumer_refuses_with_the_same_text(consumer, case):
    line, consume = INTERVAL_CONSUMERS[consumer]
    (start, dur), message = BAD_INTERVALS[case]
    with pytest.raises(ValidationError) as exc:
        consume(start, dur)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_emit_transcript():
    entries = parse_transcript(io.StringIO("SPK01_S001 你好\nSPK02_S001 世界\n"))
    assert emit_transcript(entries) == "SPK01_S001 你好\nSPK02_S001 世界\n"


@given(
    st.text(st.sampled_from("a_ \t\r\n\x1c\u3000语"), max_size=4),
    st.text(st.sampled_from("a_ \t\r\n\x1c\u3000语"), max_size=4),
    st.text(st.sampled_from("a_ \t\r\n\x1c\u3000语"), max_size=4),
)
def test_emit_transcript_writes_exactly_the_entries_that_re_parse(speaker, session, text):
    entry = TranscriptEntry(speaker=speaker, session=session, text=text, order_key=0)
    line = f"{speaker}_{session} {text}\n"
    try:  # newline=None splits lines the way a file opened in text mode does
        reparsed = parse_transcript(io.StringIO(line, newline=None))
    except ParseError:
        reparsed = None
    if reparsed == [entry]:
        assert emit_transcript([entry]) == line
    else:
        with pytest.raises(ValidationError):
            emit_transcript([entry])


def test_transcript_empty_text_round_trips():
    (entry,) = parse_transcript(io.StringIO("SPK01_S001 \n"))
    assert entry.text == ""
    assert parse_transcript(io.StringIO(emit_transcript([entry]))) == [entry]


def test_channel_field_carried_verbatim():
    line = "SPEAKER S001 ch_far 10.50 3.25 <NA> <NA> SPK01 <NA> <NA>"
    (turn,) = parse_rttm([line])
    assert turn.channel == "ch_far"
    assert emit_rttm([turn]).strip() == line


def test_emit_round_trips_sub_centisecond_duration():
    turn = SpeakerTurn("S001", "1", "SPK01", TimeInterval(0, 4))
    assert emit_rttm([turn]).split()[3:5] == ["0.00", "0.004"]
    assert parse_rttm(io.StringIO(emit_rttm([turn]))) == [turn]


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**8))
def test_emit_parse_is_identity_on_any_ms(start, dur):
    turn = SpeakerTurn("S001", "1", "SPK01", TimeInterval(start, dur))
    text = emit_rttm([turn])
    assert parse_rttm(io.StringIO(text)) == [turn]
    for ms, field in zip((start, dur), text.split()[3:5]):
        if ms % 10 == 0:  # on-grid output is unchanged: 2 decimals
            assert field == f"{ms // 1000}.{ms % 1000 // 10:02d}"


def test_emit_keeps_off_grid_turns_apart():
    # 2 decimals would write 1.01 + 1.01 and 2.02 + 1.00: touching turns, merged on re-parse
    d = Diarization("S001", {"A": [(1005, 1005), (2015, 1000)]})
    text = emit_rttm(d.to_turns())
    assert [line.split()[3:5] for line in text.splitlines()] == [
        ["1.005", "1.005"],
        ["2.015", "1.00"],
    ]
    assert by_session(parse_rttm(io.StringIO(text)))["S001"] == d
