import io

import pytest
from hypothesis import given, strategies as st

from diarscore.errors import ParseError, ValidationError
from diarscore.formats import (
    SpeakerTurn,
    TimeInterval,
    check_id,
    emit_rttm,
    emit_transcript,
    ms_to_seconds,
    parse_rttm,
    parse_transcript,
    seconds_to_ms,
    split_utterance_id,
)
from diarscore.synth import random_turn_list
from diarscore.timeline import Diarization, by_session

EXAMPLE_LINE = "SPEAKER S001 1 10.50 3.25 <NA> <NA> SPK01 <NA> <NA>"


BAD_IDS = ["", " ", "a b", "a\u3000b", "a\x1cb", "\u2028"]


@pytest.mark.parametrize("bad", BAD_IDS)
def test_turn_rejects_empty_or_whitespace_ids(bad):
    with pytest.raises(ValidationError) as exc:
        SpeakerTurn(bad, "1", "A", TimeInterval(0, 10))
    assert str(exc.value) == f"session must be non-empty without whitespace: {bad!r}"
    with pytest.raises(ValidationError) as exc:
        SpeakerTurn("S1", "1", bad, TimeInterval(0, 10))
    assert str(exc.value) == f"speaker must be non-empty without whitespace: {bad!r}"


def test_turn_accepts_non_ascii_ids():
    turn = SpeakerTurn("会议1", "1", "说话人1", TimeInterval(0, 10))
    assert (turn.session, turn.speaker) == ("会议1", "说话人1")


def test_id_check_rejects_exactly_the_isspace_characters():
    for code in range(0x110000):
        c = chr(code)
        try:
            check_id("id", c)
        except ValidationError:
            assert c.isspace(), hex(code)
        else:
            assert not c.isspace(), hex(code)


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


def test_emit_rounds_half_up():
    # 10505 ms is not representable in 2 decimals; rounds to 10.51
    assert ms_to_seconds(10505) == "10.51"
    assert ms_to_seconds(10504) == "10.50"
    assert ms_to_seconds(10500) == "10.50"


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


@given(st.integers(min_value=0, max_value=10**8))
def test_seconds_ms_round_trip_on_centiseconds(ms10):
    ms = ms10 * 10 % 10**8
    assert seconds_to_ms(ms_to_seconds(ms)) == ms


def test_seconds_to_ms_exact():
    assert seconds_to_ms("10.50") == 10500
    assert seconds_to_ms("3.25") == 3250
    assert seconds_to_ms("7") == 7000
    assert seconds_to_ms("0.001") == 1


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


def test_emit_transcript():
    entries = parse_transcript(io.StringIO("SPK01_S001 你好\nSPK02_S001 世界\n"))
    assert emit_transcript(entries) == "SPK01_S001 你好\nSPK02_S001 世界\n"


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
            assert field == ms_to_seconds(ms)


def test_emit_keeps_off_grid_turns_apart():
    # 2 decimals would write 1.01 + 1.01 and 2.02 + 1.00: touching turns, merged on re-parse
    d = Diarization("S001", {"A": [(1005, 1005), (2015, 1000)]})
    text = emit_rttm(d.to_turns())
    assert [line.split()[3:5] for line in text.splitlines()] == [
        ["1.005", "1.005"],
        ["2.015", "1.00"],
    ]
    assert by_session(parse_rttm(io.StringIO(text)))["S001"] == d
