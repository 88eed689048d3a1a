"""TranscriptEntry and the IDs parse_transcript gives it.

Stdlib only: ``formats`` needs no numpy and these tests need no pytest, so
the file also runs as a plain script on any supported Python:

    PYTHONPATH=src python tests/test_transcript_entry.py
"""

import copy
import dataclasses
import io
import pickle

from diarscore.errors import ParseError, ValidationError
from diarscore.formats import TranscriptEntry, parse_transcript

GOOD = "SPK01_S0001 你好\nSPK02_S0001 世界\n"


def refusal(text):
    """(class, message, line) of the error parse_transcript raises on text."""
    try:
        parse_transcript(io.StringIO(text))
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.line
    raise AssertionError(f"accepted: {text!r}")


def test_entries_of_one_utterance_id_share_their_id_objects():
    entries = parse_transcript(io.StringIO(GOOD + "SPK01_S0001 再见\nSPK02_S0001 早安\n"))
    first, second, third, fourth = entries
    assert third.speaker is first.speaker and third.session is first.session
    assert fourth.speaker is second.speaker and fourth.session is second.session
    assert [e.utterance_id for e in entries] == ["SPK01_S0001", "SPK02_S0001"] * 2
    assert [e.order_key for e in entries] == [0, 1, 2, 3]


# each bad ID with the message it is refused with at every line
BAD_IDS = [
    ("nounderscore", ParseError, "utterance ID without speaker_session shape: 'nounderscore'"),
    ("_S0001", ParseError, "utterance ID without speaker_session shape: '_S0001'"),
    ("SPK01_", ParseError, "utterance ID without speaker_session shape: 'SPK01_'"),
    (
        "SPK01\u200b_S0001",
        ValidationError,
        "speaker must not hold control or format characters: 'SPK01\\u200b'",
    ),
    (
        # the session is checked before the speaker
        "SPK01\u200b_S0001\x7f",
        ValidationError,
        "session must not hold control or format characters: 'S0001\\x7f'",
    ),
]


def test_a_bad_id_is_refused_at_its_line_wherever_it_stands():
    for uid, error, message in BAD_IDS:
        bad = f"{uid} 再见\n"
        cases = [
            (bad, 1),  # on line 1
            (GOOD + bad, 3),  # after good lines
            (GOOD + bad + bad, 3),  # repeated: refused at its first line
            (GOOD + bad + GOOD + bad, 3),
        ]
        for text, line in cases:
            assert refusal(text) == (error, f"line {line}: {message}", line), (uid, line)


def test_an_entry_is_slotted_and_frozen():
    (entry,) = parse_transcript(io.StringIO("SPK01_S0001 你好\n"))
    assert not hasattr(entry, "__dict__")
    for field in dataclasses.fields(entry):
        try:
            setattr(entry, field.name, None)
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError(f"{field.name} assigned")
    # nor can an attribute be added; CPython's frozen __setattr__ on a
    # slotted class raises TypeError for a name that is no field
    try:
        entry.extra = 0
    except (AttributeError, TypeError):
        pass
    else:
        raise AssertionError("extra attribute added")
    assert entry == TranscriptEntry("SPK01", "S0001", "你好", 0)


def test_an_entry_keeps_its_value_behaviour():
    entry = TranscriptEntry(speaker="A_B", session="S1", text="你好", order_key=7)
    same = TranscriptEntry("A_B", "S1", "你好", 7)
    assert entry == same and hash(entry) == hash(same)
    assert entry != TranscriptEntry("A_B", "S1", "你好", 8)
    assert len({entry, same}) == 1
    assert entry.utterance_id == "A_B_S1"
    assert repr(entry) == (
        "TranscriptEntry(speaker='A_B', session='S1', text='你好', order_key=7)"
    )
    changed = dataclasses.replace(entry, text="再见")
    assert changed == TranscriptEntry("A_B", "S1", "再见", 7) and entry.text == "你好"
    assert dataclasses.astuple(entry) == ("A_B", "S1", "你好", 7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(entry, protocol)) == entry, protocol
    assert copy.deepcopy(entry) == entry
    assert copy.copy(entry) == entry


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"PASS {name}")
    print(f"{len(tests)} passed")
