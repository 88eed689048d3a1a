"""RTTM and transcript file formats.

RTTM lines carry 10 whitespace-separated fields:

    SPEAKER <session> <channel> <start> <duration> <NA> <NA> <speaker> <NA> <NA>

with start/duration in decimal seconds: ASCII digits, optionally a point
and at most 3 fractional digits.  Times are stored internally as
integer milliseconds; parsing is exact decimal (no binary floating point
touches the data path).  A turn must end by ``MAX_END_MS`` = 2**63 - 1 ms
(about 292 million years), the largest time a Diarization can hold.
``check_interval`` is the one rule for a valid interval and the text of
each refusal: the RTTM reader and writer, a Diarization and the manifest
rows all call it.
Emission writes 2 decimals for times on the 10 ms grid and 3 for any
other time, so emitted files re-parse exactly.

A SpeakerTurn is one SPEAKER record as a plain tuple.  RTTM is read as a
stream: one reader makes one pass over the lines of an open file and
yields one validated SpeakerTurn per SPEAKER line, and no list of lines is
kept.  ``parse_rttm`` is that stream as a list, and ``timeline.by_session``
groups it into Diarizations.  A SpeakerTurn checks nothing when it is
built; ``emit_rttm`` refuses any turn whose line would not re-parse to the
same turn.

Transcript lines are ``<speakerID>_<sessionID><whitespace><text>``, UTF-8,
one utterance per line.  The speaker/session split is at the *last*
underscore, so speaker IDs may themselves contain underscores and session
IDs may not: ``emit_transcript`` refuses any entry that would not re-parse
to the same speaker, session and text.  A transcript is read as a stream
too: ``_transcript_entries`` yields one entry per line, and
``parse_transcript`` is that stream as a list.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DiarscoreError, ParseError, ValidationError

logger = logging.getLogger(__name__)
_new_tuple = tuple.__new__

# The record types NIST RTTM defines besides SPEAKER; the reader skips these.
_OTHER_RTTM_TYPES = frozenset(
    "SEGMENT NOSCORE NO_RT_METADATA LEXEME NON-LEX NON-SPEECH FILLER EDIT IP CB A/P SU"
    " SPKR-INFO".split()
)


# the latest end of any turn: Diarization packs times into signed 64-bit ints
MAX_END_MS = 2**63 - 1


class TimeInterval(NamedTuple):
    """Half-open interval [start, start + dur) in integer milliseconds."""

    start: int
    dur: int

    @property
    def end(self) -> int:
        return self.start + self.dur


def check_id(what: str, value: str) -> None:
    """Reject an empty id, one with whitespace, or one with an invisible character.

    ``str.split()`` splits on exactly the characters ``str.isspace()``
    accepts, so an id has no whitespace iff it splits into itself alone.
    RTTM cannot carry whitespace in an id.  Control and format characters
    (Unicode categories Cc and Cf, such as U+FEFF or U+200B) would make an
    id that looks like another one a different speaker or session.
    """
    if not value or value.split() != [value]:
        raise ValidationError(f"{what} must be non-empty without whitespace: {value!r}")
    # no Cc or Cf character is printable, so a printable id skips the lookups
    if not value.isprintable() and any(
        unicodedata.category(ch) in ("Cc", "Cf") for ch in value
    ):
        raise ValidationError(f"{what} must not hold control or format characters: {value!r}")


def check_interval(start: int, dur: int) -> None:
    """Reject a negative start, a non-positive duration or an end past ``MAX_END_MS``."""
    if start < 0:
        raise ValidationError(f"negative start time: {start} ms")
    if dur <= 0:
        raise ValidationError(f"non-positive duration: {dur} ms")
    if start + dur > MAX_END_MS:
        raise ValidationError(f"turn ends past 2**63 - 1 ms: {start} + {dur} ms")


def _check_ids(session: str, speaker: str, checked: set[tuple[str, str]]) -> None:
    """check_id on a session and a speaker, once per pair not yet in ``checked``."""
    if (session, speaker) not in checked:
        check_id("session", session)
        check_id("speaker", speaker)
        checked.add((session, speaker))


class SpeakerTurn(NamedTuple):
    """One RTTM SPEAKER record; it is validated where it is read or written."""

    session: str
    channel: str
    speaker: str
    interval: TimeInterval


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    """One transcript utterance; order_key is the line index or a start time.

    Slotted: an entry holds its four fields and no ``__dict__``.
    """

    speaker: str
    session: str
    text: str
    order_key: int

    @property
    def utterance_id(self) -> str:
        return f"{self.speaker}_{self.session}"


def seconds_to_ms(text: str) -> int:
    """Convert a decimal-seconds string to exact integer milliseconds.

    The one form accepted is an optional ``-``, ASCII digits, then
    optionally a point and 1 to 3 ASCII digits.  Anything else (another
    sign, non-ASCII digits, scientific notation, surrounding whitespace,
    or more digits than ``int()`` converts) is a ParseError.  Negative
    values parse but are rejected as a ValidationError so callers can
    report them distinctly; ``-0`` is 0.
    """
    whole, dot, frac = text.partition(".")
    # isdigit() accepts exactly 0-9 in an ASCII string.  A whole part that is
    # not all digits must be a minus and digits, which int() reads as negative.
    negative = not whole.isdigit()
    if not (
        len(frac) <= 3
        and text.isascii()
        and (not negative or whole[:1] == "-" and whole[1:].isdigit())
        and (frac.isdigit() or not dot)
    ):
        raise ParseError(f"not a decimal time with at most 3 fractional digits: {text!r}")
    try:
        ms = int(whole) * 1000 + int(frac.ljust(3, "0"))
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"time too long to convert: {len(text)} characters") from None
    if negative and ms:  # "-0" and "-0.000" are 0
        raise ValidationError(f"negative time: {text!r}")
    return ms


def split_utterance_id(uid: str) -> tuple[str, str]:
    """Split an utterance ID into (speaker, session) at the last underscore."""
    speaker, sep, session = uid.rpartition("_")
    if not sep or not speaker or not session:
        raise ParseError(f"utterance ID without speaker_session shape: {uid!r}")
    return speaker, session


def _rttm_turns(stream: IO[str] | Iterable[str]) -> Iterator[SpeakerTurn]:
    """Yield the validated SpeakerTurn of each SPEAKER record, in file order.

    Only SPEAKER records are kept, and ``;``-comments are ignored.  The
    other record types NIST RTTM defines are skipped: the first one with a
    warning, and when the stream ends a second warning gives the total if
    there was more than one.  Any other first field (a transcript line, or
    a SPEAKER behind a byte-order mark inside two joined files) is a
    ParseError, as are lines with fewer than 9 fields and malformed times;
    negative times, intervals that ``check_interval`` refuses and ids that
    ``check_id`` refuses are a ValidationError.
    Every error carries the offending line number in ``line``.  The id
    checks run once per distinct (session, speaker) pair.
    """
    checked: set[tuple[str, str]] = set()
    skipped = 0
    for lineno, raw in enumerate(stream, 1):
        fields = raw.split()
        if not fields or fields[0].startswith(";"):
            continue
        if fields[0] != "SPEAKER":
            if fields[0] not in _OTHER_RTTM_TYPES:
                raise ParseError(f"not an RTTM record type: {fields[0]!r}", line=lineno)
            if not skipped:
                logger.warning("line %d: skipping record type %r", lineno, fields[0])
            skipped += 1
            continue
        if len(fields) < 9:
            raise ParseError(f"expected at least 9 fields, got {len(fields)}", line=lineno)
        session, speaker = fields[1], fields[7]
        try:
            start = seconds_to_ms(fields[3])
            dur = seconds_to_ms(fields[4])
            # the guard saves a function call per line, about 4% of this loop
            if (session, speaker) not in checked:
                _check_ids(session, speaker, checked)
            # the same guard for check_interval; the start needs no test,
            # since seconds_to_ms rejects negative times
            if dur <= 0 or start + dur > MAX_END_MS:
                check_interval(start, dur)
        except DiarscoreError as exc:
            raise type(exc)(str(exc), line=lineno) from None
        # tuple.__new__ skips the Python-level __new__ of both NamedTuples,
        # which would double the cost of building a turn on this per-line path
        yield _new_tuple(
            SpeakerTurn, (session, fields[2], speaker, _new_tuple(TimeInterval, (start, dur)))
        )
    if skipped > 1:
        logger.warning("skipped %d records that are not SPEAKER", skipped)


def parse_rttm(stream: IO[str] | Iterable[str]) -> list[SpeakerTurn]:
    """Parse RTTM text into SpeakerTurns, preserving file order.

    The list of what the streaming reader yields: the other RTTM record
    types are skipped with at most two warnings, ``;``-comments are
    ignored, and unknown record types and malformed lines raise with their
    line number.
    """
    return list(_rttm_turns(stream))


def emit_rttm(turns: Iterable[SpeakerTurn]) -> str:
    """Serialize turns as RTTM text, sorted by (session, start, speaker).

    Times on the 10 ms grid carry 2 decimals; any other time carries the
    exact milliseconds in 3 decimals.  A turn whose line would not re-parse
    to the same turn is a ValidationError: a session, channel or speaker
    that ``check_id`` refuses, or an interval that ``check_interval``
    refuses.  So every file written re-parses to the same turns.
    """
    ordered = sorted(turns, key=lambda t: (t.session, t.interval.start, t.speaker))
    checked: set[tuple[str, str, str]] = set()
    lines = []
    for session, channel, speaker, (start, dur) in ordered:
        if (session, channel, speaker) not in checked:
            check_id("session", session)
            check_id("channel", channel)
            check_id("speaker", speaker)
            checked.add((session, channel, speaker))
        check_interval(start, dur)
        lines.append(
            f"SPEAKER {session} {channel} {_rttm_seconds(start)} {_rttm_seconds(dur)}"
            f" <NA> <NA> {speaker} <NA> <NA>\n"
        )
    return "".join(lines)


def _rttm_seconds(ms: int) -> str:
    """Exact seconds: 2 decimals on the 10 ms grid, 3 decimals off it."""
    whole, frac = divmod(ms, 1000)
    return f"{whole}.{frac:03d}" if frac % 10 else f"{whole}.{frac // 10:02d}"


def _transcript_entries(stream: IO[str] | Iterable[str]) -> Iterator[TranscriptEntry]:
    """Yield the TranscriptEntry of each non-blank transcript line, in file order.

    The first whitespace run separates the ID from the text; the text keeps
    any further internal whitespace verbatim.  order_key is the 0-based
    index among parsed entries.  A malformed utterance ID is a ParseError
    and a session or speaker that ``check_id`` rejects a ValidationError,
    each at its line.

    Each distinct utterance ID is split and checked once, at its first
    line, and every entry with that ID shares the same speaker and session
    objects.  So the reader holds the IDs once per utterance ID, and
    nothing per line.
    """
    ids: dict[str, tuple[str, str]] = {}  # utterance ID -> checked (speaker, session)
    index = 0
    for lineno, raw in enumerate(stream, 1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split(None, 1)
        if len(parts) == 2:
            uid, text = parts
        elif parts[0] != line:
            uid, text = parts[0], ""  # separator present, text empty
        else:
            raise ParseError("no text column after the utterance ID", line=lineno)
        pair = ids.get(uid)
        if pair is None:
            try:
                speaker, session = split_utterance_id(uid)
                check_id("session", session)
                check_id("speaker", speaker)
            except DiarscoreError as exc:
                raise type(exc)(str(exc), line=lineno) from None
            pair = ids[uid] = (speaker, session)
        yield TranscriptEntry(pair[0], pair[1], text, index)
        index += 1


def parse_transcript(stream: IO[str] | Iterable[str]) -> list[TranscriptEntry]:
    """Parse two-column transcript text (utterance ID, then utterance).

    The list of what the streaming reader yields: one slotted entry per
    non-blank line, in file order, with order_key its index.  A malformed
    line raises with its line number.
    """
    return list(_transcript_entries(stream))


def emit_transcript(entries: Iterable[TranscriptEntry]) -> str:
    """Serialize transcript entries, one ``<speaker>_<session> <text>`` line each.

    An entry that would not re-parse to the same speaker, session and text
    is a ValidationError: an utterance ID that holds whitespace or does not
    split at its last underscore back into the entry's own speaker and
    session (an empty one, or a session ID with an underscore), and a text
    that starts with whitespace or holds a line break.
    """
    lines = []
    for e in entries:
        uid = e.utterance_id
        check_id("utterance ID", uid)
        try:
            parsed = split_utterance_id(uid)
        except ParseError:  # an empty speaker or session
            parsed = None
        if parsed != (e.speaker, e.session):
            raise ValidationError(
                f"utterance ID {uid!r} does not split back into"
                f" speaker {e.speaker!r} and session {e.session!r}"
            )
        if e.text[:1].isspace() or "\n" in e.text or "\r" in e.text:
            raise ValidationError(f"text of {uid!r} would not re-parse: {e.text!r}")
        lines.append(f"{uid} {e.text}\n")
    return "".join(lines)
