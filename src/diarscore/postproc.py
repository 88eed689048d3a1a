"""Probability post-processing and the joint-decoding manifest protocol.

The front half turns per-speaker speech probabilities into segments:
threshold, merge small gaps, drop short segments.  The back half drives
segment-level decoding from the outside: a manifest row per utterance
identifier (session, speaker, start, duration), and re-assembly of decoded
per-utterance text into one chronologically merged transcript entry per
speaker.

Only the probability matrix is an array: numpy is imported inside the
functions that read and threshold it, so importing this module (and every
command but ``binarize``) does not load numpy.  ``binarize_stream``
thresholds the matrix one chunk of rows at a time as it reads them and
never builds the whole array; ``parse_matrix`` returns it, for
``binarize_probs`` or any other use.

External file formats
---------------------
Probability matrix (UTF-8 text): header line ``<session> <frame_ms>
<spk1> <spk2> ...``, then one whitespace-separated row of ASCII
probabilities per frame, covering contiguous time from 0.

Manifest TSV: header ``session\tspeaker\tstart_ms\tdur_ms``, one row per
utterance.  The texts file for `assemble` uses the same columns plus a
final ``text`` column.  A row's interval must pass
``formats.check_interval``, the rule an RTTM turn follows.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .errors import DiarscoreError, ParseError, ValidationError
from .formats import TimeInterval, TranscriptEntry, _check_ids, check_id, check_interval
from .timeline import Diarization

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ManifestRow",
    "ProbabilityMatrix",
    "SegmentManifest",
    "Texts",
    "assemble_transcript",
    "binarize_probs",
    "binarize_stream",
    "build_manifest",
    "check_tunables",
    "combine_manifests",
    "emit_manifest",
    "parse_manifest",
    "parse_matrix",
    "parse_texts",
    "smooth_segments",
]

MANIFEST_HEADER = ("session", "speaker", "start_ms", "dur_ms")

# parse_matrix and binarize_stream hand numpy this many body lines at a time.
_MATRIX_CHUNK_LINES = 1 << 12


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Per-speaker speech probabilities on a fixed frame grid from t=0."""

    session: str
    frame_ms: int
    speakers: tuple[str, ...]
    values: np.ndarray  # frames x speakers, each in [0, 1]

    def __post_init__(self):
        _check_header(self.session, self.frame_ms, self.speakers)
        import numpy as np

        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(self.speakers):
            raise ValidationError(
                f"matrix shape {values.shape} does not match {len(self.speakers)} speakers"
            )
        if not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails both
            raise ValidationError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def _check_header(session: str, frame_ms: int, speakers: tuple[str, ...]) -> None:
    """A positive frame length, distinct speakers, and ids ``check_id`` accepts."""
    if frame_ms <= 0:
        raise ValidationError(f"frame_ms must be positive: {frame_ms}")
    if len(set(speakers)) != len(speakers):
        raise ValidationError("duplicate speaker ids in matrix")
    check_id("session", session)
    for speaker in speakers:
        check_id("speaker", speaker)


def _ascii_int(text: str) -> int:
    """An optional ``-`` then ASCII digits as an int; anything else is a ValueError."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)  # past sys.get_int_max_str_digits() this is a ValueError too


def parse_matrix(stream: IO[str] | Iterable[str]) -> ProbabilityMatrix:
    """Parse the one-header-line probability matrix format.

    numpy's C text reader reads the body, so a probability is an ASCII
    decimal, ``inf`` or ``nan`` (any case, optionally signed) and fields
    are split on any whitespace.  Every refusal names its line: a header
    that breaks the ProbabilityMatrix contract, and the first body line
    that holds a carriage return or a line break before its ending,
    another token, the wrong number of probabilities or one outside
    [0, 1] (NaN included).

    The stream is read once, _MATRIX_CHUNK_LINES lines at a time, so what
    is held besides the parsed rows is one chunk of lines, and a second
    copy of the rows while the chunks are joined.  ``binarize_stream``
    reads the same format without building the array.
    """
    import numpy as np

    lines = iter(stream)
    session, frame_ms, speakers, lineno = _matrix_header(lines)
    parts = list(_body_chunks(lines, len(speakers), lineno))
    values = np.concatenate(parts) if parts else np.empty((0, len(speakers)))
    return ProbabilityMatrix(session=session, frame_ms=frame_ms, speakers=speakers, values=values)


def _matrix_header(lines: Iterator[str]) -> tuple[str, int, tuple[str, ...], int]:
    """The session, frame length and speakers of the first non-blank line, and its number.

    Reads ``lines`` up to and including that line, and refuses a header
    that breaks the ProbabilityMatrix contract at its line.
    """
    for lineno, raw in enumerate(lines, 1):
        if raw.strip():
            header = raw.split()
            break
    else:
        raise ParseError("empty matrix file")
    if len(header) < 3:
        raise ParseError("header needs: session frame_ms speaker...", line=lineno)
    session = header[0]
    try:
        frame_ms = _ascii_int(header[1])
    except ValueError:
        raise ParseError(f"frame_ms not an integer: {header[1]!r}", line=lineno) from None
    speakers = tuple(header[2:])
    try:
        _check_header(session, frame_ms, speakers)
    except DiarscoreError as exc:
        raise type(exc)(str(exc), line=lineno) from None
    return session, frame_ms, speakers, lineno


def _body_chunks(lines: Iterator[str], width: int, before: int) -> Iterator[np.ndarray]:
    """The rows of the body lines left in ``lines``, one checked chunk at a time.

    ``before`` lines precede the body.  A refused chunk is halved down to
    its first refused line, which is raised at its line number.  A chunk's
    lines are dropped before its rows are yielded.
    """
    while chunk := list(itertools.islice(lines, _MATRIX_CHUNK_LINES)):
        values = _read_rows(chunk, width)
        if isinstance(values, DiarscoreError):
            # each line stands alone: halve the refused chunk down to its first line
            lo, hi = 0, len(chunk)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if isinstance(_read_rows(chunk[lo:mid], width), DiarscoreError):
                    hi = mid
                else:
                    lo = mid
            error = _read_rows(chunk[lo:hi], width)
            raise type(error)(str(error), line=before + lo + 1)
        before += len(chunk)
        del chunk  # free these lines before the caller asks for the next chunk
        yield values


def _read_rows(lines: list[str], width: int) -> np.ndarray | DiarscoreError:
    """numpy's reading of matrix body lines, or the error that refuses them."""
    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: "#" is a non-numeric field here, not a comment
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:  # on one line, a wrong width still outranks a refused field
        line = lines[0]  # exact for the one line that _body_chunks raises
        text = line.removesuffix("\n").removesuffix("\r")
        if "\r" in text:
            return ParseError(f"carriage return inside the line: {line!r}")
        if "\n" in text:
            return ParseError(f"line break inside the line: {line!r}")
        fields = line.split()
        if len(fields) != width:
            return ParseError(f"expected {width} probabilities, got {len(fields)}")
        return ParseError(f"non-numeric probability in {fields!r}")
    if values.shape[0] and values.shape[1] != width:
        return ParseError(f"expected {width} probabilities, got {values.shape[1]}")
    if not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails both
        return ValidationError("probabilities must lie in [0, 1]")
    return values.reshape(-1, width)  # no rows read as shape (0, 1)


def check_tunables(threshold: float = 0.5, max_gap_ms: int = 0, min_dur_ms: int = 0) -> None:
    """Refuse a threshold outside (0, 1) or a negative smoothing length.

    ``binarize_probs`` and ``smooth_segments`` check their tunables here,
    and so can a caller before it reads any matrix.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie strictly inside (0, 1): {threshold}")
    if max_gap_ms < 0 or min_dur_ms < 0:
        raise ValidationError("smoothing parameters must be non-negative")


def binarize_probs(matrix: ProbabilityMatrix, threshold: float = 0.5) -> Diarization:
    """Maximal runs of frames with probability >= threshold become intervals."""
    check_tunables(threshold=threshold)
    return _runs(matrix.session, matrix.frame_ms, matrix.speakers, [matrix.values], threshold)


def binarize_stream(stream: IO[str] | Iterable[str], threshold: float = 0.5) -> Diarization:
    """``binarize_probs(parse_matrix(stream), threshold)`` without the array.

    Each chunk of rows is thresholded as it is read, so what is held is
    one chunk of lines and its rows plus the intervals found so far.  The
    threshold is checked before the stream is read; every refusal of the
    matrix is ``parse_matrix``'s, with the same message and line.
    """
    check_tunables(threshold=threshold)
    lines = iter(stream)
    session, frame_ms, speakers, lineno = _matrix_header(lines)
    chunks = _body_chunks(lines, len(speakers), lineno)
    return _runs(session, frame_ms, speakers, chunks, threshold)


def _runs(
    session: str,
    frame_ms: int,
    speakers: tuple[str, ...],
    chunks: Iterable[np.ndarray],
    threshold: float,
) -> Diarization:
    """Each speaker's maximal runs of frames >= threshold, over consecutive row chunks.

    A run that crosses a chunk boundary is found as one interval in each
    chunk; Diarization joins a speaker's abutting intervals, so it comes
    out whole and no run is carried from one chunk to the next.
    """
    import numpy as np

    found: list[list[TimeInterval]] = [[] for _ in speakers]
    offset = 0  # frames in the chunks before this one
    for values in chunks:
        for k, intervals in enumerate(found):
            mask = np.concatenate(([False], values[:, k] >= threshold, [False]))
            edges = (np.flatnonzero(np.diff(mask.astype(np.int8))) + offset).tolist()
            intervals.extend(
                TimeInterval(a * frame_ms, (b - a) * frame_ms)
                for a, b in zip(edges[::2], edges[1::2])
            )
        offset += len(values)
    return Diarization(session, dict(zip(speakers, found)))  # it drops empty speakers


def smooth_segments(d: Diarization, max_gap_ms: int = 300, min_dur_ms: int = 200) -> Diarization:
    """Merge gaps shorter than max_gap_ms, then drop segments shorter than min_dur_ms.

    The order is fixed (merge before drop) and the operation is idempotent.
    """
    check_tunables(max_gap_ms=max_gap_ms, min_dur_ms=min_dur_ms)
    speakers: dict[str, list[TimeInterval]] = {}
    for spk, ivs in d.items():
        merged: list[TimeInterval] = []
        for iv in ivs:
            if merged and iv.start - merged[-1].end < max_gap_ms:
                last = merged[-1]
                merged[-1] = TimeInterval(last.start, iv.end - last.start)
            else:
                merged.append(iv)
        kept = [iv for iv in merged if iv.dur >= min_dur_ms]
        if kept:
            speakers[spk] = kept
    return Diarization(d.session, speakers)


class ManifestRow(NamedTuple):
    """One utterance identifier driving segment-level decoding."""

    session: str
    speaker: str
    start: int
    dur: int


@dataclass(frozen=True)
class SegmentManifest:
    """Distinct utterance identifiers sorted by (session, start, speaker)."""

    rows: tuple[ManifestRow, ...]

    def __post_init__(self):
        seen: set[ManifestRow] = set()
        for row in self.rows:
            check_interval(row.start, row.dur)
            if row in seen:
                raise ValidationError(f"repeated manifest row: {row}")
            seen.add(row)
        ordered = tuple(sorted(self.rows, key=lambda r: (r.session, r.start, r.speaker)))
        object.__setattr__(self, "rows", ordered)


def build_manifest(d: Diarization) -> SegmentManifest:
    """One manifest row per interval of a session's diarization."""
    return SegmentManifest(
        rows=tuple(
            ManifestRow(d.session, spk, iv.start, iv.dur) for spk, ivs in d.items() for iv in ivs
        )
    )


def combine_manifests(manifests: Iterable[SegmentManifest]) -> SegmentManifest:
    return SegmentManifest(rows=tuple(r for m in manifests for r in m.rows))


def emit_manifest(manifest: SegmentManifest) -> str:
    """Serialize a manifest as TSV under its header line.

    A row whose session or speaker ID is empty or holds whitespace is a
    ValidationError, as in ``emit_rttm``: such an ID cannot come from RTTM,
    one with a tab or line break would not re-parse, and ``assemble`` could
    not write any of them.  So every manifest written re-parses to the same
    rows.
    """
    lines = ["\t".join(MANIFEST_HEADER)]
    for r in manifest.rows:
        check_id("session", r.session)
        check_id("speaker", r.speaker)
        lines.append(f"{r.session}\t{r.speaker}\t{r.start}\t{r.dur}")
    return "".join(line + "\n" for line in lines)


def _manifest_row(fields: list[str], checked: set[tuple[str, str]]) -> ManifestRow:
    """The checked ManifestRow of the first four fields of one manifest or texts line.

    A time that is not an ASCII integer is a ParseError; a session or
    speaker that ``check_id`` rejects, or an interval that
    ``check_interval`` rejects, is a ValidationError.  ``checked`` holds
    the (session, speaker) pairs already checked.  The caller adds the
    line number.
    """
    try:
        row = ManifestRow(fields[0], fields[1], _ascii_int(fields[2]), _ascii_int(fields[3]))
    except ValueError:
        raise ParseError(f"non-integer time in {fields!r}") from None
    _check_ids(row.session, row.speaker, checked)
    check_interval(row.start, row.dur)
    return row


def parse_manifest(stream: IO[str] | Iterable[str]) -> SegmentManifest:
    """Parse a manifest TSV under its header line.

    A malformed or out-of-range row, and a row given twice, is refused at
    its line.
    """
    rows: dict[ManifestRow, None] = {}  # an insertion-ordered set
    checked: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(stream, 1):
        line = raw.rstrip("\r\n")
        if lineno == 1:
            if tuple(line.split("\t")) != MANIFEST_HEADER:
                raise ParseError(f"expected header {MANIFEST_HEADER}", line=lineno)
            continue
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}", line=lineno)
        try:
            row = _manifest_row(fields, checked)
        except DiarscoreError as exc:
            raise type(exc)(str(exc), line=lineno) from None
        if row in rows:
            raise ValidationError(f"repeated manifest row: {row}", line=lineno)
        rows[row] = None
    return SegmentManifest(rows=tuple(rows))


class Texts(dict):
    """The rows of a texts file with their texts, in file order.

    ``line`` maps each row to its line number, so that
    ``assemble_transcript`` can name the line of a row the manifest lacks.
    """

    def __init__(self):
        super().__init__()
        self.line: dict[ManifestRow, int] = {}


def parse_texts(stream: IO[str] | Iterable[str]) -> Texts:
    """Parse the per-row decoded-text file (manifest columns plus text).

    A malformed or out-of-range row is refused at its line, and a row
    given twice is a ParseError at the line of the repeat.
    """
    texts = Texts()
    checked: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(stream, 1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if lineno == 1 and tuple(fields[:4]) == MANIFEST_HEADER:
            continue
        if len(fields) != 5:
            raise ParseError(f"expected 5 tab-separated fields, got {len(fields)}", line=lineno)
        try:
            row = _manifest_row(fields, checked)
        except DiarscoreError as exc:
            raise type(exc)(str(exc), line=lineno) from None
        if row in texts:
            raise ParseError(f"repeated row: {row}", line=lineno)
        texts[row] = fields[4]
        texts.line[row] = lineno
    return texts


def assemble_transcript(
    manifest: SegmentManifest, texts: Mapping[ManifestRow, str]
) -> list[TranscriptEntry]:
    """Join each speaker's decoded texts in start order into one entry.

    Rows without a supplied text contribute the empty string; a text for a
    row absent from the manifest is an error, which names the first such
    row in ``texts`` order and, for parsed ``Texts``, its line.  Output is
    sorted by (session, speaker), order_key numbering the emitted lines.
    """
    known = set(manifest.rows)
    stray = [row for row in texts if row not in known]
    if stray:
        line = texts.line[stray[0]] if isinstance(texts, Texts) else None
        raise ValidationError(
            f"text supplied for rows absent from the manifest: {stray[:3]}", line=line
        )
    merged: dict[tuple[str, str], list[str]] = {}
    for row in manifest.rows:  # already (session, start, speaker) ordered
        merged.setdefault((row.session, row.speaker), []).append(texts.get(row, ""))
    entries = []
    for index, (session, speaker) in enumerate(sorted(merged)):
        entries.append(
            TranscriptEntry(
                speaker=speaker,
                session=session,
                text="".join(merged[(session, speaker)]),
                order_key=index,
            )
        )
    return entries
