"""Deterministic synthetic sessions and exactly-recoverable corruption.

Sessions are reproducible from a seed (Mersenne Twister via
``random.Random``, whose integer methods are stable across platforms).
Corruption injects known amounts of each error kind in ways that cannot
interact, so scoring the corrupted output against the reference recovers
the injection ledger exactly rather than approximately:

* diarization errors are carved out of zones where they stay isolated --
  false alarms inside reference silence, missed speech and speaker errors
  inside single-speaker regions, every carved chunk at least 1 ms away
  from any other edit or boundary;
* text errors rely on the session text using pairwise-distinct characters
  and on replacement characters coming from a disjoint, reserved block.
  Substitution and deletion zones may be dense, but a computed run of
  untouched characters is kept between the deletion zone and the appended
  insertions so no cheaper alignment exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cpcer import concat_by_speaker
from .errors import InjectionError, ValidationError
from .formats import TimeInterval, TranscriptEntry
from .timeline import Diarization, joint_regions

__all__ = [
    "DiarizationLedger",
    "SynthSession",
    "TextLedger",
    "corrupt_diarization",
    "corrupt_text",
    "generate_session",
    "write_ledger",
]

# Session text is drawn without replacement from the unified CJK block;
# corruption characters come from the extension block so they can never
# collide with reference text.
_TEXT_POOL = (0x4E00, 0x9FFF)
_ALIEN_POOL = (0x3400, 0x4DBF)

_MS_PER_CHAR = 300


@dataclass(frozen=True)
class SynthSession:
    """Generated reference with its realized (not target) ratios."""

    diarization: Diarization
    transcript: tuple[TranscriptEntry, ...]
    realized_overlap: Fraction
    realized_silence: Fraction


@dataclass(frozen=True)
class DiarizationLedger:
    fa_ms: int
    miss_ms: int
    spkerr_ms: int


@dataclass(frozen=True)
class TextLedger:
    sub: int
    delete: int
    insert: int


def generate_session(
    speakers: int = 4,
    duration_ms: int = 120_000,
    overlap: float = 0.2,
    silence: float = 0.1,
    seed: int = 0,
    session: str = "S0001",
) -> SynthSession:
    """Generate a reference diarization plus per-turn transcript.

    overlap and silence are best-effort targets in [0, 1); the realized
    ratios are measured on the output and returned.  Each turn carries
    text of roughly one character per 300 ms, drawn without replacement
    so every character in the session is distinct.
    """
    if speakers < 1:
        raise ValidationError("at least one speaker required")
    if duration_ms <= 0:
        raise ValidationError("duration must be positive")
    if not (0 <= overlap < 1 and 0 <= silence < 1):
        raise ValidationError("overlap and silence targets must lie in [0, 1)")
    if speakers == 1 and overlap > 0:
        raise ValidationError("infeasible ratio combination: overlap needs >= 2 speakers")

    rng = random.Random(seed)
    pool = [chr(c) for c in range(_TEXT_POOL[0], _TEXT_POOL[1] + 1)]
    rng.shuffle(pool)
    pool_next = 0

    speaker_ids = [f"SPK{k + 1:02d}" for k in range(speakers)]
    turns: dict[str, list[TimeInterval]] = {}
    entries: list[TranscriptEntry] = []
    last_end = {s: -1 for s in speaker_ids}
    cursor = 0
    first = True
    prev_dur = 0
    while cursor < duration_ms:
        # all boundaries on a 10 ms grid so emitted RTTM times are exact
        dur = rng.randrange(600, 3010, 10)
        draw = rng.random()
        if first:
            start = 0
            first = False
        elif draw < silence:
            start = cursor + rng.randrange(150, 1200, 10)
        elif draw < silence + overlap and min(prev_dur, dur) > 110:
            start = cursor - rng.randrange(100, min(prev_dur, dur), 10)
        else:
            start = cursor
        # keep one turn per speaker per time range: a speaker still active
        # (or just finished) at `start` would merge with the new turn
        free = [s for s in speaker_ids if last_end[s] < start]
        if not free:
            start = cursor + 10
            free = [s for s in speaker_ids if last_end[s] < start]
        spk = rng.choice(free)
        n_chars = max(1, dur // _MS_PER_CHAR)
        if pool_next + n_chars > len(pool):
            raise ValidationError("session too long for the distinct-character text pool")
        text = "".join(pool[pool_next : pool_next + n_chars])
        pool_next += n_chars
        turns.setdefault(spk, []).append(TimeInterval(start, dur))
        entries.append(TranscriptEntry(speaker=spk, session=session, text=text, order_key=start))
        cursor = max(cursor, start + dur)
        last_end[spk] = start + dur
        prev_dur = dur

    diarization = Diarization(session, turns)
    realized_overlap, realized_silence = _realized_ratios(diarization)
    return SynthSession(
        diarization=diarization,
        transcript=tuple(entries),
        realized_overlap=realized_overlap,
        realized_silence=realized_silence,
    )


def _realized_ratios(d: Diarization) -> tuple[Fraction, Fraction]:
    extent = d.extent()
    if extent is None or extent.dur == 0:
        return Fraction(0), Fraction(0)
    union = 0
    multi = 0
    for interval, (active,) in joint_regions([d]):
        if active:
            union += interval.dur
        if len(active) >= 2:
            multi += interval.dur
    overlap = Fraction(multi, union) if union else Fraction(0)
    return overlap, Fraction(extent.dur - union, extent.dur)


def _carve(
    freelist: list[tuple[int, int, str | None]],
    need: int,
    kind: str,
    rng: random.Random,
    grid: int = 1,
):
    """Take non-adjacent chunks totalling `need` ms out of free spans.

    Chunks keep a one-grid-step guard to every span edge and to each other,
    so no injected edit can touch another edit or an existing boundary.
    With grid > 1 every chunk boundary lands on that grid (needed when the
    result must survive 2-decimal RTTM emission).

    Each chunk is cut from a span drawn uniformly among the usable ones, in
    freelist order, and the pieces left on either side go to the end of
    the freelist.  The usable spans are kept as a list in that order, so a
    carve costs one pass over the freelist plus one list pop per chunk.
    """
    spans = []  # (freelist index, glo, ghi) of each usable span, in freelist order
    taken = set()  # freelist indices of the spans cut

    def offer(k: int) -> None:
        lo, hi, _ = freelist[k]
        glo = -(-lo // grid) + 1  # first grid point inside, plus guard
        ghi = hi // grid - 1
        if ghi - glo >= 1:
            spans.append((k, glo, ghi))

    for k in range(len(freelist)):
        offer(k)
    chunks = []
    try:
        while need > 0:
            if not spans:
                raise InjectionError(f"insufficient placeable time for {need} ms of {kind}")
            k, glo, ghi = spans.pop(rng.randrange(len(spans)))
            taken.add(k)
            lo, hi, payload = freelist[k]
            usable = (ghi - glo) * grid
            length = min(need, usable)
            start = glo * grid + (rng.randrange(0, (usable - length) // grid + 1) * grid)
            chunks.append((start, length, payload))
            for seg in ((lo, start - grid, payload), (start + length + grid, hi, payload)):
                if seg[1] - seg[0] >= 3 * grid:
                    freelist.append(seg)
                    offer(len(freelist) - 1)
            need -= length
    finally:
        # leftovers were appended, so the indices held stable until now
        freelist[:] = [span for k, span in enumerate(freelist) if k not in taken]
    return chunks


def _subtract(intervals: Iterable[TimeInterval], cut_start: int, cut_end: int) -> list[TimeInterval]:
    out = []
    for iv in intervals:
        if iv.end <= cut_start or iv.start >= cut_end:
            out.append(iv)
            continue
        if iv.start < cut_start:
            out.append(TimeInterval(iv.start, cut_start - iv.start))
        if iv.end > cut_end:
            out.append(TimeInterval(cut_end, iv.end - cut_end))
    return out


def corrupt_diarization(
    ref: Diarization,
    fa_ms: int = 0,
    miss_ms: int = 0,
    spkerr_ms: int = 0,
    seed: int = 0,
    grid_ms: int = 1,
) -> tuple[Diarization, DiarizationLedger]:
    """Inject exact amounts of FA, MISS, and SPKERR into a copy of ref.

    False alarms are placed in reference silence (never touching speech),
    missed speech truncates single-speaker regions, and speaker errors
    relabel parts of single-speaker regions to another existing speaker.
    Chunks never touch each other, so scoring the result against ref
    measures back exactly the returned ledger.

    Set grid_ms=10 (and pass multiples of 10) when the result will be
    emitted as RTTM: 2-decimal seconds cannot express finer boundaries.
    """
    if grid_ms < 1:
        raise ValidationError(f"grid_ms must be positive: {grid_ms}")
    for name, value in (("fa_ms", fa_ms), ("miss_ms", miss_ms), ("spkerr_ms", spkerr_ms)):
        if value < 0:
            raise ValidationError(f"{name} must be non-negative")
        if value % grid_ms:
            raise ValidationError(f"{name}={value} is not a multiple of grid_ms={grid_ms}")
    if (miss_ms or spkerr_ms) and not ref.speaker_ids:
        raise InjectionError("reference has no speech to corrupt")
    if spkerr_ms and len(ref.speaker_ids) < 2:
        raise InjectionError("speaker errors need at least 2 reference speakers")

    rng = random.Random(seed)
    regions = joint_regions([ref])
    silent: list[tuple[int, int, str | None]] = []
    single: list[tuple[int, int, str | None]] = []
    for interval, (active,) in regions:
        if not active:
            silent.append((interval.start, interval.end, None))
        elif len(active) == 1:
            single.append((interval.start, interval.end, next(iter(active))))
    extent = ref.extent()
    if extent is not None:
        if extent.start > 0:
            silent.append((0, extent.start, None))
        # unbounded silence after the last turn: always enough room for FA
        tail_start = extent.end + 1000
        silent.append((tail_start, tail_start + fa_ms + 3 * grid_ms, None))

    hyp: dict[str, list[TimeInterval]] = {s: list(ivs) for s, ivs in ref.items()}
    for start, length, spk in _carve(single, miss_ms, "missed speech", rng, grid_ms):
        hyp[spk] = _subtract(hyp[spk], start, start + length)
    for start, length, spk in _carve(single, spkerr_ms, "speaker error", rng, grid_ms):
        hyp[spk] = _subtract(hyp[spk], start, start + length)
        wrong = rng.choice([s for s in sorted(ref.speaker_ids) if s != spk])
        hyp.setdefault(wrong, []).append(TimeInterval(start, length))
    fa_label = "FA"
    k = 2
    while fa_label in hyp:
        fa_label, k = f"FA.{k}", k + 1
    for start, length, _ in _carve(silent, fa_ms, "false alarm", rng, grid_ms):
        hyp.setdefault(fa_label, []).append(TimeInterval(start, length))

    return Diarization(ref.session, hyp), DiarizationLedger(fa_ms, miss_ms, spkerr_ms)


def _required_tail(deletions: int, insertions: int) -> int:
    # Untouched characters needed between the deletion zone and appended
    # insertions.  Realigning the deleted block positionally against
    # tail + insertions costs d + i + tail - min(d, i), so the tail must
    # strictly exceed min(d, i) for the injected alignment to stay the
    # unique minimum.
    if deletions == 0 or insertions == 0:
        return 0
    return min(deletions, insertions) + 1


def corrupt_text(
    entries: Iterable[TranscriptEntry], sub: int = 0, delete: int = 0, insert: int = 0, seed: int = 0
) -> tuple[list[TranscriptEntry], TextLedger]:
    """Corrupt per-speaker streams with exact substitution/deletion/insertion counts.

    Requires the session's normalized reference text to use pairwise
    distinct characters outside the reserved replacement block (as
    generate_session produces).  Output is one merged entry per speaker,
    the shape hypothesis transcripts are submitted in.
    """
    for name, value in (("sub", sub), ("delete", delete), ("insert", insert)):
        if value < 0:
            raise ValidationError(f"{name} must be non-negative")
    rng = random.Random(seed)
    speaker_text = concat_by_speaker(entries)
    session = speaker_text.session
    streams = dict(speaker_text.streams)
    all_chars = "".join(streams.values())
    if len(set(all_chars)) != len(all_chars):
        raise ValidationError("reference characters must be pairwise distinct for exact injection")
    if any(_ALIEN_POOL[0] <= ord(c) <= _ALIEN_POOL[1] for c in all_chars):
        raise ValidationError("reference text collides with the reserved replacement block")
    if sub + delete > len(all_chars):
        raise InjectionError("substitutions + deletions exceed the reference length")

    aliens = [chr(c) for c in range(_ALIEN_POOL[0], _ALIEN_POOL[1] + 1)]
    if sub + insert > len(aliens):
        raise InjectionError("not enough replacement characters available")
    rng.shuffle(aliens)
    alien_next = 0

    order = sorted(streams, key=lambda spk: (-len(streams[spk]), spk))
    quotas: dict[str, tuple[int, int, int]] = {}
    sub_left, del_left, ins_left = sub, delete, insert
    for spk in order:
        n = len(streams[spk])
        i_k = min(ins_left, max(0, n - 1))
        reserve = (i_k + 1) if i_k > 0 else 0
        budget = n - reserve
        d_k = min(del_left, budget)
        s_k = min(sub_left, budget - d_k)
        quotas[spk] = (s_k, d_k, i_k)
        sub_left -= s_k
        del_left -= d_k
        ins_left -= i_k
    if sub_left or del_left or ins_left:
        raise InjectionError(
            f"could not place all edits (left: {sub_left} sub, {del_left} del, {ins_left} ins)"
        )

    corrupted: list[TranscriptEntry] = []
    for index, spk in enumerate(sorted(streams)):
        text = streams[spk]
        s_k, d_k, i_k = quotas[spk]
        n = len(text)
        kept = n - s_k - d_k
        tail = _required_tail(d_k, i_k)
        if kept < tail:
            raise InjectionError(f"stream {spk!r} too short for the required untouched tail")
        prefix = rng.randrange(0, kept - tail + 1)
        mid = kept - tail - prefix
        subbed = "".join(aliens[alien_next : alien_next + s_k])
        alien_next += s_k
        inserted = "".join(aliens[alien_next : alien_next + i_k])
        alien_next += i_k
        # ref layout: [prefix][s_k substituted][mid][d_k deleted][tail]
        pos_mid = prefix + s_k
        pos_del = pos_mid + mid
        pos_tail = pos_del + d_k
        hyp_text = text[:prefix] + subbed + text[pos_mid:pos_del] + text[pos_tail:] + inserted
        corrupted.append(
            TranscriptEntry(speaker=spk, session=session, text=hyp_text, order_key=index)
        )
    return corrupted, TextLedger(sub=sub, delete=delete, insert=insert)


def write_ledger(
    diarization: DiarizationLedger | None = None, text: TextLedger | None = None
) -> str:
    """Serialize injection amounts, one ``kind<TAB>amount`` line per kind."""
    lines = []
    if diarization is not None:
        lines += [
            f"fa_ms\t{diarization.fa_ms}",
            f"miss_ms\t{diarization.miss_ms}",
            f"spkerr_ms\t{diarization.spkerr_ms}",
        ]
    if text is not None:
        lines += [f"sub\t{text.sub}", f"del\t{text.delete}", f"ins\t{text.insert}"]
    return "".join(line + "\n" for line in lines)
