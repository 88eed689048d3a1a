"""Test-only helpers: random turns, a ledger reader, speech and character totals,
the tuple form of a Diarization's intervals, the all-histogram form of the
cpCER lower bounds, the per-character text normalization, the rescanning
form of the synth carver, the per-entry form of ``score-cpcer`` and a
traced memory peak."""

from __future__ import annotations

import random
import tracemalloc
import unicodedata
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from diarscore import cli
from diarscore.cer import PUNCTUATION
from diarscore.cpcer import (
    SpeakerText,
    aggregate_counts,
    attach_order_from_rttm,
    compute_cpcer,
    concat_by_speaker,
)
from diarscore.errors import InjectionError, ValidationError
from diarscore.formats import SpeakerTurn, TimeInterval, TranscriptEntry, parse_transcript
from diarscore.timeline import Diarization

T = TypeVar("T")


def random_turn_list(seed: int, max_sessions: int = 3, max_turns: int = 30) -> list[SpeakerTurn]:
    """Random validated turns with 2-decimal-expressible times, emit-ordered."""
    rng = random.Random(seed)
    turns = []
    for s in range(rng.randint(1, max_sessions)):
        session = f"S{s + 1:03d}"
        for _ in range(rng.randint(1, max_turns)):
            start = rng.randrange(0, 3_600_000, 10)
            dur = rng.randrange(10, 12_000, 10)
            speaker = f"SPK{rng.randint(1, 6):02d}"
            turns.append(SpeakerTurn(session, "1", speaker, TimeInterval(start, dur)))
    return sorted(turns, key=lambda t: (t.session, t.interval.start, t.speaker))


def parse_ledger(lines: Iterable[str]) -> dict[str, int]:
    """The amounts of a ``kind<TAB>amount`` ledger, as written by ``write_ledger``."""
    amounts = {}
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        kind, _, value = line.partition("\t")
        amounts[kind] = int(value)
    return amounts


def total_speech(d: Diarization) -> int:
    """Sum of all speakers' speech durations in ms (overlap counted per speaker)."""
    return sum(iv.dur for _, ivs in d.items() for iv in ivs)


def total_chars(text: SpeakerText) -> int:
    """Sum of the lengths of all speakers' normalized character streams."""
    return sum(len(t) for t in text.streams.values())


def normalize_oracle(intervals: Iterable[tuple[int, int]]) -> tuple[TimeInterval, ...]:
    """A speaker's intervals as ``Diarization`` first held them: a sorted, merged tuple."""
    parsed = [iv if isinstance(iv, TimeInterval) else TimeInterval(*iv) for iv in intervals]
    for iv in parsed:
        if iv.start < 0:
            raise ValidationError(f"negative interval start: {iv}")
        if iv.dur <= 0:
            raise ValidationError(f"non-positive interval duration: {iv}")
    parsed.sort()
    merged: list[TimeInterval] = []
    end = -1
    for iv in parsed:
        start, dur = iv
        if start > end:
            merged.append(iv)
            end = start + dur
        elif start + dur > end:
            end = start + dur
            merged[-1] = TimeInterval(merged[-1].start, end - merged[-1].start)
    return tuple(merged)


def diarization_oracle(
    speakers: Mapping[str, Iterable[tuple[int, int]]]
) -> dict[str, tuple[TimeInterval, ...]]:
    """Speaker -> ``normalize_oracle`` tuple, in speaker order, empty speakers dropped."""
    normalized = {spk: normalize_oracle(speakers[spk]) for spk in sorted(speakers)}
    return {spk: ivs for spk, ivs in normalized.items() if ivs}


def histogram_bounds_oracle(
    r_texts: Sequence[str], h_texts: Sequence[str]
) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """``cpcer._histogram_bounds`` as first written: every histogram built up front.

    The cost rows and the inexact cells, from one Counter per stream and
    the key intersection of each pair.
    """
    r_hists = [Counter(t) for t in r_texts]
    h_hists = [Counter(t) for t in h_texts]
    cost = []
    inexact = set()
    for i, (rt, cr) in enumerate(zip(r_texts, r_hists)):
        row = []
        for j, (ht, ch) in enumerate(zip(h_texts, h_hists)):
            common = sum(min(cr[c], ch[c]) for c in cr.keys() & ch.keys())
            row.append(max(len(rt), len(ht)) - common)
            if common:
                inexact.add((i, j))
        cost.append(row)
    return cost, inexact


def normalize_text_oracle(raw: str, strip_punctuation: bool = True) -> str:
    """``cer.normalize_text`` as first written: one generator step per character."""
    if not raw.isprintable():
        raw = "".join(ch for ch in raw if unicodedata.category(ch) != "Cf")
    text = unicodedata.normalize("NFC", raw)
    return "".join(
        ch for ch in text if not ch.isspace() and not (strip_punctuation and ch in PUNCTUATION)
    )


def carve_oracle(
    freelist: list[tuple[int, int, str | None]],
    need: int,
    kind: str,
    rng: random.Random,
    grid: int = 1,
) -> list[tuple[int, int, str | None]]:
    """``synth._carve`` as first written: every chunk rescans the whole freelist."""
    chunks = []
    while need > 0:
        usable_of = {}
        for k, (lo, hi, _) in enumerate(freelist):
            glo = -(-lo // grid) + 1
            ghi = hi // grid - 1
            if ghi - glo >= 1:
                usable_of[k] = (glo, ghi)
        if not usable_of:
            raise InjectionError(f"insufficient placeable time for {need} ms of {kind}")
        k = sorted(usable_of)[rng.randrange(len(usable_of))]
        lo, hi, payload = freelist.pop(k)
        glo, ghi = usable_of[k]
        usable = (ghi - glo) * grid
        length = min(need, usable)
        start = glo * grid + (rng.randrange(0, (usable - length) // grid + 1) * grid)
        chunks.append((start, length, payload))
        for seg in ((lo, start - grid, payload), (start + length + grid, hi, payload)):
            if seg[1] - seg[0] >= 3 * grid:
                freelist.append(seg)
        need -= length
    return chunks


def score_cpcer_oracle(args) -> int:
    """``score-cpcer`` as first written: every line kept as an entry until scored.

    Both transcripts are parsed into entry lists, grouped per session, and
    each session's streams are built by ``concat_by_speaker``; the report
    is the CLI's own.
    """
    ref_entries = cli._parse_file(parse_transcript, args.ref_trn)
    hyp_entries = cli._parse_file(parse_transcript, args.hyp_trn)
    if args.ref_rttm:
        ref_entries = attach_order_from_rttm(ref_entries, cli._rttm_stream(args.ref_rttm))
    refs: dict[str, list[TranscriptEntry]] = {}
    hyps: dict[str, list[TranscriptEntry]] = {}
    for entries, sessions in ((ref_entries, refs), (hyp_entries, hyps)):
        for e in entries:
            sessions.setdefault(e.session, []).append(e)
    strip = not args.keep_punctuation
    mode = "brute-force" if args.brute_force else "assignment"

    def score(session, ref, hyp):
        ref_st = concat_by_speaker(ref, session=session, strip_punctuation=strip)
        hyp_st = concat_by_speaker(hyp, session=session, strip_punctuation=strip)
        return compute_cpcer(ref_st, hyp_st, mode=mode).counts

    return cli._report_scores(
        args,
        [f"punctuation: {'kept' if args.keep_punctuation else 'stripped'}", f"assignment: {mode}"],
        refs,
        hyps,
        score,
        aggregate_counts,
        ["S", "D", "I", "cpCER"],
        lambda c: (c.rate("s"), c.rate("d"), c.rate("i"), c.cer),
    )


def traced_peak(fn: Callable[..., T], *args) -> tuple[T, int]:
    """fn(*args) and the peak of the memory tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
