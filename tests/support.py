"""Test-only helpers: random turns, a ledger reader, speech and character totals,
the tuple form of a Diarization's intervals, the all-histogram form of the
cpCER lower bounds and a traced memory peak."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from diarscore.cpcer import SpeakerText
from diarscore.errors import ValidationError
from diarscore.formats import SpeakerTurn, TimeInterval
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


def traced_peak(fn: Callable[..., T], *args) -> tuple[T, int]:
    """fn(*args) and the peak of the memory tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
