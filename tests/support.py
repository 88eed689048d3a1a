"""Test-only helpers: random turns, a ledger reader, a speech and a character total."""

from __future__ import annotations

import random
from typing import Iterable

from diarscore.cpcer import SpeakerText
from diarscore.formats import SpeakerTurn, TimeInterval
from diarscore.timeline import Diarization


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
