"""Piecewise-constant timeline algebra over speaker turns.

A Diarization maps each speaker to disjoint, sorted speech intervals; the
region tiling cuts one or more diarizations of a session at every interval
boundary so that active-speaker sets are constant within each region.  All
interval arithmetic is closed-open [start, start + dur) on integer
milliseconds, so regions tile the span exactly with no double counting.
``by_session`` is the one grouper of SpeakerTurns into Diarizations: a
parsed list and the CLI's stream of turns both go through it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import SessionMismatchError, ValidationError
from .formats import SpeakerTurn, TimeInterval, check_id

__all__ = [
    "Diarization",
    "PairedRegion",
    "by_session",
    "build_regions",
    "joint_regions",
    "pairwise_overlap",
]


def _normalize(intervals: Iterable[TimeInterval | tuple[int, int]]) -> tuple[TimeInterval, ...]:
    parsed = [iv if isinstance(iv, TimeInterval) else TimeInterval(*iv) for iv in intervals]
    for iv in parsed:
        if iv.start < 0:
            raise ValidationError(f"negative interval start: {iv}")
        if iv.dur <= 0:
            raise ValidationError(f"non-positive interval duration: {iv}")
    parsed.sort()
    merged: list[TimeInterval] = []
    end = -1  # end of the last merged interval; starts are never negative
    for iv in parsed:
        start, dur = iv
        if start > end:
            merged.append(iv)  # an interval that merges with nothing is kept as is
            end = start + dur
        elif start + dur > end:
            # merge overlapping or touching intervals of the same speaker
            end = start + dur
            merged[-1] = TimeInterval(merged[-1].start, end - merged[-1].start)
    return tuple(merged)


class Diarization:
    """Per-session map of speaker id -> disjoint sorted speech intervals."""

    def __init__(self, session: str, speakers: Mapping[str, Iterable[TimeInterval | tuple[int, int]]]):
        check_id("session", session)
        self.session = session
        normalized = {}
        for spk in sorted(speakers):
            check_id("speaker id", spk)
            intervals = _normalize(speakers[spk])
            if intervals:
                normalized[spk] = intervals
        self._speakers = normalized

    @property
    def speaker_ids(self) -> tuple[str, ...]:
        return tuple(self._speakers)

    def intervals(self, speaker: str) -> tuple[TimeInterval, ...]:
        return self._speakers[speaker]

    def items(self):
        return self._speakers.items()

    def extent(self) -> TimeInterval | None:
        """Smallest interval covering all speech, or None when empty."""
        if not self._speakers:
            return None
        start = min(ivs[0].start for ivs in self._speakers.values())
        end = max(ivs[-1].end for ivs in self._speakers.values())
        return TimeInterval(start, end - start)

    def relabel(self, mapping: Mapping[str, str]) -> "Diarization":
        """Rename speakers; ids absent from the mapping are kept as-is."""
        renamed: dict[str, list[TimeInterval]] = {}
        for spk, ivs in self._speakers.items():
            renamed.setdefault(mapping.get(spk, spk), []).extend(ivs)
        return Diarization(self.session, renamed)

    def merged_with(self, other: "Diarization") -> "Diarization":
        """Per-speaker union of two diarizations of the same session."""
        if other.session != self.session:
            raise SessionMismatchError(f"{self.session!r} vs {other.session!r}")
        combined: dict[str, list[TimeInterval]] = {s: list(ivs) for s, ivs in self._speakers.items()}
        for spk, ivs in other.items():
            combined.setdefault(spk, []).extend(ivs)
        return Diarization(self.session, combined)

    def to_turns(self) -> list[SpeakerTurn]:
        """One SpeakerTurn per interval, all on channel "1"."""
        return [
            SpeakerTurn(session=self.session, channel="1", speaker=spk, interval=iv)
            for spk, ivs in self._speakers.items()
            for iv in ivs
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diarization):
            return NotImplemented
        return self.session == other.session and self._speakers == other._speakers

    def __repr__(self) -> str:
        return f"Diarization({self.session!r}, {len(self._speakers)} speakers)"


def by_session(turns: Iterable[SpeakerTurn]) -> dict[str, Diarization]:
    """Group turns into one Diarization per session, in session order;
    channels are not kept."""
    sessions: dict[str, dict[str, list[TimeInterval]]] = {}
    for session, _, speaker, interval in turns:
        speakers = sessions.get(session)
        if speakers is None:
            speakers = sessions[session] = {}
        intervals = speakers.get(speaker)
        if intervals is None:
            intervals = speakers[speaker] = []
        intervals.append(interval)
    return {s: Diarization(s, speakers) for s, speakers in sorted(sessions.items())}


# total ms of each distinct (ref active set, hyp active set) of a tiling
_ActivityTotals = dict[tuple[frozenset[str], frozenset[str]], int]


class PairedRegion(NamedTuple):
    """A region of constant activity in a (reference, hypothesis) pair."""

    interval: TimeInterval
    ref_active: frozenset[str]
    hyp_active: frozenset[str]


def joint_regions(
    diarizations: Sequence[Diarization],
) -> list[tuple[TimeInterval, tuple[frozenset[str], ...]]]:
    """Tile the union of all extents into regions of constant activity.

    Boundaries are collected from every interval of every input; each region
    between consecutive boundaries carries one active-speaker set per input.

    Each (input, speaker) pair owns one bit of a joint activity state, and a
    boundary flips the bits of the intervals that start or end there.  The
    tuple of active sets is built the first time its state occurs and shared
    by every later region in that state; an input's frozenset is likewise
    built once per distinct set of its own active speakers.
    """
    if not diarizations:
        return []
    session = diarizations[0].session
    flips: dict[int, int] = {}
    names: list[str] = []  # bit k of a state stands for speaker names[k]
    owned: list[int] = []  # the bits of each input
    for d in diarizations:
        if d.session != session:
            raise SessionMismatchError(f"{session!r} vs {d.session!r}")
        bits = 0
        for spk, ivs in d.items():
            bit = 1 << len(names)
            names.append(spk)
            bits |= bit
            for iv in ivs:
                flips[iv.start] = flips.get(iv.start, 0) ^ bit
                flips[iv.end] = flips.get(iv.end, 0) ^ bit
        owned.append(bits)
    frozen: dict[int, frozenset[str]] = {}  # one input's bits -> its active set
    actives: dict[int, tuple[frozenset[str], ...]] = {}  # joint state -> active sets

    def active_sets(state: int) -> tuple[frozenset[str], ...]:
        sets = []
        for bits in owned:
            mine = state & bits
            if mine not in frozen:
                frozen[mine] = frozenset(
                    names[k] for k in range(mine.bit_length()) if mine >> k & 1
                )
            sets.append(frozen[mine])
        return tuple(sets)

    times = sorted(flips)
    state = 0
    regions = []
    for t, t_next in zip(times, times[1:]):
        state ^= flips[t]
        act = actives.get(state)
        if act is None:
            act = actives[state] = active_sets(state)
        regions.append((TimeInterval(t, t_next - t), act))
    return regions


def build_regions(ref: Diarization, hyp: Diarization) -> list[PairedRegion]:
    """Region tiling of a (reference, hypothesis) pair of the same session."""
    return [PairedRegion(iv, act[0], act[1]) for iv, act in joint_regions([ref, hyp])]


def pairwise_overlap(ref: Diarization, hyp: Diarization) -> dict[tuple[str, str], int]:
    """Total ms each (ref speaker, hyp speaker) pair is simultaneously active.

    Returns a complete matrix as a dict: every pair from the two speaker sets
    is present, zeros included.
    """
    return _overlap(_activity_totals(build_regions(ref, hyp)), ref, hyp)


def _activity_totals(regions: Iterable[PairedRegion]) -> _ActivityTotals:
    """Total ms of each distinct (ref active set, hyp active set) of a tiling.

    Every per-region sum over a tiling (overlap, DER components) is linear
    in the duration, so it can be taken over these totals instead, exactly.
    """
    totals: _ActivityTotals = {}
    for interval, ref_active, hyp_active in regions:
        key = (ref_active, hyp_active)
        totals[key] = totals.get(key, 0) + interval.dur
    return totals


def _overlap(
    totals: _ActivityTotals, ref: Diarization, hyp: Diarization
) -> dict[tuple[str, str], int]:
    """The pairwise_overlap matrix, from the activity totals of its tiling."""
    overlap = {(r, h): 0 for r in ref.speaker_ids for h in hyp.speaker_ids}
    for (ref_active, hyp_active), dur in totals.items():
        for r in ref_active:
            for h in hyp_active:
                overlap[(r, h)] += dur
    return overlap
