"""Piecewise-constant timeline algebra over speaker turns.

A Diarization maps each speaker to disjoint, sorted speech intervals; the
region tiling cuts one or more diarizations of a session at every interval
boundary so that active-speaker sets are constant within each region.  Each
region is (interval, tuple of one active set per input): the one shape that
the DER routes (through ``build_regions``) and ``fusion`` read.  All
interval arithmetic is closed-open [start, start + dur) on integer
milliseconds, so regions tile the span exactly with no double counting.
``by_session`` is the one grouper of SpeakerTurns into Diarizations: a
parsed list and the CLI's stream of turns both go through it.

A Diarization stores each speaker's intervals packed: one ``array('q')``
of start, dur, start, dur, ... in milliseconds, 16 bytes per interval
where a tuple of TimeIntervals takes 144.  The tiling and the speaker
map read these arrays; a speaker's tuple of TimeIntervals is built the
first time ``intervals`` or ``items`` asks for it, and then kept.  So
every interval must end by 2**63 - 1 ms; ``formats.check_interval``
refuses one that ends later, as it does a negative start or a
non-positive duration.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import add, lt
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SessionMismatchError, ValidationError
from .formats import MAX_END_MS, SpeakerTurn, TimeInterval, check_id, check_interval

__all__ = [
    "Diarization",
    "by_session",
    "build_regions",
    "joint_regions",
    "pairwise_overlap",
]

# tuple.__new__ skips the Python-level __new__ of a NamedTuple, which would
# double the cost of each TimeInterval and SpeakerTurn built from the arrays
_new_tuple = tuple.__new__


def _pack(intervals: Iterable[TimeInterval | tuple[int, int]] | array) -> array:
    """One speaker's intervals, sorted, merged and packed as (start, dur) pairs.

    An ``array('q')`` holds the pairs flat.  One that is already sorted with
    a gap between neighbours is checked at C level and copied as it is;
    any other input is sorted and merged by ``_normalize``.
    """
    if isinstance(intervals, array):
        if intervals.typecode != "q" or len(intervals) % 2:
            raise ValidationError("a packed interval array holds 'q' (start, dur) pairs")
        starts, durs = intervals[0::2], intervals[1::2]
        if not starts or (
            starts[0] >= 0
            and min(durs) > 0
            and starts[-1] + durs[-1] <= MAX_END_MS
            and all(map(lt, map(add, starts, durs), starts[1:]))
        ):
            return intervals[:]
        return _normalize(list(zip(starts, durs)))
    return _normalize(list(intervals))


def _normalize(pairs: list[tuple[int, int]]) -> array:
    """Check, sort and merge (start, dur) pairs into one packed array."""
    for start, dur in pairs:
        check_interval(start, dur)
    pairs.sort()
    merged: list[int] = []  # start, dur, start, dur, ...
    end = -1  # end of the last merged interval; starts are never negative
    for start, dur in pairs:
        if start > end:
            merged += (start, dur)
            end = start + dur
        elif start + dur > end:
            # merge overlapping or touching intervals of the same speaker
            end = start + dur
            merged[-1] = end - merged[-2]
    return array("q", merged)


def _time_intervals(packed: array) -> Iterator[TimeInterval]:
    """The TimeIntervals of packed (start, dur) pairs, built one at a time."""
    return map(_new_tuple, repeat(TimeInterval), zip(packed[0::2], packed[1::2]))


class Diarization:
    """Per-session map of speaker id -> disjoint sorted speech intervals.

    Each speaker's intervals are held as packed (start, dur) pairs; its
    tuple of TimeIntervals is built on first request and kept.
    """

    def __init__(
        self,
        session: str,
        speakers: Mapping[str, Iterable[TimeInterval | tuple[int, int]] | array],
    ):
        check_id("session", session)
        self.session = session
        packed = {}
        for spk in sorted(speakers):
            check_id("speaker id", spk)
            intervals = _pack(speakers[spk])
            if intervals:
                packed[spk] = intervals
        self._packed = packed
        self._tuples: dict[str, tuple[TimeInterval, ...]] = {}

    @property
    def speaker_ids(self) -> tuple[str, ...]:
        return tuple(self._packed)

    def intervals(self, speaker: str) -> tuple[TimeInterval, ...]:
        intervals = self._tuples.get(speaker)
        if intervals is None:
            intervals = self._tuples[speaker] = tuple(_time_intervals(self._packed[speaker]))
        return intervals

    def items(self):
        return {spk: self.intervals(spk) for spk in self._packed}.items()

    def extent(self) -> TimeInterval | None:
        """Smallest interval covering all speech, or None when empty."""
        if not self._packed:
            return None
        start = min(packed[0] for packed in self._packed.values())
        end = max(packed[-2] + packed[-1] for packed in self._packed.values())
        return TimeInterval(start, end - start)

    def relabel(self, mapping: Mapping[str, str]) -> "Diarization":
        """Rename speakers; ids absent from the mapping are kept as-is."""
        renamed: dict[str, array] = {}
        for spk, packed in self._packed.items():
            new = mapping.get(spk, spk)
            renamed[new] = renamed[new] + packed if new in renamed else packed
        return Diarization(self.session, renamed)

    def merged_with(self, other: "Diarization") -> "Diarization":
        """Per-speaker union of two diarizations of the same session."""
        if other.session != self.session:
            raise SessionMismatchError(f"{self.session!r} vs {other.session!r}")
        combined = dict(self._packed)
        for spk, packed in other._packed.items():
            combined[spk] = combined[spk] + packed if spk in combined else packed
        return Diarization(self.session, combined)

    def to_turns(self) -> list[SpeakerTurn]:
        """One SpeakerTurn per interval, all on channel "1"."""
        return [
            _new_tuple(SpeakerTurn, (self.session, "1", spk, iv))
            for spk, packed in self._packed.items()
            for iv in _time_intervals(packed)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diarization):
            return NotImplemented
        return self.session == other.session and self._packed == other._packed

    def __repr__(self) -> str:
        return f"Diarization({self.session!r}, {len(self._packed)} speakers)"


def by_session(turns: Iterable[SpeakerTurn]) -> dict[str, Diarization]:
    """Group turns into one Diarization per session, in session order;
    channels are not kept.

    Each (session, speaker) gets one packed array as the turns arrive, so
    no TimeInterval is kept past its turn.
    """
    sessions: dict[str, dict[str, array]] = {}
    for session, _, speaker, (start, dur) in turns:
        speakers = sessions.get(session)
        if speakers is None:
            speakers = sessions[session] = {}
        packed = speakers.get(speaker)
        if packed is None:
            packed = speakers[speaker] = array("q")
        try:
            packed.append(start)
            packed.append(dur)
        except OverflowError:  # past int64: refused with the reason check_interval gives
            check_interval(start, dur)
            raise
    # each session's arrays are dropped once its Diarization holds its copies
    return {s: Diarization(s, sessions.pop(s)) for s in sorted(sessions)}


# total ms of each distinct (ref active set, hyp active set) of a tiling
_ActivityTotals = dict[tuple[frozenset[str], frozenset[str]], int]
# a region of a tiling: its interval and one active-speaker set per input
_Region = tuple[TimeInterval, tuple[frozenset[str], ...]]


def joint_regions(diarizations: Sequence[Diarization]) -> list[_Region]:
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
        for spk, packed in d._packed.items():
            bit = 1 << len(names)
            names.append(spk)
            bits |= bit
            starts = packed[0::2]
            for start, end in zip(starts, map(add, starts, packed[1::2])):
                flips[start] = flips.get(start, 0) ^ bit
                flips[end] = flips.get(end, 0) ^ bit
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


def build_regions(ref: Diarization, hyp: Diarization) -> list[_Region]:
    """Region tiling of a (reference, hypothesis) pair of the same session.

    It is ``joint_regions([ref, hyp])``: each region is
    ``(interval, (ref_active, hyp_active))``.
    """
    return joint_regions([ref, hyp])


def pairwise_overlap(ref: Diarization, hyp: Diarization) -> dict[tuple[str, str], int]:
    """Total ms each (ref speaker, hyp speaker) pair is simultaneously active.

    Returns a complete matrix as a dict: every pair from the two speaker sets
    is present, zeros included.
    """
    return _overlap(_activity_totals(build_regions(ref, hyp)), ref, hyp)


def _activity_totals(regions: Iterable[_Region]) -> _ActivityTotals:
    """Total ms of each distinct (ref active set, hyp active set) of a tiling.

    Every per-region sum over a tiling (overlap, DER components) is linear
    in the duration, so it can be taken over these totals instead, exactly.
    """
    totals: _ActivityTotals = {}
    for interval, key in regions:
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
