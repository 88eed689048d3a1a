"""Concatenated minimum-permutation character error rate.

Merge each speaker's utterances chronologically into one stream per side,
then keep the pairing of reference and hypothesis streams with the lowest
total error.  Edit cost is additive over stream pairs, so the minimization
is a rectangular assignment problem, solved without aligning every pair:

1. bound: a cheap character-histogram lower bound stands in for each
   pair's edit distance (exact when the pair shares no character);
2. solve: find the tie-broken optimal assignment over those entries;
3. verify: align the pairs of that optimum whose entry is still a bound,
   write their exact distances in, and solve again, until the optimum
   uses exact entries only.

That optimum is the one the full distance matrix would give (see
``_histogram_bounds``).  A factorial brute-force mode over the full matrix
is kept as the oracle.

The denominator is always the total reference character count, regardless
of which assignment wins.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, repeat
from typing import Iterable, Mapping, Sequence

from .assignment import IntMatrix, SpeakerMap, _with_unmatched, lexsmallest_assignment
from .cer import CharSeq, EditCounts, edit_counts, edit_distance, normalize_text
from .errors import SessionMismatchError, ValidationError
from .formats import SpeakerTurn, TranscriptEntry

logger = logging.getLogger(__name__)

__all__ = [
    "CpcerResult",
    "SpeakerText",
    "aggregate_counts",
    "attach_order_from_rttm",
    "compute_cpcer",
    "concat_by_speaker",
]


@dataclass(frozen=True)
class SpeakerText:
    """One normalized character stream per speaker of a session."""

    session: str
    streams: Mapping[str, CharSeq]


def concat_by_speaker(
    entries: Iterable[TranscriptEntry],
    session: str | None = None,
    strip_punctuation: bool = True,
) -> SpeakerText:
    """Merge utterances per speaker in ascending order_key, then normalize.

    The sort is stable, so entries with equal keys keep input order; a
    duplicate (speaker, order_key) with different text is kept but warned
    about.  All entries must belong to one session.
    """
    entries = list(entries)
    for e in entries:
        if session is None:
            session = e.session
        elif e.session != session:
            raise SessionMismatchError(f"entry for session {e.session!r}, expected {session!r}")
    per_speaker: dict[str, list[TranscriptEntry]] = {}
    for e in entries:
        per_speaker.setdefault(e.speaker, []).append(e)
    streams = {}
    for spk in sorted(per_speaker):
        group = sorted(per_speaker[spk], key=lambda e: e.order_key)
        seen: dict[int, str] = {}
        for e in group:
            if e.order_key in seen and seen[e.order_key] != e.text:
                logger.warning(
                    "speaker %s has conflicting texts at order key %d; keeping both",
                    spk,
                    e.order_key,
                )
            seen[e.order_key] = e.text
        streams[spk] = normalize_text("".join(e.text for e in group), strip_punctuation)
    return SpeakerText(session=session or "", streams=streams)


def attach_order_from_rttm(
    entries: Iterable[TranscriptEntry], turns: Iterable[SpeakerTurn]
) -> list[TranscriptEntry]:
    """Check RTTM turn counts against the transcript; return the entries unchanged.

    Each (session, speaker) pair whose transcript entry count differs from
    its turn count is warned about, as ``_check_turn_counts`` does.  The
    transcript alone sets the order of each stream, so this cannot change
    any stream or score.
    """
    entries = list(entries)
    _check_turn_counts(Counter((e.session, e.speaker) for e in entries), turns)
    return entries


def _check_turn_counts(
    n_entries: Mapping[tuple[str, str], int], turns: Iterable[SpeakerTurn]
) -> None:
    """Warn about each (session, speaker) pair whose entry and turn counts differ.

    ``n_entries`` maps each pair to its transcript entry count, in order of
    first appearance.  The warnings name first the pairs with entries, in
    that order, then the pairs that only the RTTM holds, sorted.
    """
    n_turns = Counter((t.session, t.speaker) for t in turns)
    for key in [*n_entries, *sorted(n_turns.keys() - n_entries.keys())]:
        n = n_entries.get(key, 0)
        if n != n_turns[key]:
            logger.warning(
                "session %s speaker %s: %d transcript entries vs %d turns; keeping file order",
                key[0],
                key[1],
                n,
                n_turns[key],
            )


@dataclass(frozen=True)
class CpcerResult:
    """Winning assignment, summed edit counts, and the resulting rate."""

    assignment: SpeakerMap
    counts: EditCounts

    @property
    def cpcer(self) -> Fraction:
        return self.counts.cer


def _pad(names: Sequence[str], texts: Sequence[str], size: int) -> tuple[list[str | None], list[str]]:
    padded_names: list[str | None] = list(names) + [None] * (size - len(names))
    padded_texts = list(texts) + [""] * (size - len(texts))
    return padded_names, padded_texts


def _histogram_bounds(
    r_texts: Sequence[str], h_texts: Sequence[str]
) -> tuple[IntMatrix, set[tuple[int, int]]]:
    """Lower-bound every pair's edit distance; also return the inexact cells.

    For character histograms c_r and c_h the bound is
    max(|r|, |h|) - sum_c min(c_r[c], c_h[c]), which equals
    max(sum (c_r - c_h)+, sum (c_h - c_r)+): one edit removes at most one
    surplus and one deficit character.  With no character in common it is
    max(|r|, |h|), which is also an upper bound, so such a cell (an empty
    stream included) is exact; every other cell is returned as inexact.

    The assignment solver adds the same tie-break terms to any matrix and
    its tie-broken optimum is unique.  So an optimum over these entries
    that uses exact cells only has a true tie-broken total strictly below
    the bounded total of any other assignment, hence below that
    assignment's true total: it is the full matrix's optimum too.

    At most one histogram per side is alive at a time: a reference
    stream's for its row, and a hypothesis stream's for one cell, dropped
    when that cell is filled.  The common count walks the smaller of the
    two, so no key intersection is built.  Each histogram counts code
    points, not one-character strings: the counts are the same, and an
    int key takes under half the bytes of a one-character CJK string.
    """
    cost = IntMatrix(len(r_texts), len(h_texts))
    inexact = set()
    for i, rt in enumerate(r_texts):
        cr = Counter(map(ord, rt))
        for j, ht in enumerate(h_texts):
            common = _common_count(cr, ht)
            cost[i, j] = max(len(rt), len(ht)) - common
            if common:
                inexact.add((i, j))
    return cost, inexact


def _common_count(cr: Counter[int], text: str) -> int:
    """sum_c min(cr[c], c_text[c]) over code points c; c_text lives only in this call."""
    ch = Counter(map(ord, text))
    small, large = (cr, ch) if len(cr) <= len(ch) else (ch, cr)
    # summed at C level: no Python frame per key of the smaller histogram
    return sum(map(min, small.values(), map(large.get, small, repeat(0))))


def compute_cpcer(ref: SpeakerText, hyp: SpeakerText, mode: str = "assignment") -> CpcerResult:
    """Lowest CER over all pairings of reference and hypothesis streams.

    The smaller side is padded with empty streams: an unmatched reference
    stream costs its full length in deletions, an unmatched hypothesis
    stream its full length in insertions.  mode="brute-force" enumerates
    every bijection instead of solving the assignment problem; both modes
    break ties toward the lexicographically smallest pairing.  The
    assignment mode aligns only the pairs that some intermediate optimum
    uses (see the module docstring); brute-force aligns every pair.
    """
    if ref.session != hyp.session:
        raise SessionMismatchError(f"{ref.session!r} vs {hyp.session!r}")
    if mode not in ("assignment", "brute-force"):
        raise ValidationError(f"unknown mode: {mode!r}")
    ref_names = sorted(ref.streams)
    hyp_names = sorted(hyp.streams)
    size = max(len(ref_names), len(hyp_names))
    r_names, r_texts = _pad(ref_names, [ref.streams[s] for s in ref_names], size)
    h_names, h_texts = _pad(hyp_names, [hyp.streams[s] for s in hyp_names], size)
    if mode == "assignment":
        cost, inexact = _histogram_bounds(r_texts, h_texts)
        cols = lexsmallest_assignment(cost, maximize=False)
        while pending := [(i, j) for i, j in enumerate(cols) if (i, j) in inexact]:
            for i, j in pending:
                cost[i, j] = edit_distance(r_texts[i], h_texts[j])
                inexact.remove((i, j))
            cols = lexsmallest_assignment(cost, maximize=False)
    else:
        cost = IntMatrix(size, size)
        for i, rt in enumerate(r_texts):
            for j, ht in enumerate(h_texts):
                cost[i, j] = edit_distance(rt, ht)
        # min keeps the first of equal totals, and permutations come in
        # lexicographic order; permutations(range(0)) yields one empty tuple
        cols = min(
            permutations(range(size)),
            key=lambda perm: sum(cost[i, j] for i, j in enumerate(perm)),
        )
    counts = EditCounts(0, 0, 0, 0)
    pairs = []
    for i, j in enumerate(cols):
        counts = counts + edit_counts(r_texts[i], h_texts[j])
        if r_names[i] is not None and h_names[j] is not None:
            pairs.append((r_names[i], h_names[j]))
    assignment = _with_unmatched(sorted(pairs), ref_names, hyp_names)
    return CpcerResult(assignment=assignment, counts=counts)


def aggregate_counts(parts: Sequence[EditCounts]) -> EditCounts:
    """Corpus total: sum edit operations and reference lengths across sessions."""
    if not parts:
        raise ValidationError("nothing to aggregate")
    total = EditCounts(0, 0, 0, 0)
    for p in parts:
        total = total + p
    return total
