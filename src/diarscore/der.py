"""Diarization error rate: FA + MISS + SPKERR over total reference speech.

Scoring is overlap-aware and collar-free: every region of the tiling is
scored with its full active-speaker counts.  The reference-to-hypothesis
speaker mapping maximizes total paired overlap; a factorial brute-force
route over all injective maps is kept as an independent oracle.

All durations are integer milliseconds and the rate is an exact Fraction,
so component sums are identities rather than float approximations.  Every
session is scored to its counts, one without reference speech included;
only its rates (``DerBreakdown.der`` and ``.rate``) are undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Sequence

from .assignment import IntMatrix, SpeakerMap, _with_unmatched, lexsmallest_assignment
from .errors import UndefinedMetricError, ValidationError
from .timeline import (
    Diarization,
    _activity_totals,
    _ActivityTotals,
    _overlap,
    build_regions,
    pairwise_overlap,
)

__all__ = [
    "DerBreakdown",
    "SpeakerMap",
    "aggregate_der",
    "brute_force_der",
    "compute_der",
    "optimal_speaker_map",
    "score_der",
]


@dataclass(frozen=True)
class DerBreakdown:
    """FA/MISS/SPKERR durations (ms), total reference speech, and the rate.

    The rates raise UndefinedMetricError when total is 0.
    """

    fa: int
    miss: int
    spkerr: int
    total: int

    def __post_init__(self):
        for name in ("fa", "miss", "spkerr", "total"):
            if getattr(self, name) < 0:
                raise ValidationError(f"negative duration component: {name}")

    @property
    def der(self) -> Fraction:
        if self.total == 0:
            raise UndefinedMetricError("no reference speech: DER undefined")
        return Fraction(self.fa + self.miss + self.spkerr, self.total)

    def rate(self, component: str) -> Fraction:
        """Component duration as a fraction of total reference speech."""
        if self.total == 0:
            raise UndefinedMetricError("no reference speech: rate undefined")
        return Fraction(getattr(self, component), self.total)


def optimal_speaker_map(ref: Diarization, hyp: Diarization) -> SpeakerMap:
    """Injective map maximizing total paired overlap duration.

    Speakers whose best pairing would add zero overlap are left unmatched.
    Ties between equally good assignments are broken lexicographically by
    (ref id, hyp id).
    """
    return _speaker_map(pairwise_overlap(ref, hyp), ref, hyp)


def _speaker_map(
    overlap: dict[tuple[str, str], int], ref: Diarization, hyp: Diarization
) -> SpeakerMap:
    refs = sorted(ref.speaker_ids)
    hyps = sorted(hyp.speaker_ids)
    n = max(len(refs), len(hyps))
    if n == 0:
        return SpeakerMap(pairs=(), unmatched_ref=(), unmatched_hyp=())
    matrix = IntMatrix(n, n)
    for i, r in enumerate(refs):
        for j, h in enumerate(hyps):
            matrix[i, j] = overlap[(r, h)]
    cols = lexsmallest_assignment(matrix, maximize=True)
    pairs = []
    for i, r in enumerate(refs):
        j = cols[i]
        if j < len(hyps) and matrix[i, j] > 0:
            pairs.append((r, hyps[j]))
    return _with_unmatched(pairs, refs, hyps)


def _breakdown(totals: _ActivityTotals, pairs: Iterable[tuple[str, str]]) -> DerBreakdown:
    pair_list = list(pairs)
    fa = miss = spkerr = total = 0
    for (ref_active, hyp_active), dur in totals.items():
        n_ref = len(ref_active)
        n_hyp = len(hyp_active)
        n_correct = sum(1 for r, h in pair_list if r in ref_active and h in hyp_active)
        total += dur * n_ref
        miss += dur * max(0, n_ref - n_hyp)
        fa += dur * max(0, n_hyp - n_ref)
        spkerr += dur * (min(n_ref, n_hyp) - n_correct)
    return DerBreakdown(fa=fa, miss=miss, spkerr=spkerr, total=total)


def compute_der(ref: Diarization, hyp: Diarization, speaker_map: SpeakerMap) -> DerBreakdown:
    """Score a hypothesis against a reference under a fixed speaker map.

    Per region with n_ref/n_hyp active speakers and n_correct matched pairs
    active on both sides:

        MISS   += dur * max(0, n_ref - n_hyp)
        FA     += dur * max(0, n_hyp - n_ref)
        SPKERR += dur * (min(n_ref, n_hyp) - n_correct)
        TOTAL  += dur * n_ref
    """
    totals = _activity_totals(build_regions(ref, hyp))
    return _breakdown(totals, speaker_map.pairs)


def score_der(ref: Diarization, hyp: Diarization) -> tuple[SpeakerMap, DerBreakdown]:
    """The optimal speaker map and the DER under it, from one region tiling.

    Equal to ``(m, compute_der(ref, hyp, m))`` with ``m =
    optimal_speaker_map(ref, hyp)``, in the shape brute_force_der returns,
    but the session is tiled once instead of twice.
    """
    totals = _activity_totals(build_regions(ref, hyp))
    speaker_map = _speaker_map(_overlap(totals, ref, hyp), ref, hyp)
    return speaker_map, _breakdown(totals, speaker_map.pairs)


def brute_force_der(ref: Diarization, hyp: Diarization) -> tuple[SpeakerMap, DerBreakdown]:
    """Minimum DER over every injective speaker map, by exhaustive enumeration.

    Enumerates all full matchings of the smaller speaker set (adding a pair
    never increases DER, so partial maps are dominated).  Factorial cost:
    intended as the oracle route for small sessions, enabled in the CLI via
    --brute-force.
    """
    totals = _activity_totals(build_regions(ref, hyp))
    refs = sorted(ref.speaker_ids)
    hyps = sorted(hyp.speaker_ids)
    if len(refs) <= len(hyps):
        candidates = (tuple(zip(refs, combo)) for combo in permutations(hyps, len(refs)))
    else:
        candidates = (
            tuple(zip(combo, hyps)) for combo in permutations(refs, len(hyps))
        )
    # min keeps the first of equal totals; permutations yields at least one
    # tuple, the empty one when a side has no speakers
    breakdown, pairs = min(
        ((_breakdown(totals, pairs), pairs) for pairs in candidates),
        key=lambda found: found[0].fa + found[0].miss + found[0].spkerr,
    )
    overlap = _overlap(totals, ref, hyp)
    kept = sorted((r, h) for r, h in pairs if overlap[(r, h)] > 0)
    return _with_unmatched(kept, refs, hyps), breakdown


def aggregate_der(parts: Sequence[DerBreakdown]) -> DerBreakdown:
    """Duration-weighted corpus total: sum components, recompute the rate."""
    if not parts:
        raise ValidationError("nothing to aggregate")
    return DerBreakdown(
        fa=sum(p.fa for p in parts),
        miss=sum(p.miss for p in parts),
        spkerr=sum(p.spkerr for p in parts),
        total=sum(p.total for p in parts),
    )
