"""Overlap-aware label voting across multiple diarization estimates.

Channels are harmonized sequentially: each input is relabeled against the
union of everything merged so far (the first input seeds the label space).
Over the joint region tiling, each label's vote is the weight sum of the
channels where it is active; the expected concurrent-speaker count is the
weighted mean of the channels' active counts, rounded half-up, and that
many top-voted labels win the region (the weighted-mean rule of DOVER-Lap,
Raj et al., SLT 2021).  The weights are scaled to the smallest positive
integers with the same ratios, so every vote and the rounding are integer
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .der import optimal_speaker_map
from .errors import ValidationError
from .formats import TimeInterval
from .timeline import Diarization, joint_regions

__all__ = ["fuse_channels", "relabel_to_reference"]


def _fresh_label(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}.{k}" in taken:
        k += 1
    return f"{base}.{k}"


def relabel_to_reference(base: Diarization, other: Diarization) -> Diarization:
    """Rename other's speakers to base's via the maximum-overlap assignment.

    Unmatched speakers keep their own id when it does not collide with
    base's label space, else get a numbered variant.
    """
    smap = optimal_speaker_map(base, other)
    mapping = {h: r for r, h in smap.pairs}
    taken = set(base.speaker_ids) | set(mapping.values())
    for spk in sorted(other.speaker_ids):
        if spk not in mapping:
            fresh = _fresh_label(spk, taken)
            mapping[spk] = fresh
            taken.add(fresh)
    return other.relabel(mapping)


def fuse_channels(
    inputs: Sequence[Diarization], weights: Sequence[Fraction | int | float | str] | None = None
) -> Diarization:
    """Fuse channel-wise diarization estimates of one session into one.

    weights default to equal, must all be positive and count only by their
    ratios.  A weight is anything ``Fraction`` reads, strings such as
    ``"1/3"`` or ``"0.5"`` included; one it cannot read, or a non-finite
    one, is a ValidationError.  Fusing one input, or several identical
    ones, returns the input unchanged.
    """
    if not inputs:
        raise ValidationError("no diarizations to fuse")
    if weights is None:
        scaled = [1] * len(inputs)
    else:
        if len(weights) != len(inputs):
            raise ValidationError("one weight per input required")
        fracs = []
        for w in weights:
            try:
                fracs.append(Fraction(w))
            except (ValueError, OverflowError, ZeroDivisionError):
                raise ValidationError(f"weight {w!r} is not a finite number") from None
        if any(w <= 0 for w in fracs):
            raise ValidationError("weights must be positive")
        common = math.lcm(*(w.denominator for w in fracs))
        scaled = [w.numerator * (common // w.denominator) for w in fracs]
        divisor = math.gcd(*scaled)
        scaled = [w // divisor for w in scaled]
    total = sum(scaled)

    relabeled = [inputs[0]]
    accumulated = inputs[0]
    for d in inputs[1:]:
        harmonized = relabel_to_reference(accumulated, d)
        relabeled.append(harmonized)
        accumulated = accumulated.merged_with(harmonized)

    speakers: dict[str, list[TimeInterval]] = {}
    for interval, active_sets in joint_regions(relabeled):
        # votes and weighted are total times the normalized votes and expected
        # count, so floor(weighted / total + 1/2) rounds the count half-up
        votes: dict[str, int] = {}
        weighted = 0
        for weight, active in zip(scaled, active_sets):
            weighted += weight * len(active)
            for label in active:
                votes[label] = votes.get(label, 0) + weight
        winners_count = (2 * weighted + total) // (2 * total)
        if winners_count == 0:
            continue
        ranked = sorted(votes, key=lambda label: (-votes[label], label))
        for label in ranked[:winners_count]:
            speakers.setdefault(label, []).append(interval)
    return Diarization(inputs[0].session, speakers)
