import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diarscore.der import compute_der, optimal_speaker_map
from diarscore.errors import ValidationError
from diarscore.formats import TimeInterval
from diarscore.fusion import fuse_channels, relabel_to_reference
from diarscore.synth import generate_session
from diarscore.timeline import Diarization, joint_regions

S = 1000


def der_between(a, b):
    return compute_der(a, b, optimal_speaker_map(a, b)).der


def test_relabel_permuted_labels_back_to_base():
    base = Diarization("S1", {"A": [(0, 5 * S)], "B": [(6 * S, 5 * S)]})
    other = base.relabel({"A": "p2", "B": "p1"})
    assert relabel_to_reference(base, other) == base


def test_relabel_disjoint_activity_keeps_fresh_ids():
    base = Diarization("S1", {"A": [(0, 5 * S)]})
    other = Diarization("S1", {"Q": [(10 * S, 5 * S)]})
    result = relabel_to_reference(base, other)
    assert result.speaker_ids == ("Q",)
    assert result.intervals("Q") == (TimeInterval(10 * S, 5 * S),)


def test_relabel_collision_gets_numbered_variant():
    base = Diarization("S1", {"A": [(0, 5 * S)]})
    other = Diarization("S1", {"A": [(10 * S, 5 * S)]})
    result = relabel_to_reference(base, other)
    assert result.speaker_ids == ("A.2",)


def test_relabel_two_by_two_assignment():
    # overlap matrix [[8,1],[2,7]] in seconds: brute force gives {X:A, Y:B}
    base = Diarization("S1", {"A": [(0, 9 * S)], "B": [(9 * S, 9 * S)]})
    other = Diarization(
        "S1",
        {
            "X": [(0, 8 * S), (16 * S, 2 * S)],
            "Y": [(8 * S, 1 * S), (9 * S, 7 * S)],
        },
    )
    result = relabel_to_reference(base, other)
    assert result.intervals("A") == other.intervals("X")
    assert result.intervals("B") == other.intervals("Y")


def test_fuse_single_input_is_identity():
    d = generate_session(speakers=3, duration_ms=30_000, seed=9).diarization
    assert fuse_channels([d]) == d


def test_fuse_identical_inputs_is_idempotent():
    d = generate_session(speakers=3, duration_ms=30_000, seed=10).diarization
    for k in (2, 3, 6):
        assert fuse_channels([d] * k) == d
    assert fuse_channels([d, d], weights=[Fraction(1, 3), Fraction(2, 3)]) == d


def test_fuse_majority_two_against_one():
    says = Diarization("S1", {"A": [(0, 10 * S)]})
    silent = Diarization("S1", {"B": [(20 * S, 1 * S)]})  # someone else, elsewhere
    fused = fuse_channels([says, says, silent])
    assert fused.intervals("A") == (TimeInterval(0, 10 * S),)


def test_fuse_majority_vote_arithmetic():
    # with three equal channels, a lone supporter loses: vote 1/3, count 1/3 -> 0
    says = Diarization("S1", {"A": [(0, 10 * S)]})
    empty_a = Diarization("S1", {"B": [(20 * S, 1 * S)]})
    empty_b = Diarization("S1", {"C": [(20 * S, 1 * S)]})
    fused = fuse_channels([says, empty_a, empty_b])
    assert "A" not in fused.speaker_ids


def test_fuse_permutation_of_equal_weight_inputs_equivalent():
    # channels are perturbed views of one session (the fusion use case);
    # with unrelated inputs the sequential harmonization is order-dependent
    from itertools import permutations

    from diarscore.synth import corrupt_diarization

    for seed in (0, 1, 2):
        base = generate_session(speakers=3, duration_ms=30_000, seed=seed).diarization
        channels = []
        for c in range(3):
            hyp, _ = corrupt_diarization(
                base, fa_ms=400 + 70 * c, miss_ms=500 + 50 * c, spkerr_ms=300, seed=100 * seed + c
            )
            channels.append(hyp.relabel({s: f"c{c}_{s}" for s in hyp.speaker_ids}))
        outputs = [fuse_channels(list(p)) for p in permutations(channels)]
        assert all(der_between(outputs[0], out) == 0 for out in outputs[1:])


def test_fuse_never_exceeds_max_concurrent_speakers():
    from diarscore.timeline import joint_regions

    inputs = [
        generate_session(speakers=4, duration_ms=25_000, overlap=0.3, seed=s).diarization
        for s in (4, 5, 6)
    ]
    fused = fuse_channels(inputs)
    for interval, actives in joint_regions(inputs + [fused]):
        max_inputs = max(len(a) for a in actives[:-1])
        assert len(actives[-1]) <= max_inputs


def test_fuse_validates_inputs():
    with pytest.raises(ValidationError):
        fuse_channels([])
    d = Diarization("S1", {"A": [(0, S)]})
    with pytest.raises(ValidationError):
        fuse_channels([d], weights=[1, 2])
    with pytest.raises(ValidationError):
        fuse_channels([d, d], weights=[1, -1])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "x", "1/0"])
def test_fuse_refuses_a_weight_that_is_not_a_finite_number(bad):
    # Fraction raises OverflowError, ValueError or ZeroDivisionError for these
    d = Diarization("S1", {"A": [(0, S)]})
    with pytest.raises(ValidationError, match=rf"^weight {re.escape(repr(bad))} is not a finite"):
        fuse_channels([d, d], weights=[bad, 1])


def fraction_vote_fuse(inputs, weights):
    """The voting with normalized Fraction weights that the integer votes replace."""
    fracs = [Fraction(w) for w in weights]
    norm = [w / sum(fracs) for w in fracs]
    relabeled = [inputs[0]]
    accumulated = inputs[0]
    for d in inputs[1:]:
        harmonized = relabel_to_reference(accumulated, d)
        relabeled.append(harmonized)
        accumulated = accumulated.merged_with(harmonized)
    speakers = {}
    for interval, active_sets in joint_regions(relabeled):
        votes = {}
        expected = Fraction(0)
        for weight, active in zip(norm, active_sets):
            expected += weight * len(active)
            for label in active:
                votes[label] = votes.get(label, Fraction(0)) + weight
        count = math.floor(expected + Fraction(1, 2))
        ranked = sorted(votes, key=lambda label: (-votes[label], label))
        for label in ranked[:count]:
            speakers.setdefault(label, []).append(interval)
    return Diarization(inputs[0].session, speakers)


channel_st = st.builds(
    lambda m: Diarization("S1", m),
    st.dictionaries(
        st.sampled_from(["A", "B", "C", "D"]),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 10)).map(
                lambda t: (t[0] * 100, t[1] * 100)
            ),
            max_size=4,
        ),
        max_size=3,
    ),
)
weight_st = st.one_of(
    st.integers(1, 6),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    st.fractions(min_value=Fraction(1, 50), max_value=5),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(channel_st, min_size=1, max_size=4), st.data())
def test_integer_votes_equal_fraction_votes(inputs, data):
    weights = data.draw(st.lists(weight_st, min_size=len(inputs), max_size=len(inputs)))
    assert fuse_channels(inputs, weights) == fraction_vote_fuse(inputs, weights)
    assert fuse_channels(inputs) == fraction_vote_fuse(inputs, [1] * len(inputs))
