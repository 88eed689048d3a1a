"""diarscore: exact scoring for speaker diarization and speaker-attributed text.

Computes the diarization error rate (DER) with overlap-aware, collar-free
region scoring, and the concatenated minimum-permutation character error
rate (cpCER), both on exact integer/rational arithmetic.  Ships the
surrounding pipeline plumbing -- RTTM and transcript parsing, channel
fusion, probability post-processing, joint-decoding manifests -- plus a
synthetic-session generator whose corruption ledgers make every metric
independently verifiable.
"""

from .cer import EditCounts, PUNCTUATION, edit_counts, edit_distance, normalize_text
from .cpcer import CpcerResult, SpeakerText, aggregate_counts, compute_cpcer, concat_by_speaker
from .der import (
    DerBreakdown,
    SpeakerMap,
    aggregate_der,
    brute_force_der,
    compute_der,
    optimal_speaker_map,
    score_der,
)
from .errors import (
    DiarscoreError,
    InjectionError,
    ParseError,
    SessionMismatchError,
    UndefinedMetricError,
    ValidationError,
)
from .formats import (
    SpeakerTurn,
    TimeInterval,
    TranscriptEntry,
    emit_rttm,
    emit_transcript,
    parse_rttm,
    parse_transcript,
)
from .fusion import fuse_channels, relabel_to_reference
from .postproc import (
    ManifestRow,
    ProbabilityMatrix,
    SegmentManifest,
    assemble_transcript,
    binarize_probs,
    binarize_stream,
    build_manifest,
    smooth_segments,
)
from .synth import (
    DiarizationLedger,
    SynthSession,
    TextLedger,
    corrupt_diarization,
    corrupt_text,
    generate_session,
)
from .timeline import Diarization, PairedRegion, build_regions, by_session, pairwise_overlap

__version__ = "0.1.0"

__all__ = [
    "CpcerResult",
    "DerBreakdown",
    "Diarization",
    "DiarizationLedger",
    "DiarscoreError",
    "EditCounts",
    "InjectionError",
    "ManifestRow",
    "PUNCTUATION",
    "PairedRegion",
    "ParseError",
    "ProbabilityMatrix",
    "SegmentManifest",
    "SessionMismatchError",
    "SpeakerMap",
    "SpeakerText",
    "SpeakerTurn",
    "SynthSession",
    "TextLedger",
    "TimeInterval",
    "TranscriptEntry",
    "UndefinedMetricError",
    "ValidationError",
    "aggregate_counts",
    "aggregate_der",
    "assemble_transcript",
    "binarize_probs",
    "binarize_stream",
    "brute_force_der",
    "build_manifest",
    "build_regions",
    "by_session",
    "compute_cpcer",
    "compute_der",
    "concat_by_speaker",
    "corrupt_diarization",
    "corrupt_text",
    "edit_counts",
    "edit_distance",
    "emit_rttm",
    "emit_transcript",
    "fuse_channels",
    "generate_session",
    "normalize_text",
    "optimal_speaker_map",
    "pairwise_overlap",
    "parse_rttm",
    "parse_transcript",
    "relabel_to_reference",
    "score_der",
    "smooth_segments",
]
