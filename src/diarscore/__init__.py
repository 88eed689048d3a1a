"""diarscore: exact scoring for speaker diarization and speaker-attributed text.

Computes the diarization error rate (DER) with overlap-aware, collar-free
region scoring, and the concatenated minimum-permutation character error
rate (cpCER), both on exact integer/rational arithmetic.  Ships the
surrounding pipeline plumbing -- RTTM and transcript parsing, channel
fusion, probability post-processing, joint-decoding manifests -- plus a
synthetic-session generator whose corruption ledgers make every metric
independently verifiable.
"""

from importlib import import_module

# Each public name is imported from its module on first access (PEP 562),
# so a CLI child loads only the modules its command runs.
_MODULE_NAMES = {
    "assignment": ("SpeakerMap",),
    "cer": ("EditCounts", "PUNCTUATION", "edit_counts", "edit_distance", "normalize_text"),
    "cpcer": (
        "CpcerResult",
        "SpeakerText",
        "aggregate_counts",
        "compute_cpcer",
        "concat_by_speaker",
    ),
    "der": (
        "DerBreakdown",
        "aggregate_der",
        "brute_force_der",
        "compute_der",
        "optimal_speaker_map",
        "score_der",
    ),
    "errors": (
        "DiarscoreError",
        "InjectionError",
        "ParseError",
        "SessionMismatchError",
        "UndefinedMetricError",
        "ValidationError",
    ),
    "formats": (
        "SpeakerTurn",
        "TimeInterval",
        "TranscriptEntry",
        "emit_rttm",
        "emit_transcript",
        "parse_rttm",
        "parse_transcript",
    ),
    "fusion": ("fuse_channels", "relabel_to_reference"),
    "postproc": (
        "ManifestRow",
        "ProbabilityMatrix",
        "SegmentManifest",
        "assemble_transcript",
        "binarize_probs",
        "binarize_stream",
        "build_manifest",
        "smooth_segments",
    ),
    "synth": (
        "DiarizationLedger",
        "SynthSession",
        "TextLedger",
        "corrupt_diarization",
        "corrupt_text",
        "generate_session",
    ),
    "timeline": ("Diarization", "build_regions", "by_session", "pairwise_overlap"),
}
_ORIGIN = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    # an AttributeError here lets `from diarscore import cpcer` import the submodule
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORIGIN.keys())
