"""Command-line interface.

Subcommands: score-der, score-cpcer, fuse, binarize, manifest, assemble,
synth.  Reports echo the active tunables in header lines, print aligned
text to stdout, and can mirror the same numbers to a TSV.  Exit codes:
0 success, 1 validation error, 2 I/O error (argparse usage errors also
exit 2).
"""

from __future__ import annotations

import argparse
import logging
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .cpcer import aggregate_counts, attach_order_from_rttm, compute_cpcer, concat_by_speaker
from .der import aggregate_der, brute_force_der, score_der
from .errors import DiarscoreError, ValidationError
from .formats import (
    TranscriptEntry,
    _rttm_rows,
    emit_rttm,
    emit_transcript,
    parse_rttm,
    parse_transcript,
)
from .fusion import fuse_channels
from .postproc import (
    assemble_transcript,
    binarize_probs,
    build_manifest,
    combine_manifests,
    emit_manifest,
    parse_manifest,
    parse_matrix,
    parse_texts,
    smooth_segments,
)
from .reporting import percent, render_aligned, render_tsv
from .synth import corrupt_diarization, corrupt_text, generate_session, write_ledger
from .timeline import Diarization, sessions_from_rows

logger = logging.getLogger("diarscore")


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readlines()


def _read_sessions(paths: Sequence[str]) -> dict[str, Diarization]:
    """Stream the RTTM rows of each file in turn, one open file at a time, into sessions."""

    def rows():
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                yield from _rttm_rows(fh)

    return sessions_from_rows(rows())


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _report_common_sessions(ref_keys, hyp_keys) -> list[str]:
    common = sorted(set(ref_keys) & set(hyp_keys))
    for missing in sorted(set(ref_keys) - set(hyp_keys)):
        logger.warning("session %s has no hypothesis; not scored", missing)
    for missing in sorted(set(hyp_keys) - set(ref_keys)):
        logger.warning("session %s has no reference; not scored", missing)
    if not common:
        raise ValidationError("no overlapping sessions between reference and hypothesis")
    return common


def _cmd_score_der(args) -> int:
    refs = _read_sessions(args.ref)
    hyps = _read_sessions(args.hyp)
    common = _report_common_sessions(refs, hyps)
    scorer = brute_force_der if args.brute_force else score_der
    breakdowns = [scorer(refs[s], hyps[s])[1] for s in common]
    overall = aggregate_der(breakdowns)
    headers = ["Session", "FA", "MISS", "SPKERR", "DER"]
    rows = [
        [s, percent(b.rate("fa")), percent(b.rate("miss")), percent(b.rate("spkerr")), percent(b.der)]
        for s, b in zip(common, breakdowns)
    ]
    rows.append(
        [
            "OVERALL",
            percent(overall.rate("fa")),
            percent(overall.rate("miss")),
            percent(overall.rate("spkerr")),
            percent(overall.der),
        ]
    )
    header_lines = (
        f"# diarscore {__version__} score-der\n"
        f"# collar: none (overlapping speech scored)\n"
        f"# mapping: {'brute-force' if args.brute_force else 'assignment'}\n"
    )
    sys.stdout.write(header_lines + render_aligned(headers, rows))
    if args.tsv:
        _write_output(render_tsv([h.lower() for h in headers], rows), args.tsv)
    return 0


def _group_entries(entries: Sequence[TranscriptEntry]) -> dict[str, list[TranscriptEntry]]:
    grouped: dict[str, list[TranscriptEntry]] = {}
    for e in entries:
        grouped.setdefault(e.session, []).append(e)
    return grouped


def _cmd_score_cpcer(args) -> int:
    ref_entries = parse_transcript(_read_lines(args.ref_trn))
    hyp_entries = parse_transcript(_read_lines(args.hyp_trn))
    if args.ref_rttm:
        turns = []
        for path in args.ref_rttm:
            with open(path, "r", encoding="utf-8") as fh:
                turns += parse_rttm(fh)
        ref_entries = attach_order_from_rttm(ref_entries, turns)
    refs = _group_entries(ref_entries)
    hyps = _group_entries(hyp_entries)
    common = _report_common_sessions(refs, hyps)
    strip = not args.keep_punctuation
    mode = "brute-force" if args.brute_force else "assignment"

    def score(session: str):
        ref_st = concat_by_speaker(refs[session], session=session, strip_punctuation=strip)
        hyp_st = concat_by_speaker(hyps[session], session=session, strip_punctuation=strip)
        return compute_cpcer(ref_st, hyp_st, mode=mode)

    results = [score(s) for s in common]
    overall = aggregate_counts([r.counts for r in results])
    headers = ["Session", "S", "D", "I", "cpCER"]

    def row(label, counts):
        n = counts.n
        return [
            label,
            percent(Fraction(counts.s, n)),
            percent(Fraction(counts.d, n)),
            percent(Fraction(counts.i, n)),
            percent(counts.cer),
        ]

    rows = [row(s, r.counts) for s, r in zip(common, results)]
    rows.append(row("OVERALL", overall))
    header_lines = (
        f"# diarscore {__version__} score-cpcer\n"
        f"# punctuation: {'kept' if args.keep_punctuation else 'stripped'}\n"
        f"# assignment: {mode}\n"
    )
    sys.stdout.write(header_lines + render_aligned(headers, rows))
    if args.tsv:
        _write_output(render_tsv([h.lower() for h in headers], rows), args.tsv)
    return 0


def _cmd_fuse(args) -> int:
    inputs = []
    session = None
    for path in args.rttm:
        sessions = _read_sessions([path])
        if len(sessions) != 1:
            raise ValidationError(f"{path}: expected exactly one session, got {len(sessions)}")
        ((s, d),) = sessions.items()
        if session is None:
            session = s
        inputs.append(d)
    weights = None
    if args.weights:
        try:
            weights = [Fraction(w) for w in args.weights.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"unparseable weights: {args.weights!r}") from None
    fused = fuse_channels(inputs, weights)
    _write_output(emit_rttm(fused.to_turns()), args.output)
    return 0


def _cmd_binarize(args) -> int:
    matrix = parse_matrix(_read_lines(args.matrix))
    d = binarize_probs(matrix, threshold=args.threshold)
    d = smooth_segments(d, max_gap_ms=args.max_gap, min_dur_ms=args.min_dur)
    _write_output(emit_rttm(d.to_turns()), args.output)
    return 0


def _cmd_manifest(args) -> int:
    manifests = [build_manifest(d) for d in _read_sessions(args.rttm).values()]
    _write_output(emit_manifest(combine_manifests(manifests)), args.output)
    return 0


def _cmd_assemble(args) -> int:
    manifest = parse_manifest(_read_lines(args.manifest))
    texts = parse_texts(_read_lines(args.texts))
    entries = assemble_transcript(manifest, texts)
    _write_output(emit_transcript(entries), args.output)
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    generated = generate_session(
        speakers=args.speakers,
        duration_ms=args.duration_ms,
        overlap=args.overlap,
        silence=args.silence,
        seed=args.seed,
        session=args.session,
    )
    ref = generated.diarization
    # file-bound corruption stays on a 10 ms grid, so the RTTM files carry
    # 2-decimal seconds; amounts must be multiples of 10 for exact recovery
    hyp, diar_ledger = corrupt_diarization(
        ref,
        fa_ms=args.fa_ms,
        miss_ms=args.miss_ms,
        spkerr_ms=args.spkerr_ms,
        seed=args.seed,
        grid_ms=10,
    )
    hyp_entries, text_ledger = corrupt_text(
        generated.transcript,
        sub=args.sub,
        delete=args.delete,
        insert=args.insert,
        seed=args.seed,
    )
    (out / "ref.rttm").write_text(emit_rttm(ref.to_turns()), encoding="utf-8")
    (out / "ref.trn").write_text(emit_transcript(generated.transcript), encoding="utf-8")
    (out / "hyp.rttm").write_text(emit_rttm(hyp.to_turns()), encoding="utf-8")
    (out / "hyp.trn").write_text(emit_transcript(hyp_entries), encoding="utf-8")
    (out / "ledger.tsv").write_text(write_ledger(diar_ledger, text_ledger), encoding="utf-8")
    sys.stdout.write(
        f"# session {args.session}: wrote ref.rttm ref.trn hyp.rttm hyp.trn ledger.tsv to {out}\n"
        f"# realized overlap: {percent(generated.realized_overlap)}%"
        f"  realized silence: {percent(generated.realized_silence)}%\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diarscore", description=__doc__)
    parser.add_argument("--version", action="version", version=f"diarscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score-der", help="score hypothesis RTTMs against reference RTTMs")
    p.add_argument("--ref", nargs="+", required=True, help="reference RTTM path(s)")
    p.add_argument("--hyp", nargs="+", required=True, help="hypothesis RTTM path(s)")
    p.add_argument("--brute-force", action="store_true", help="exhaustive speaker-map oracle")
    p.add_argument("--tsv", help="also write the table as TSV to this path")
    p.set_defaults(func=_cmd_score_der)

    p = sub.add_parser("score-cpcer", help="score hypothesis transcripts against references")
    p.add_argument("--ref-trn", required=True, help="reference transcript path")
    p.add_argument(
        "--ref-rttm",
        nargs="+",
        help="reference RTTM(s) supplying chronological order for merging",
    )
    p.add_argument("--hyp-trn", required=True, help="hypothesis transcript path")
    p.add_argument("--keep-punctuation", action="store_true", help="do not strip punctuation")
    p.add_argument("--brute-force", action="store_true", help="enumerate speaker permutations")
    p.add_argument("--tsv", help="also write the table as TSV to this path")
    p.set_defaults(func=_cmd_score_cpcer)

    p = sub.add_parser("fuse", help="fuse channel-wise RTTMs of one session")
    p.add_argument("rttm", nargs="+", help="input RTTM paths, one per channel")
    p.add_argument("--weights", help="comma-separated positive channel weights")
    p.add_argument("-o", "--output", help="output RTTM path (default stdout)")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("binarize", help="threshold a probability matrix into an RTTM")
    p.add_argument("matrix", help="probability matrix file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--max-gap", type=int, default=300, help="merge gaps shorter than this (ms)")
    p.add_argument("--min-dur", type=int, default=200, help="drop segments shorter than this (ms)")
    p.add_argument("-o", "--output", help="output RTTM path (default stdout)")
    p.set_defaults(func=_cmd_binarize)

    p = sub.add_parser("manifest", help="utterance manifest TSV from RTTM(s)")
    p.add_argument("rttm", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_manifest)

    p = sub.add_parser("assemble", help="merge per-utterance texts into a transcript")
    p.add_argument("--manifest", required=True)
    p.add_argument("--texts", required=True, help="manifest columns plus a text column")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("synth", help="generate a synthetic session with optional corruption")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--session", default="S0001")
    p.add_argument("--speakers", type=int, default=4)
    p.add_argument("--duration-ms", type=int, default=120_000)
    p.add_argument("--overlap", type=float, default=0.2)
    p.add_argument("--silence", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fa-ms", type=int, default=0)
    p.add_argument("--miss-ms", type=int, default=0)
    p.add_argument("--spkerr-ms", type=int, default=0)
    p.add_argument("--sub", type=int, default=0)
    p.add_argument("--del", dest="delete", type=int, default=0)
    p.add_argument("--ins", dest="insert", type=int, default=0)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiarscoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
