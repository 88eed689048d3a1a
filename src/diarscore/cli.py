"""Command-line interface.

Subcommands: score-der, score-cpcer, fuse, binarize, manifest, assemble,
synth.  The two scoring commands share one report path: pair the
reference and hypothesis sessions, score each common one, pool them into
an OVERALL row, echo the active tunables in header lines, print aligned
text to stdout, and mirror the same rows to a TSV.  Every input is parsed
straight from its open file; every command that reads RTTM streams its
turns through the same reader.  Each command imports only the modules it
runs, so numpy is loaded by binarize alone.  Exit codes: 0 success, 1
validation error, 2 I/O error (argparse usage errors also exit 2).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterator, Mapping, Sequence, TypeVar

from . import __version__
from .errors import DiarscoreError, UndefinedMetricError, ValidationError
from .formats import SpeakerTurn, _rttm_turns, _transcript_entries, emit_rttm, emit_transcript

if TYPE_CHECKING:
    from fractions import Fraction

    from .cer import CharSeq
    from .cpcer import SpeakerText
    from .timeline import Diarization

logger = logging.getLogger("diarscore")

T = TypeVar("T")
R = TypeVar("R")  # one session of a reference or hypothesis
S = TypeVar("S")  # one session's score


# _read_speaker_texts joins this many lines of a (session, speaker) pair
# into one string, so a long stream is not held as one string per line
_TEXT_BLOCK_LINES = 64


def _parse_file(parse: Callable[[IO[str]], T], path: str) -> T:
    """Run a parser over the lines of one open UTF-8 file, BOM skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse(fh)


def _rttm_stream(paths: Sequence[str]) -> Iterator[SpeakerTurn]:
    """Stream the SpeakerTurns of each RTTM file in turn, one open file at a time."""
    for path in paths:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield from _rttm_turns(fh)


def _read_sessions(paths: Sequence[str]) -> dict[str, Diarization]:
    """One Diarization per session of the RTTM files; no turn is kept."""
    from .timeline import by_session

    return by_session(_rttm_stream(paths))


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _report_scores(
    args,
    tunables: Sequence[str],
    refs: Mapping[str, R],
    hyps: Mapping[str, R],
    score: Callable[[str, R, R], S],
    aggregate: Callable[[list[S]], S],
    columns: Sequence[str],
    rates: Callable[[S], Sequence[Fraction]],
) -> int:
    """Score each session that refs and hyps share and report it with an OVERALL row.

    ``score(session, ref, hyp)`` gives one session's result, ``aggregate``
    pools the results into OVERALL, and ``rates`` gives the four rates of a
    result, named by ``columns``.  Stdout gets the version and tunable
    header lines and the aligned table; ``--tsv`` gets the same rows, and
    gets them first, so a TSV that cannot be written leaves stdout empty.
    A session whose rates are undefined (an empty reference) reads
    ``undefined`` in every rate cell, with a warning that names it; its
    counts still go into OVERALL.  Only an undefined OVERALL is an error,
    raised before anything is written.
    """
    from .reporting import percent, render_aligned, render_tsv

    common = sorted(refs.keys() & hyps.keys())
    for missing in sorted(refs.keys() - hyps.keys()):
        logger.warning("session %s has no hypothesis; not scored", missing)
    for missing in sorted(hyps.keys() - refs.keys()):
        logger.warning("session %s has no reference; not scored", missing)
    if not common:
        raise ValidationError("no overlapping sessions between reference and hypothesis")

    def row(label: str, result: S, overall: bool = False) -> list[str]:
        # the one place an undefined rate is reported
        try:
            return [label, *map(percent, rates(result))]
        except UndefinedMetricError:
            if overall:
                raise UndefinedMetricError(f"session {label!r} has an empty reference") from None
            logger.warning("session %s has an empty reference; its rates are undefined", label)
            return [label, *["undefined"] * len(columns)]

    results = []
    rows = []
    for session in common:
        result = score(session, refs[session], hyps[session])
        results.append(result)
        rows.append(row(session, result))
    rows.append(row("OVERALL", aggregate(results), overall=True))
    headers = ["Session", *columns]
    header_lines = f"# diarscore {__version__} {args.command}\n"
    header_lines += "".join(f"# {tunable}\n" for tunable in tunables)
    if args.tsv:
        _write_output(render_tsv([h.lower() for h in headers], rows), args.tsv)
    sys.stdout.write(header_lines + render_aligned(headers, rows))
    return 0


def _cmd_score_der(args) -> int:
    from .der import aggregate_der, brute_force_der, score_der

    scorer = brute_force_der if args.brute_force else score_der
    return _report_scores(
        args,
        [
            "collar: none (overlapping speech scored)",
            f"mapping: {'brute-force' if args.brute_force else 'assignment'}",
        ],
        _read_sessions(args.ref),
        _read_sessions(args.hyp),
        lambda session, ref, hyp: scorer(ref, hyp)[1],
        aggregate_der,
        ["FA", "MISS", "SPKERR", "DER"],
        lambda b: (b.rate("fa"), b.rate("miss"), b.rate("spkerr"), b.der),
    )


def _read_speaker_texts(
    path: str, strip: bool
) -> tuple[dict[str, SpeakerText], dict[tuple[str, str], int]]:
    """One SpeakerText per session of a transcript, and each pair's line count.

    Each line's text goes onto the list of its (session, speaker) pair as
    it is read, so no entry outlives its line, and every _TEXT_BLOCK_LINES
    lines of a pair are joined into one block string in their place: the
    list holds the pair's blocks, then its pending lines, and no line is
    joined into a block twice.  A pair's texts are joined in file order,
    which is the order_key order ``concat_by_speaker`` sorts by, then
    normalized once, with punctuation dropped if ``strip``.  The counts
    keep the order in which the pairs first appear.
    """
    from .cer import normalize_text
    from .cpcer import SpeakerText

    parts: dict[tuple[str, str], list[str]] = {}
    counts: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for e in _transcript_entries(fh):
            pair = (e.session, e.speaker)
            parts.setdefault(pair, []).append(e.text)
            counts[pair] = n = counts.get(pair, 0) + 1
            if n % _TEXT_BLOCK_LINES == 0:
                # no local names the list, so each list goes when it is popped
                parts[pair][-_TEXT_BLOCK_LINES:] = ["".join(parts[pair][-_TEXT_BLOCK_LINES:])]
    streams: dict[str, dict[str, CharSeq]] = {}
    for session, speaker in counts:
        # popped, so a pair's blocks go once its text is joined
        text = normalize_text("".join(parts.pop((session, speaker))), strip)
        streams.setdefault(session, {})[speaker] = text
    return {s: SpeakerText(s, st) for s, st in streams.items()}, counts


def _cmd_score_cpcer(args) -> int:
    from .cpcer import _check_turn_counts, aggregate_counts, compute_cpcer

    strip = not args.keep_punctuation
    refs, n_ref = _read_speaker_texts(args.ref_trn, strip)
    hyps, _ = _read_speaker_texts(args.hyp_trn, strip)
    if args.ref_rttm:
        _check_turn_counts(n_ref, _rttm_stream(args.ref_rttm))
    mode = "brute-force" if args.brute_force else "assignment"
    return _report_scores(
        args,
        [f"punctuation: {'kept' if args.keep_punctuation else 'stripped'}", f"assignment: {mode}"],
        refs,
        hyps,
        lambda session, ref, hyp: compute_cpcer(ref, hyp, mode=mode).counts,
        aggregate_counts,
        ["S", "D", "I", "cpCER"],
        lambda c: (c.rate("s"), c.rate("d"), c.rate("i"), c.cer),
    )


def _cmd_fuse(args) -> int:
    from .fusion import fuse_channels

    inputs = []
    for path in args.rttm:
        sessions = _read_sessions([path])
        if len(sessions) != 1:
            raise ValidationError(f"{path}: expected exactly one session, got {len(sessions)}")
        inputs.extend(sessions.values())
    weights = args.weights.split(",") if args.weights is not None else None
    fused = fuse_channels(inputs, weights)
    _write_output(emit_rttm(fused.to_turns()), args.output)
    return 0


def _cmd_binarize(args) -> int:
    from .postproc import binarize_stream, check_tunables, smooth_segments

    # a bad tunable is refused before the matrix is opened
    check_tunables(args.threshold, max_gap_ms=args.max_gap, min_dur_ms=args.min_dur)
    d = _parse_file(lambda fh: binarize_stream(fh, threshold=args.threshold), args.matrix)
    d = smooth_segments(d, max_gap_ms=args.max_gap, min_dur_ms=args.min_dur)
    _write_output(emit_rttm(d.to_turns()), args.output)
    return 0


def _cmd_manifest(args) -> int:
    from .postproc import build_manifest, combine_manifests, emit_manifest

    manifests = [build_manifest(d) for d in _read_sessions(args.rttm).values()]
    _write_output(emit_manifest(combine_manifests(manifests)), args.output)
    return 0


def _cmd_assemble(args) -> int:
    from .postproc import assemble_transcript, parse_manifest, parse_texts

    manifest = _parse_file(parse_manifest, args.manifest)
    texts = _parse_file(parse_texts, args.texts)
    entries = assemble_transcript(manifest, texts)
    _write_output(emit_transcript(entries), args.output)
    return 0


def _cmd_synth(args) -> int:
    from .reporting import percent
    from .synth import corrupt_diarization, corrupt_text, generate_session, write_ledger

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
    # every text is built before any file is written, so a rejected input
    # leaves no partial output
    files = {
        "ref.rttm": emit_rttm(ref.to_turns()),
        "ref.trn": emit_transcript(generated.transcript),
        "hyp.rttm": emit_rttm(hyp.to_turns()),
        "hyp.trn": emit_transcript(hyp_entries),
        "ledger.tsv": write_ledger(diar_ledger, text_ledger),
    }
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    sys.stdout.write(
        f"# session {args.session}: wrote {' '.join(files)} to {out}\n"
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
        help="reference RTTM(s) to read, validate and check against the transcript;"
        " each (session, speaker) pair whose turn count differs is named, and"
        " nothing is reordered, so no score changes",
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
