"""The benchmark workloads: seeded inputs, the job each runs, and its checks.

Each workload builds its inputs in-process with ``diarscore.synth`` and
writes them as files; the program under test sees only those files.  The
expected output of a job is derived from what the generator injected (its
ledger), never from an earlier run of the program.

A job has two forms that do the same work on the same files:

* ``cli_steps``: ``diarscore`` subcommands, each run as its own process;
* ``run_lib``: the same steps through the public library functions, in
  process, writing the same output files.

Library functions are always looked up as module attributes at call time
(``formats.parse_rttm``), so the traced run can wrap them from outside.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from diarscore import cpcer, der, formats, fusion, postproc, reporting, synth, timeline

MINUTE_MS = 60_000


def no_span(name):
    return nullcontext()


def read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readlines()


def pct(num: int, den: int) -> str:
    """100 * num / den with two decimals, rounded half-up, in integers only."""
    scaled = (20_000 * num + den) // (2 * den)
    return f"{scaled // 100}.{scaled % 100:02d}"


def rttm_ms(text: str) -> int:
    """Decimal seconds (at most 3 decimals) to integer milliseconds."""
    whole, _, frac = text.partition(".")
    return int(whole) * 1000 + int((frac + "000")[:3])


def read_rttm(path: Path) -> list[tuple[str, str, int, int]]:
    """(session, speaker, start_ms, dur_ms) of each SPEAKER line, sorted."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        f = line.split()
        if f and f[0] == "SPEAKER":
            rows.append((f[1], f[7], rttm_ms(f[3]), rttm_ms(f[4])))
    return sorted(rows)


def check_table(path: Path, expected: dict[str, list[str]], columns: list[str]) -> list[str]:
    """Compare a TSV table with the expected rows, by row label and column name.

    Only the named columns are compared, so added columns do not count as a
    mismatch; row labels must match in order.
    """
    if not path.is_file():
        return [f"{path.name}: missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t") if lines else []
    missing = [c for c in columns if c not in header]
    if missing:
        return [f"{path.name}: columns {missing} missing from header {header}"]
    got = {}
    for line in lines[1:]:
        cells = line.split("\t")
        got[cells[0]] = dict(zip(header, cells))
    if list(got) != list(expected):
        return [f"{path.name}: rows {list(got)} != expected {list(expected)}"]
    errors = []
    for label, values in expected.items():
        cells = [got[label].get(c) for c in columns]
        if cells != values:
            errors.append(f"{path.name}: {label} {dict(zip(columns, cells))} != {values}")
    return errors


def rate_rows(components: dict[str, tuple[int, ...]]) -> dict[str, list[str]]:
    """Expected table rows: each error component and their sum over the last item.

    components maps a session to (e1, e2, e3, total); OVERALL sums them.
    """
    rows = {}
    totals = [0, 0, 0, 0]
    for session, comp in sorted(components.items()):
        totals = [a + b for a, b in zip(totals, comp)]
        rows[session] = comp
    rows["OVERALL"] = tuple(totals)
    return {
        label: [pct(e, c[3]) for e in c[:3]] + [pct(sum(c[:3]), c[3])]
        for label, c in rows.items()
    }


def render(span, label_rows, rates_of, headers, out: Path, tsv_name: str) -> None:
    """Render a report the way the CLI does; write only its TSV form."""
    with span("reporting.render"):
        rows = [[label] + [reporting.percent(r) for r in rates_of(x)] for label, x in label_rows]
        reporting.render_aligned(headers, rows)
        tsv = reporting.render_tsv([h.lower() for h in headers], rows)
    (out / tsv_name).write_text(tsv, encoding="utf-8")


class DerCorpus:
    """score-der over a corpus: ref and hyp RTTM with known FA/MISS/SPKERR."""

    name = "der_corpus"
    outputs = ("der.tsv",)

    def __init__(self, tiny: bool = False):
        self.sessions, self.minutes, self.speakers = (2, 2, 3) if tiny else (16, 30, 6)

    def setup(self, seed: int, inputs: Path) -> None:
        rng = random.Random(seed)
        ref_turns, hyp_turns = [], []
        self.components = {}
        step = self.minutes * MINUTE_MS // 200 // 10 * 10  # 0.5% of the session
        for k in range(self.sessions):
            session = f"D{k + 1:03d}"
            sub_seed = rng.randrange(2**32)
            ref = synth.generate_session(
                speakers=self.speakers,
                duration_ms=self.minutes * MINUTE_MS,
                seed=sub_seed,
                session=session,
            ).diarization
            fa, miss, spkerr = (rng.randrange(step, 4 * step, 10) for _ in range(3))
            hyp, ledger = synth.corrupt_diarization(
                ref, fa_ms=fa, miss_ms=miss, spkerr_ms=spkerr, seed=sub_seed, grid_ms=10
            )
            total = sum(iv.dur for _, ivs in ref.items() for iv in ivs)
            self.components[session] = (ledger.fa_ms, ledger.miss_ms, ledger.spkerr_ms, total)
            ref_turns += ref.to_turns()
            hyp_turns += hyp.to_turns()
        (inputs / "ref.rttm").write_text(formats.emit_rttm(ref_turns), encoding="utf-8")
        (inputs / "hyp.rttm").write_text(formats.emit_rttm(hyp_turns), encoding="utf-8")
        self.sizes = {
            "sessions": self.sessions,
            "minutes_per_session": self.minutes,
            "speakers": self.speakers,
            "ref_rttm_lines": len(ref_turns),
            "hyp_rttm_lines": len(hyp_turns),
        }

    def cli_steps(self, out: Path) -> list[list[str]]:
        tsv = str(out / "der.tsv")
        return [["score-der", "--ref", "ref.rttm", "--hyp", "hyp.rttm", "--tsv", tsv]]

    def run_lib(self, inputs: Path, out: Path, span=no_span) -> dict:
        refs = timeline.by_session(formats.parse_rttm(read_lines(inputs / "ref.rttm")))
        hyps = timeline.by_session(formats.parse_rttm(read_lines(inputs / "hyp.rttm")))
        parts = {}
        for session in sorted(set(refs) & set(hyps)):
            ref, hyp = refs[session], hyps[session]
            parts[session] = der.compute_der(ref, hyp, der.optimal_speaker_map(ref, hyp))
        overall = der.aggregate_der(list(parts.values()))
        render(
            span,
            list(parts.items()) + [("OVERALL", overall)],
            lambda b: [b.rate("fa"), b.rate("miss"), b.rate("spkerr"), b.der],
            ["Session", "FA", "MISS", "SPKERR", "DER"],
            out,
            "der.tsv",
        )
        return {s: (b.fa, b.miss, b.spkerr, b.total) for s, b in parts.items()}

    def check(self, out: Path) -> list[str]:
        return check_table(
            out / "der.tsv", rate_rows(self.components), ["fa", "miss", "spkerr", "der"]
        )

    def check_components(self, components: dict) -> list[str]:
        if components != self.components:
            return [f"DER components {components} != ledger {self.components}"]
        return []


class CpcerMeeting:
    """score-cpcer over long meetings with known substitutions, deletions, insertions."""

    name = "cpcer_meeting"
    outputs = ("cpcer.tsv",)

    def __init__(self, tiny: bool = False):
        # (minutes, speakers) per session; the generator's distinct-character
        # pool limits a session to about 100 minutes
        self.layout = [(3, 3), (3, 3), (4, 2)] if tiny else [(60, 4)] * 4 + [(90, 2)]

    def setup(self, seed: int, inputs: Path) -> None:
        rng = random.Random(seed)
        ref_entries, hyp_entries, ref_turns = [], [], []
        self.components = {}
        streams = []
        for k, (minutes, speakers) in enumerate(self.layout):
            session = f"M{k + 1:03d}"
            sub_seed = rng.randrange(2**32)
            gen = synth.generate_session(
                speakers=speakers, duration_ms=minutes * MINUTE_MS, seed=sub_seed, session=session
            )
            # generated text has no whitespace or punctuation: n is its length
            n = sum(len(e.text) for e in gen.transcript)
            sub, delete, insert = (n * rng.randint(lo, lo + 2) // 100 for lo in (3, 2, 1))
            hyp, ledger = synth.corrupt_text(
                gen.transcript, sub=sub, delete=delete, insert=insert, seed=sub_seed
            )
            self.components[session] = (ledger.sub, ledger.delete, ledger.insert, n)
            ref_entries += gen.transcript
            hyp_entries += hyp
            ref_turns += gen.diarization.to_turns()
            ref_streams = {}
            for e in gen.transcript:
                ref_streams[e.speaker] = ref_streams.get(e.speaker, 0) + len(e.text)
            # corrupt_text returns one entry per speaker, sorted by speaker
            lens = [ref_streams[s] for s in sorted(ref_streams)]
            streams.append((lens, [len(e.text) for e in hyp]))
        (inputs / "ref.trn").write_text(formats.emit_transcript(ref_entries), encoding="utf-8")
        (inputs / "hyp.trn").write_text(formats.emit_transcript(hyp_entries), encoding="utf-8")
        (inputs / "ref.rttm").write_text(formats.emit_rttm(ref_turns), encoding="utf-8")
        ref_lens = [n for r, _ in streams for n in r]
        self.sizes = {
            "sessions": len(self.layout),
            "ref_rttm_lines": len(ref_turns),
            "chars_per_stream_min": min(ref_lens),
            "chars_per_stream_max": max(ref_lens),
            "distance_cells": sum(a * b for r, h in streams for a in r for b in h),
            "traceback_cells_max": max(a * b for r, h in streams for a, b in zip(r, h)),
        }

    def cli_steps(self, out: Path) -> list[list[str]]:
        return [
            [
                "score-cpcer",
                "--ref-trn", "ref.trn",
                "--ref-rttm", "ref.rttm",
                "--hyp-trn", "hyp.trn",
                "--tsv", str(out / "cpcer.tsv"),
            ]
        ]

    def run_lib(self, inputs: Path, out: Path, span=no_span) -> dict:
        ref_entries = formats.parse_transcript(read_lines(inputs / "ref.trn"))
        hyp_entries = formats.parse_transcript(read_lines(inputs / "hyp.trn"))
        turns = formats.parse_rttm(read_lines(inputs / "ref.rttm"))
        ref_entries = cpcer.attach_order_from_rttm(ref_entries, turns)
        refs, hyps = {}, {}
        for grouped, entries in ((refs, ref_entries), (hyps, hyp_entries)):
            for e in entries:
                grouped.setdefault(e.session, []).append(e)
        results = {}
        for session in sorted(set(refs) & set(hyps)):
            ref = cpcer.concat_by_speaker(refs[session], session=session)
            hyp = cpcer.concat_by_speaker(hyps[session], session=session)
            results[session] = cpcer.compute_cpcer(ref, hyp).counts
        overall = cpcer.aggregate_counts(list(results.values()))
        render(
            span,
            list(results.items()) + [("OVERALL", overall)],
            lambda c: [Fraction(c.s, c.n), Fraction(c.d, c.n), Fraction(c.i, c.n), c.cer],
            ["Session", "S", "D", "I", "cpCER"],
            out,
            "cpcer.tsv",
        )
        return {s: (c.s, c.d, c.i, c.n) for s, c in results.items()}

    def check(self, out: Path) -> list[str]:
        return check_table(out / "cpcer.tsv", rate_rows(self.components), ["s", "d", "i", "cpcer"])

    def check_components(self, components: dict) -> list[str]:
        if components != self.components:
            return [f"cpCER components {components} != ledger {self.components}"]
        return []


FRAME_MS = 10
GUARD_MS = 200  # shortest segment, and the gap kept around injected speech
# probability strings by code: 0-3 below the 0.5 threshold, 4-7 at or above it
PROBS = ("0", "0.1", "0.25", "0.45", "0.55", "0.7", "0.85", "1")
BINARIZE = ["--threshold", "0.5", "--max-gap", str(FRAME_MS), "--min-dur", str(GUARD_MS)]


def _free(intervals, lo: int, hi: int) -> bool:
    return all(iv.end <= lo or iv.start >= hi for iv in intervals)


def _cut(intervals, start: int, end: int) -> list:
    out = []
    for iv in intervals:
        if iv.start <= start and end <= iv.end:
            out += [formats.TimeInterval(iv.start, start - iv.start)]
            out += [formats.TimeInterval(end, iv.end - end)]
        else:
            out.append(iv)
    return out


def corrupt_channels(ref: timeline.Diarization, rng: random.Random, zone_ms: int, channels: int):
    """Copies of ref, each corrupted only inside its own time zones.

    Zone z belongs to channel z % channels and gets at most one edit there:
    missed speech or a speaker error inside one reference turn, or a false
    alarm.  Every edit and every piece it leaves lasts at least GUARD_MS, and
    added speech keeps GUARD_MS clear of the same speaker's reference speech.
    So smoothing with --max-gap FRAME_MS --min-dur GUARD_MS leaves each
    channel unchanged, at most one channel differs from ref at any instant,
    by at most one speaker, and the 3-way vote returns ref.

    Returns the corrupted copies and the number of edits made.
    """
    speakers = sorted(ref.speaker_ids)
    copies = [{s: list(ref.intervals(s)) for s in speakers} for _ in range(channels)]
    turns = sorted((iv.start, iv.end, s) for s in speakers for iv in ref.intervals(s))
    end = turns[-1][1]
    edits = 0
    for z, lo in enumerate(range(0, end, zone_ms)):
        hi = lo + zone_ms
        copy = copies[z % channels]
        kind = rng.choice(("miss", "spkerr", "fa"))
        if kind == "fa":
            length = rng.randrange(GUARD_MS, 5 * GUARD_MS, FRAME_MS)
            x = rng.randrange(lo, hi - length, FRAME_MS)
            y = x + length
            spk = None
        else:
            inside = [t for t in turns if lo <= t[0] and t[1] <= hi]
            if not inside:
                continue
            a, b, spk = rng.choice(inside)
            x = rng.randrange(a + GUARD_MS, b - 2 * GUARD_MS + 1, FRAME_MS)
            y = rng.randrange(x + GUARD_MS, b - GUARD_MS + 1, FRAME_MS)
        others = [
            s for s in speakers
            if s != spk and _free(ref.intervals(s), x - GUARD_MS, y + GUARD_MS)
        ]
        if kind != "miss" and not others:
            continue
        if spk is not None:
            copy[spk] = _cut(copy[spk], x, y)
        if kind != "miss":
            copy[rng.choice(others)].append(formats.TimeInterval(x, y - x))
        edits += 1
    return [timeline.Diarization(ref.session, c) for c in copies], edits


def matrix_text(d: timeline.Diarization, speakers: list[str], frames: int, nrng) -> str:
    """Probability matrix file whose thresholded frames give back d."""
    codes = nrng.integers(0, 4, size=(frames, len(speakers)))
    for k, spk in enumerate(speakers):
        for iv in (d.intervals(spk) if spk in d.speaker_ids else ()):
            codes[iv.start // FRAME_MS : iv.end // FRAME_MS, k] += 4
    keys = codes @ (8 ** np.arange(len(speakers)))
    table = [
        " ".join(PROBS[(key >> (3 * k)) & 7] for k in range(len(speakers)))
        for key in range(8 ** len(speakers))
    ]
    body = "".join(table[key] + "\n" for key in keys.tolist())
    return f"{d.session} {FRAME_MS} {' '.join(speakers)}\n{body}"


class Pipeline:
    """binarize x3 -> fuse -> manifest -> assemble on one session."""

    name = "pipeline"
    channels = 3
    outputs = ("ch1.rttm", "ch2.rttm", "ch3.rttm", "fused.rttm", "manifest.tsv", "hyp.trn")

    def __init__(self, tiny: bool = False):
        self.minutes, self.speakers, self.zone_ms = (2, 3, 10_000) if tiny else (30, 4, 20_000)

    def setup(self, seed: int, inputs: Path) -> None:
        rng = random.Random(seed)
        session = "P001"
        gen = synth.generate_session(
            speakers=self.speakers,
            duration_ms=self.minutes * MINUTE_MS,
            seed=rng.randrange(2**32),
            session=session,
        )
        ref = gen.diarization
        speakers = sorted(ref.speaker_ids)
        chans, edits = corrupt_channels(ref, rng, self.zone_ms, self.channels)
        frames = max(d.extent().end for d in chans) // FRAME_MS + 100
        nrng = np.random.default_rng(seed)
        for c, d in enumerate(chans, 1):
            text = matrix_text(d, speakers, frames, nrng)
            (inputs / f"ch{c}.txt").write_text(text, encoding="utf-8")
        # the decoder's per-utterance texts: the generator's turn texts
        text_of = {(e.speaker, e.order_key): e.text for e in gen.transcript}
        rows = sorted((iv.start, s, iv.dur) for s in speakers for iv in ref.intervals(s))
        lines = ["session\tspeaker\tstart_ms\tdur_ms\ttext"]
        lines += [f"{session}\t{s}\t{a}\t{n}\t{text_of[(s, a)]}" for a, s, n in rows]
        (inputs / "texts.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

        def turns(d):
            return sorted((session, s, iv.start, iv.dur) for s, ivs in d.items() for iv in ivs)

        self.expected_rttm = {f"ch{c}.rttm": turns(d) for c, d in enumerate(chans, 1)}
        self.expected_rttm["fused.rttm"] = turns(ref)
        self.expected_manifest = [(session, s, a, n) for a, s, n in rows]
        self.expected_text = {
            f"{s}_{session}": "".join(text_of[(s, a)] for a, s2, _ in rows if s2 == s)
            for s in speakers
        }
        self.sizes = {
            "sessions": 1,
            "minutes": self.minutes,
            "speakers": self.speakers,
            "channels": self.channels,
            "matrix_frames": frames,
            "ref_turns": len(rows),
            "channel_edits": edits,
        }

    def cli_steps(self, out: Path) -> list[list[str]]:
        channels = [str(out / f"ch{c}.rttm") for c in range(1, self.channels + 1)]
        steps = [
            ["binarize", f"ch{c}.txt", *BINARIZE, "-o", path]
            for c, path in enumerate(channels, 1)
        ]
        steps += [
            ["fuse", *channels, "-o", str(out / "fused.rttm")],
            ["manifest", str(out / "fused.rttm"), "-o", str(out / "manifest.tsv")],
            [
                "assemble",
                "--manifest", str(out / "manifest.tsv"),
                "--texts", "texts.tsv",
                "-o", str(out / "hyp.trn"),
            ],
        ]
        return steps

    def run_lib(self, inputs: Path, out: Path, span=no_span) -> dict:
        channels = []
        for c in range(1, self.channels + 1):
            matrix = postproc.parse_matrix(read_lines(inputs / f"ch{c}.txt"))
            d = postproc.binarize_probs(matrix, threshold=0.5)
            d = postproc.smooth_segments(d, max_gap_ms=FRAME_MS, min_dur_ms=GUARD_MS)
            path = out / f"ch{c}.rttm"
            path.write_text(formats.emit_rttm(d.to_turns()), encoding="utf-8")
            channels.append(path)
        inputs_d = []
        for path in channels:
            (d,) = timeline.by_session(formats.parse_rttm(read_lines(path))).values()
            inputs_d.append(d)
        fused = fusion.fuse_channels(inputs_d)
        (out / "fused.rttm").write_text(formats.emit_rttm(fused.to_turns()), encoding="utf-8")
        turns = formats.parse_rttm(read_lines(out / "fused.rttm"))
        manifest = postproc.combine_manifests(
            postproc.build_manifest(d) for d in timeline.by_session(turns).values()
        )
        (out / "manifest.tsv").write_text(postproc.emit_manifest(manifest), encoding="utf-8")
        manifest = postproc.parse_manifest(read_lines(out / "manifest.tsv"))
        texts = postproc.parse_texts(read_lines(inputs / "texts.tsv"))
        entries = postproc.assemble_transcript(manifest, texts)
        (out / "hyp.trn").write_text(formats.emit_transcript(entries), encoding="utf-8")
        return {}

    def check(self, out: Path) -> list[str]:
        errors = []
        for name, expected in self.expected_rttm.items():
            path = out / name
            if not path.is_file():
                errors.append(f"{name}: missing")
            elif read_rttm(path) != expected:
                errors.append(f"{name}: turns differ from the expected {len(expected)} turns")
        path = out / "manifest.tsv"
        if not path.is_file():
            return errors + ["manifest.tsv: missing"]
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        if [(a, b, int(c), int(d)) for a, b, c, d in rows] != self.expected_manifest:
            errors.append("manifest.tsv: rows differ from the reference turns")
        path = out / "hyp.trn"
        if not path.is_file():
            return errors + ["hyp.trn: missing"]
        got = dict(line.split(" ", 1) for line in path.read_text(encoding="utf-8").splitlines())
        if got != self.expected_text:
            errors.append("hyp.trn: speaker texts differ from the generator's texts in start order")
        return errors

    def check_components(self, components: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (DerCorpus, CpcerMeeting, Pipeline)}
