#!/usr/bin/env python3
"""Benchmark for diarscore: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a diarscore checkout (the package is used from ``src``,
not installed):

    python3 bench/run.py --workload der_corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

One run generates the workload's inputs from the seed, then runs jobs in a
closed loop with one client for about ``--seconds`` seconds.  With
``--trace 0`` the jobs are CLI jobs (each ``diarscore`` subcommand a child
process, one at a time), and the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced runs of the same job through
the library, in process, and reports per-layer metrics from the spans.
Every job's output is checked against the generator's ledger.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5  # set-ups per run; setup_s is their median
STARTUPS = 5  # timed interpreter starts for cli.startup_s


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Launcher:
    """The small process (bench/launch.py) that starts every CLI child."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        return self

    def run(self, inputs: Path, out: Path, steps: list[list[str]]) -> dict:
        request = {"cwd": str(inputs), "out": str(out), "steps": steps}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"bench/launch.py exited with code {self.proc.wait()}")
        return json.loads(reply)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def run_cli_job(workload, inputs: Path, out: Path, launcher: Launcher):
    """Run the job's subcommands one after another; stop at the first failure.

    Returns wall seconds, the largest child ru_maxrss (KiB) and the errors.
    """
    steps = workload.cli_steps(fresh_dir(out))
    reply = launcher.run(inputs, out, steps)
    k = reply["failed_step"]
    if k is None:
        errors = check(workload, out)
    else:
        err = (out / f"step{k}.err").read_text(encoding="utf-8", errors="replace")
        errors = [f"{steps[k][0]} exited {reply['code']}: {err.strip()[-400:]}"]
    return reply["wall"], reply["maxrss_kib"], errors


def run_lib_job(workload, inputs: Path, out: Path, span=None) -> tuple[float, list[str]]:
    """The same job through the library, in process; returns wall seconds and errors."""
    fresh_dir(out)
    kwargs = {} if span is None else {"span": span}
    start = time.perf_counter()
    try:
        components = workload.run_lib(inputs, out, **kwargs)
    except Exception:  # a failing job is counted, and the run goes on
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    wall = time.perf_counter() - start
    return wall, check(workload, out, components)


def check(workload, out: Path, components: dict | None = None) -> list[str]:
    """Errors in a job's outputs; output too malformed to read is one more error."""
    try:
        errors = workload.check(out)
        if components is not None:
            errors += workload.check_components(components)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors = [f"unreadable output: {exc!r}"]
    return errors


def interpreter_start(env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import diarscore.cli"], cwd=ROOT, env=env, check=True
    )
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  Below 21 samples that
    percentile would lie below the median; the nearest-rank 75th
    percentile is returned instead, which one slow job moves less than the
    maximum.
    """
    xs = sorted(samples)
    if len(xs) < 21:
        k = -(-3 * len(xs) // 4) - 1
    else:
        k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def git_sha() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(module: str) -> str:
    try:
        return importlib.import_module(module).__version__
    except ImportError:
        return "absent"


def environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_count": str(os.cpu_count()),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


class Run:
    """Job outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, kind: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"# FAIL {kind} job {self.attempted}: " + "; ".join(errors), file=sys.stderr)


def measure(workload, seed: int, seconds: float, work: Path, run: Run) -> dict[str, float]:
    """Untraced run: end-to-end metrics."""
    inputs = work / "inputs"
    setup = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup(seed, fresh_dir(inputs))
        setup.append(time.perf_counter() - start)
    interpreter_start(child_env())  # compiles bytecode; not timed
    jobs, peaks = [], []
    deadline = time.perf_counter() + seconds
    with Launcher() as launcher:
        while True:
            wall, peak_kib, errors = run_cli_job(workload, inputs, work / "cli", launcher)
            run.record("cli", errors)
            jobs.append(wall)
            peaks.append(peak_kib / 1024)
            if time.perf_counter() + wall / 2 > deadline:
                break
    value, percentile, beyond = tail(jobs)
    print(f"# cli jobs: {len(jobs)}  set-ups: {len(setup)}")
    print(f"# job_s_tail: p{percentile:.1f} of {len(jobs)} jobs, {beyond} beyond it")
    print(f"# peak_rss_mb: median over {len(peaks)} cli jobs of the largest child ru_maxrss")
    print(f"# fail_ratio: {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    return {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(jobs),
        "job_s_tail": value,
        "peak_rss_mb": statistics.median(peaks),
    }


def measure_traced(workload, seed: int, seconds: float, work: Path, run: Run) -> dict[str, float]:
    """Traced run: per-layer metrics, tracing overhead, traced-path agreement."""
    import spans

    inputs = work / "inputs"
    workload.setup(seed, fresh_dir(inputs))
    env = child_env()
    interpreter_start(env)  # compiles bytecode; not timed
    startups = [interpreter_start(env) for _ in range(STARTUPS)]

    with Launcher() as launcher:
        _, _, errors = run_cli_job(workload, inputs, work / "cli", launcher)
    run.record("cli", errors)
    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        wall, errors = run_lib_job(workload, inputs, work / "lib")
        run.record("lib", errors)
        plain.append(wall)
        tracer.job += 1
        with spans.patched(tracer), tracer.span("job"):
            wall, errors = run_lib_job(workload, inputs, work / "traced", tracer.span)
        run.record("traced lib", errors)
        traced.append(wall)
        now = time.perf_counter()
        if now + (now - start) / 2 > deadline:
            break

    # the traced library path must write what the CLI job wrote
    differ = [
        name
        for name in workload.outputs
        if not all((work / side / name).is_file() for side in ("cli", "traced"))
        or (work / "cli" / name).read_bytes() != (work / "traced" / name).read_bytes()
    ]
    errors = [f"traced library output differs from the CLI's: {differ}"] if differ else []
    run.record("agreement", errors)

    metrics = spans.layer_medians(tracer.spans)
    metrics["cli.startup_s"] = statistics.median(startups)
    metrics["cer.edit_counts.peak_mb"] = edit_counts_peak_mb(tracer)
    metrics["lib_s_p50"] = statistics.median(plain)
    metrics["trace.lib_s_p50"] = statistics.median(traced)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    trace_file = WORK / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_file)
    print(f"# traced jobs: {len(traced)}  untraced library jobs: {len(plain)}")
    print(f"# spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    print(f"# fail_ratio: {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    return metrics


def edit_counts_peak_mb(tracer) -> float:
    """tracemalloc peak of the largest edit_counts call seen, rerun on its own."""
    if "cer.edit_counts" not in tracer.largest:
        return 0.0
    from diarscore import cer

    _, args = tracer.largest["cer.edit_counts"]
    tracemalloc.start()
    try:
        cer.edit_counts(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run; its metrics are those BENCHMARK.json lists for the mode.

    A per-layer metric of a function the workload never calls is 0.
    """
    import workloads

    workload = workloads.WORKLOADS[name](tiny=tiny)
    work = fresh_dir(WORK / f"{name}-seed{seed}-pid{os.getpid()}")
    run = Run()
    try:
        if trace:
            measured = measure_traced(workload, seed, seconds, work, run)
        else:
            measured = measure(workload, seed, seconds, work, run)
        sizes = "  ".join(f"{k}={v}" for k, v in workload.sizes.items())
        print(f"# inputs: {sizes}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in benchmark_spec()["per_layer" if trace else "end_to_end"]:
        value = measured.get(m["name"], 0) if trace else measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']}: {value:.6g} {m['unit']}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """Tiny sizes, every workload, both modes: metric names and checks only.

    Every end-to-end metric must be non-zero on every workload, and every
    per-layer metric non-zero on at least one, which catches a name in
    BENCHMARK.json that no span or counter produces.
    """
    import workloads

    spec = benchmark_spec()
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    layers_seen = set()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=0, seconds=0.5, trace=trace, tiny=True)
            nonzero = {k for k, m in result["metrics"].items() if m["value"]}
            if trace:
                layers_seen |= nonzero
            elif len(nonzero) != len(spec["end_to_end"]):
                zero = set(result["metrics"]) - nonzero
                problems.append(f"{name}: end-to-end metrics reading 0: {zero}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed jobs")
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in layers_seen]
    if never:
        problems.append(f"per-layer metrics 0 on every workload: {never}")
    for p in problems:
        print(f"SMOKE FAIL: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop)  # clean up children and scratch files
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="der_corpus, cpcer_meeting or pipeline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, checks only")
    args = parser.parse_args(argv)
    if not (SRC / "diarscore" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'diarscore'} or BENCHMARK.json not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import diarscore  # noqa: F401  (fails here, not mid-run, when it cannot load)
    except ImportError as exc:
        print(f"error: cannot import diarscore from {SRC}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    print(
        f"# workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}"
        f"  trace: {args.trace}"
    )
    print("# environment: " + "  ".join(f"{k}={v}" for k, v in environment().items()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
