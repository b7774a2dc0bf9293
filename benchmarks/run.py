"""palwidth benchmark: one seeded workload, closed loop, one client.

    python3 benchmarks/run.py --workload lamps --seed 1 --seconds 18 --trace 0

Run from anywhere; the program under test is the ``src/palwidth`` beside this
directory.  Each op starts after the previous one returns, in this process
(``cli`` runs one subprocess at a time).  Every output is checked by the
independent reference checker outside the op's timer, and a corrupted copy of
one output must be rejected (the negative self-test).

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off, as speed-normalized times (see ``hostspeed``); the raw wall
times are printed beside them.  ``--trace 1`` runs a fixed number of ops, each once untraced
and once under each of two tracers, reports the per-layer metrics, and
requires every count to repeat exactly between the two traced passes.  Human-readable ``metric`` lines come
first; the last line of stdout is the JSON result.  Full details, the
environment, and the spans of the first traced pass go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import (CLI_TIMEOUT_S, Cli, CliOutput, cli_command,  # noqa: E402
                       make_workloads)

MODULES = ("words", "lattice", "wreath", "symmetric", "wreath_factor", "lamplighter",
           "skew", "metabelian", "metabelian_factor", "certificates", "cli")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
TAIL_BEYOND = 10
MAX_FAILURES = 50   # a program that fails every op ends the run early
# The timed loop also stops after this many times --seconds of wall op time,
# which bounds a run's length should the host be slower than ever seen (1.7x).
MAX_WALL_FACTOR = 1.75


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_palwidth() -> SimpleNamespace:
    """A fresh import of every palwidth module from SRC."""
    for name in [m for m in sys.modules if m == "palwidth" or m.startswith("palwidth.")]:
        del sys.modules[name]
    importlib.import_module("palwidth")
    importlib.import_module("palwidth.cli")
    found = Path(sys.modules["palwidth"].__file__).resolve().parent
    if found != (SRC / "palwidth").resolve():
        raise RuntimeError(f"imported palwidth from {found}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"palwidth.{m}"] for m in MODULES})


def setup(workload, seed: int, workdir: Path, speed: hostspeed.HostSpeed):
    """Import palwidth and generate the seeded inputs SETUP_REPEATS times;
    the last import and inputs are used.  Returns the median speed-normalized
    and the median wall time of the repeats, the modules and the inputs."""
    spans = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        pw = import_palwidth()
        cases = workload.pool(pw, random.Random(f"{workload.name}:{seed}"), workdir)
        spans.append((start, time.perf_counter()))
    for _ in range(hostspeed.NEIGHBOURS):
        speed.sample()
    normalized = [(end - start) / speed.slowdown(start, end) for start, end in spans]
    wall = [end - start for start, end in spans]
    return statistics.median(normalized), statistics.median(wall), pw, cases


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed ops; an op fails if it raises, exits non-zero,
    or fails the reference check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recent_ok: list[tuple] = []   # a few verified (case, output) pairs

    def run(self, workload, case, op, pw, timer=None):
        """One op: run it (under `timer` if given), then check it untimed.
        Returns the op's wall time in seconds and its output."""
        start = time.perf_counter()
        try:
            output = op(pw, case) if timer is None else timer(op, pw, case)
            error = None
        except Exception as exc:  # a crash is a failed op, not a failed run
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            error = workload.check(case, output)
        self.record(error)
        if error is None:
            self.recent_ok = self.recent_ok[-3:] + [(case, output)]
        return elapsed, output

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def self_test(workload, tally: Tally) -> bool:
    """A corrupted copy of a verified output must be counted as failed."""
    for case, output in reversed(tally.recent_ok):
        corrupted = workload.corrupt(case, output)
        if corrupted is not None:
            probe = Tally()
            probe.record(workload.check(case, corrupted))
            return probe.failed == 1
    return False


def warm_up(op, pw, case) -> None:
    """One untimed, unchecked op; a failure here shows up in the timed ops."""
    try:
        op(pw, case)
    except Exception:
        pass


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, i.e. the (TAIL_BEYOND+1)-th largest."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def _latency_metrics(ok: int, latencies: list[float]) -> dict:
    value, pct, beyond = tail(latencies)
    return {
        "ops_per_s": ok / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "_tail": f"p{pct:.2f}, {beyond} samples beyond, n={len(latencies)}",
    }


def timed_run(workload, pw, cases, seconds: float, tally: Tally,
              speed: hostspeed.HostSpeed) -> tuple[dict, dict]:
    """Closed loop over the input pool until `seconds` of speed-normalized op
    time is spent, so that which ops run depends on the seed and the program
    but not on how fast the host happens to be (up to MAX_WALL_FACTOR).
    Returns the metrics from speed-normalized op times and the same metrics
    from raw wall times."""
    warm_up(workload.op, pw, cases[0])
    spans: list[tuple[float, float]] = []
    busy = wall_busy = 0.0
    while (busy < seconds and wall_busy < MAX_WALL_FACTOR * seconds
           and tally.failed < MAX_FAILURES):
        if speed.due():
            speed.sample()
        start = time.perf_counter()
        elapsed, _ = tally.run(workload, cases[len(spans) % len(cases)], workload.op, pw)
        spans.append((start, start + elapsed))
        busy += elapsed / speed.slowdown(start, start)
        wall_busy += elapsed
    for _ in range(hostspeed.NEIGHBOURS):
        speed.sample()
    ok = tally.attempted - tally.failed
    values = _latency_metrics(ok, [(end - start) / speed.slowdown(start, end)
                                   for start, end in spans])
    wall = _latency_metrics(ok, [end - start for start, end in spans])
    values["error_rate"] = tally.failed / tally.attempted
    return values, wall


def peak_rss_mb(workload) -> float:
    """ru_maxrss of the process that did the work: this one, or the
    subprocesses for `cli`."""
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024


def traced_run(workload, pw, cases, seconds: float, tally: Tally, spans_path: Path,
               per_layer: list[dict]) -> tuple[dict, dict]:
    n = max(2, round(seconds * workload.trace_rate))
    batch = [cases[k % len(cases)] for k in range(n)]
    values: dict[str, float] = {}
    notes: dict[str, object] = {}
    op = workload.op
    if isinstance(workload, Cli):
        walls = [tally.run(workload, case, workload.op, pw)[1] for case in batch]
        walls = [w for w in walls if w is not None] or [CliOutput(None, None)]
        values["cli.factor.wall_ms"] = 1e3 * statistics.mean(w.factor_s for w in walls)
        values["cli.verify.wall_ms"] = 1e3 * statistics.mean(w.verify_s for w in walls)
        values["cli.startup_ms"] = 1e3 * statistics.median(
            _wall(workload.env, "--help") for _ in range(STARTUP_REPEATS))
        op = workload.op_in_process

    warm_up(op, pw, batch[0])
    # Each op runs untraced and under both tracers in turn, in rotating order,
    # so machine-speed drift cancels out of trace.overhead_pct.
    passes = [tracing.Tracer(), tracing.Tracer()]
    untraced = 0.0
    for k, case in enumerate(batch):
        for tracer in (passes + [None])[k % 3:] + (passes + [None])[:k % 3]:
            if tracer is None:
                untraced += tally.run(workload, case, op, pw)[0]
                continue
            tracer.op_id = k
            tracing.instrument(tracer, pw)
            try:
                _, output = tally.run(workload, case, op, pw,
                                      lambda fn, *args: tracer.call("op", fn, args, {}))
            finally:
                tracer.uninstall()
            if output is not None:
                tracer.counts["certificates.bytes"] += workload.cert_bytes(case, output)

    first, second = passes
    calls, self_ns = tracing.span_stats(first.spans + second.spans)
    repeat = (first.counts == second.counts
              and tracing.span_stats(first.spans)[0] == tracing.span_stats(second.spans)[0])
    first.write(spans_path)
    values["process.peak_rss_mb"] = peak_rss_mb(workload)

    traced_ms = 1e6 * 2 * n
    values["trace.op_ms"] = _total_ns(first.spans + second.spans, "op") / traced_ms
    values["trace.overhead_pct"] = 100.0 * (values["trace.op_ms"] / (1e3 * untraced / n) - 1)
    values["lamplighter.oracle_states"] = tracing.child_calls(
        first.spans, "wreath.multiply.lamplighter",
        "lamplighter.minimal_palindromic_length_bfs") / n
    for metric in per_layer:
        name = metric["name"]
        if name in values:
            continue
        if name.endswith(".self_ms"):
            values[name] = self_ns[name[:-len(".self_ms")]] / traced_ms
        elif name.endswith(".calls"):
            values[name] = calls[name[:-len(".calls")]] / (2 * n)
        elif name.startswith("cli."):
            values[name] = 0.0
        else:
            values[name] = first.counts[name] / n

    notes.update(trace_ops=n, counts_repeat=repeat, ratios=_ratios(values, calls, n))
    return values, notes


def _total_ns(spans: list[tuple], name: str) -> int:
    return sum(end - start for span_name, start, end, _, _ in spans if span_name == name)


def _wall(env: dict, *args: str) -> float:
    start = time.perf_counter()
    subprocess.run(cli_command(*args), env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start


def _ratios(values: dict, calls, n: int) -> dict:
    """The ratios the per-layer metrics are read through, each with its base."""
    out = {}
    factorizations = calls["metabelian_factor.factorize_metabelian"] / 2
    if factorizations:
        flow_calls = calls["metabelian.evaluate_word_flow.metabelian_factor"] / 2
        bundles = calls["metabelian_factor.palindromize_conjugated"] / 2
        out["metabelian.evaluate_word_flow.metabelian_factor.calls per factorization"] = {
            "value": flow_calls / factorizations, "base": factorizations,
            "expected_4_plus_2_bundles": 4 + 2 * bundles / factorizations}
    decisions = calls["lamplighter.two_palindrome_decision"] / 2
    if decisions:
        out["lamplighter.decompositions_found per two_palindrome_decision call"] = {
            "value": values["lamplighter.decompositions_found"] * n / decisions,
            "base": decisions}
    palindromes = values["lamplighter.oracle_palindromes"] * n
    if palindromes:
        out["lamplighter.oracle_states per oracle_palindromes"] = {
            "value": values["lamplighter.oracle_states"] / values["lamplighter.oracle_palindromes"],
            "base": palindromes}
    if values["trace.op_ms"]:
        share = (values["wreath.evaluate_word.wreath_factor.self_ms"]
                 + values["wreath.evaluate_word.certificates.self_ms"]) / values["trace.op_ms"]
        out["wreath.evaluate_word self time share of traced op time"] = {
            "value": share, "base_ms": values["trace.op_ms"]}
    return out


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "palwidth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "commit": commit,
            "src_sha256": digest.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lamps", "metabelian",
                                                                "width3", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "palwidth" / "__init__.py").is_file():
        print(f"error: no palwidth sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = make_workloads(SRC)[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    speed = hostspeed.HostSpeed()
    wall: dict = {}
    try:
        setup_s, wall["setup_s"], pw, cases = setup(workload, args.seed, workdir, speed)
        if args.trace:
            values, notes = traced_run(workload, pw, cases, args.seconds, tally,
                                       OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                                       declared)
        else:
            values, timed_wall = timed_run(workload, pw, cases, args.seconds, tally, speed)
            values["setup_s"] = setup_s
            notes = {"latency_tail_ms": values.pop("_tail")}
            wall.update((k, v) for k, v in timed_wall.items() if not k.startswith("_"))
            notes["peak_rss_mb"] = peak_rss_mb(workload)
        selftest = self_test(workload, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        units["error_rate"] = "ratio"
    env = environment()
    print(f"# palwidth benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        if name == "error_rate":
            extra = f"  ({tally.failed} failed / {tally.attempted} attempted)"
        print(f"metric {name} {values[name]:.6g} {unit}{extra}")
    if not args.trace:
        print(f"# host slowdown median {speed.median_slowdown():.4g} over "
              f"{len(speed.seconds)} samples; raw wall times follow")
        for name, value in wall.items():
            print(f"wall {name} {value:.6g} {units[name]}")
        print(f"# peak_rss_mb {notes['peak_rss_mb']:.6g} MB (reported by the traced run "
              f"as process.peak_rss_mb)")
    for name, ratio in notes.get("ratios", {}).items():
        print(f"ratio {name} " + " ".join(f"{k}={v:.6g}" for k, v in ratio.items()))
    if args.trace:
        print(f"trace ops per pass {notes['trace_ops']}; counts repeat across the two "
              f"traced passes: {notes['counts_repeat']}")
    print(f"selftest corrupted output counted as failed: {selftest}")
    for error in tally.errors:
        print(f"failure {error}")

    correct = tally.failed == 0 and selftest and notes.get("counts_repeat", True)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": m_unit}
                          for name, m_unit in units.items() if name != "error_rate"}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "result": result, "notes": notes, "wall": wall,
         "host_slowdown": speed.median_slowdown() if speed.seconds else None,
         "error_rate": tally.failed / max(tally.attempted, 1), "failures": tally.errors},
        indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
