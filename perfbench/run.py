#!/usr/bin/env python3
"""cubicf benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload expand-deep --seed 1 --seconds 30 --trace 0

Operations run in rounds until their timed total reaches --seconds.  Every
operation's output is checked.  The run prints a report and, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced rounds of the same operations, so its tracing overhead is measured
on identical work, and writes its spans to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # launches before every round and after the last, so they span the run


class RequestTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no library handler swallows it."""

    def __init__(self, where: str):
        super().__init__(where)
        self.where = where


def _on_alarm(signum, frame):
    where = "?"
    while frame is not None:
        path = Path(frame.f_code.co_filename)
        if "cubicf" in path.parts:
            where = f"cubicf.{path.stem}.{frame.f_code.co_name}"
            break
        frame = frame.f_back
    raise RequestTimeout(where)


def run_op(op, tracer=None):
    """Time one operation, then check it.  Returns (seconds, problem or None, timed out)."""
    problem, timed_out, out = None, False, None
    start = time.perf_counter()
    try:
        if op.limit_s:
            signal.setitimer(signal.ITIMER_REAL, op.limit_s)
        try:
            out = tracer.run(op.rid, op.run) if tracer else op.run()
        finally:
            if op.limit_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout as exc:
        problem, timed_out = f"timed out after {op.limit_s:g} s in {exc.where}", True
    except Exception as exc:  # a library error is a failed operation, not a failed run
        problem = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if problem is None:
        try:
            problem = op.check(out)
        except Exception as exc:  # malformed output
            problem = f"output check raised {type(exc).__name__}: {exc}"
    return elapsed, problem, timed_out


class Tally:
    def __init__(self, reset):
        self.reset = reset  # called before each operation
        self.rounds: list[tuple[float, int, int]] = []  # (seconds, operations, certified steps)
        self.latencies: list[list[float]] = []  # per round, in ms
        self.by_kind: dict[str, list[float]] = {}  # latencies in ms, by operation kind
        self.failures: list[tuple[str, str]] = []
        self.wrong = 0  # failures other than timeouts: an output was missing or incorrect

    @property
    def attempted(self) -> int:
        return sum(n for _, n, _ in self.rounds)

    def round(self, ops, tracer=None) -> float:
        latencies, steps = [], 0
        for op in ops:
            self.reset()
            elapsed, problem, timed_out = run_op(op, tracer)
            latencies.append(1000 * elapsed)
            self.by_kind.setdefault(op.kind, []).append(1000 * elapsed)
            if problem:
                self.failures.append((op.rid, problem))
                self.wrong += not timed_out
            else:
                steps += op.steps
        total = sum(latencies) / 1000
        self.rounds.append((total, len(ops), steps))
        self.latencies.append(latencies)
        return total


def _p90(latencies: list[float]) -> float:
    """Interpolated between observed latencies (inclusive method)."""
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def end_to_end(tally: Tally, setup: list[float]) -> dict:
    """Throughput over the whole run; p50 and p90 taken per round, then
    averaged over rounds.  On a shared machine whose speed switches between
    states that last tens of seconds, a median over a run's few rounds
    snaps to one state, while a mean moves with the share of time spent in
    each.  p90 is taken per round so that on the deep workloads, with 2-3
    operations a round, it stays near each round's slowest operation."""
    timed = sum(t for t, _, _ in tally.rounds)
    return {
        "setup_s": statistics.median(setup),
        "steps_per_s": sum(s for _, _, s in tally.rounds) / timed,
        "requests_per_s": tally.attempted / timed,
        "request_p50_ms": statistics.fmean(map(statistics.median, tally.latencies)),
        "request_p90_ms": statistics.fmean(map(_p90, tally.latencies)),
        "ok_share": (tally.attempted - len(tally.failures)) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def probe_setup(args) -> list[float]:
    """Launch the workload's process SETUP_PROBES times; each sample runs
    from launch until the process is ready for its first timed operation."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe exited with code {code}")
        samples.append(ready - start)
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cubicf" / "__init__.py").is_file():
        print(f"error: no cubicf sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed).round_ops(0)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    wl = workloads.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally(workloads.reset_caches)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        ops = wl.round_ops(0)  # the same round throughout, so traced and untraced work is identical
        untraced, traced, timed = [], [], 0.0
        while timed < args.seconds or not traced:
            untraced.append(tally.round(ops))
            tracer.install(layers.SUMMARIES)
            try:
                traced.append(tally.round(ops, tracer))
            finally:
                tracer.uninstall()
            timed += untraced[-1] + traced[-1]
        values, lines, table = layers.metrics(tracer, args.workload, untraced, traced)
        wanted = spec["per_layer"]
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, table)
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        setup, r, timed = [], 0, 0.0
        while timed < args.seconds:
            setup += probe_setup(args)
            timed += tally.round(wl.round_ops(r))
            r += 1
        setup += probe_setup(args)
        values = end_to_end(tally, setup)
        wanted = spec["end_to_end"]
        attempted = tally.attempted
        lines = [
            f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}",
            f"{attempted} operations in {len(tally.rounds)} rounds, {timed:.2f} s timed; round seconds: "
            + ", ".join(f"{t:.3f}" for t, _, _ in tally.rounds),
            f"failed_share {len(tally.failures) / attempted:.6f} ({len(tally.failures)} of {attempted})",
        ]
        lines.append("latency by operation kind:")
        lines += [f"  {kind:<28} {len(ms):>5} ops, median {statistics.median(ms):9.2f} ms, "
                  f"{100 * sum(ms) / 1000 / timed:6.2f}% of timed"
                  for kind, ms in sorted(tally.by_kind.items())]
        alias = {"expand-deep": "expand_quotients_per_s", "verify-certify": "verify_steps_per_s"}
        if args.workload in alias:
            lines.append(f"{alias[args.workload]} {values['steps_per_s']:.4f} 1/s")
    for rid, problem in tally.failures:
        lines.append(f"failed: {rid}: {problem}")
    print("\n".join(lines))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
