"""Benchmark for the deixis CLI.

    python3 perfbench/run.py --workload eval-vg --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 2 --seconds 25
    python3 perfbench/run.py --workload train-steps --trace 1 --size smoke

Run from the repository root. Each workload (see workloads.py) generates
its inputs from --seed, then runs one `deixis` command again and again,
one at a time (a closed loop with a single client), until --seconds have
passed. Every run gets a fresh directory, its output is checked, and a
run that exits non-zero, times out or fails its check counts as failed.

With --trace 0 the end-to-end metrics are printed: median wall time,
start-up time (median wall time of `deixis --version`, run between the
workload's runs), throughput in items per second of work after start-up,
and median peak resident memory. With --trace 1 untraced and traced runs
alternate; the traced ones (traced.py) give each layer's self time, call
count and per-call percentiles, the deterministic counters, and the
tracing overhead. Both modes print error_rate, the share of failed runs;
it is 0 when all is well, so the JSON result carries it as the attempted
and failed counts rather than as a metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Scratch files go under
.bench_work/ in the repository and are removed at exit. --size smoke
runs every workload in seconds for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import AT_LEAST_ONE, SIZES, WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
UNTRACED = ("-c", "import sys; from deixis.cli import main; sys.exit(main())")
MIN_RUNS = 3
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput": "items/s",
    "peak_rss_mb": "MB",
}
TIMED_STATS = ("self_ms", "calls", "p50_ms", "p90_ms")
# Per-layer metrics reported from the traced runs: layer -> stats.
LAYER_STATS = {
    "scene.load_scene_graphs": ("self_ms",),
    "datasets.load_deivg": ("self_ms",),
    "scene.scene_graph_to_facts": TIMED_STATS,
    "training.mixture_facts": ("self_ms", "calls"),
    "rulegen.template_rulegen": ("self_ms", "calls"),
    "logic.parse_program": ("self_ms",),
    "unify.load_word2vec": ("self_ms",),
    "unify.unify_program": ("self_ms", "calls"),
    "grounding.ground_program": TIMED_STATS,
    "grounding.ReasoningGraph": ("self_ms", "p50_ms", "p90_ms"),
    "reasoner.forward": TIMED_STATS,
    "reasoner.backward": TIMED_STATS,
    "reasoner.extract_targets": ("self_ms",),
    "training.evaluate_mixture": ("self_ms",),
    "training.train_mixture": ("self_ms",),
    "evaluation.evaluate_instances": ("self_ms",),
    "cli": ("self_ms",),
}
COUNTER_UNITS = {
    "grounding.universe": "count",
    "grounding.atoms": "count",
    "grounding.conj": "count",
    "grounding.max_fan_in": "count",
    "grounding.dead_conj": "count",
    "grounding.live_conj_ratio": "share",
    "training.groundings_per_example": "ratio",
    "reasoner.fallback_share": "share",
    "unify.substitutions": "count",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_command(argv: list[str], cwd: Path, timeout: float) -> dict:
    """Run one process to completion; wall time from launch to exit and
    its peak resident memory, read from the kernel's rusage on reaping."""
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        lock = threading.Lock()
        state = {"exited": False, "timed_out": False}

        def expire() -> None:
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            # Wait without reaping, so the timer never signals a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": state["timed_out"],
    }


def failure(result: dict, cwd: Path) -> str | None:
    if result["timed_out"]:
        return "timed out"
    if result["code"] != 0:
        tail = (cwd / "stderr.txt").read_text(errors="replace").strip()
        return f"exit {result['code']}: {tail.splitlines()[-1] if tail else ''}"
    return None


def summarize_spans(spans: list[list]) -> dict[str, dict]:
    """Per layer: summed self time, call count and per-call self times.
    Self time is a span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: dict[str, dict] = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        layer = layers.setdefault(name, {"self": [], "calls": 0})
        layer["self"].append((end - start - child) * 1000.0)
        layer["calls"] += 1
    return layers


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1
    ]


def counter_metrics(raw: dict) -> dict[str, float]:
    conj = raw["grounding.conj"]
    return {
        "grounding.universe": raw["grounding.universe"],
        "grounding.atoms": raw["grounding.atoms"],
        "grounding.conj": conj,
        "grounding.max_fan_in": raw["grounding.max_fan_in"],
        "grounding.dead_conj": raw["grounding.dead_conj"],
        "grounding.live_conj_ratio": (
            raw["grounding.live_conj"] / conj if conj else 0.0
        ),
        "training.groundings_per_example": (
            raw["grounding.calls"] / raw["grounding.distinct_examples"]
            if raw["grounding.distinct_examples"] else 0.0
        ),
        "reasoner.fallback_share": (
            raw["reasoner.fallbacks"] / raw["reasoner.predictions"]
            if raw["reasoner.predictions"] else 0.0
        ),
        "unify.substitutions": raw["unify.substitutions"],
    }


def layer_metrics(traces: list[dict],
                  expected: dict[str, int]) -> tuple[dict, list[str]]:
    """Per-layer metrics over one or more traced runs. A layer whose call
    count does not match the workload's known count is left out and named
    in the returned list, so work that moved out of a wrapped function
    reads as missing, never as zero."""
    metrics: dict[str, dict] = {}
    problems: list[str] = []
    per_run = [summarize_spans(t["spans"]) for t in traces]
    for layer, stats in LAYER_STATS.items():
        calls = [run.get(layer, {"calls": 0})["calls"] for run in per_run]
        want = expected.get(layer, 0)
        if len(set(calls)) != 1:
            problems.append(f"{layer}: call count varies across runs {calls}")
            continue
        got = calls[0]
        if (want == AT_LEAST_ONE and got < 1) or (want >= 0 and got != want):
            need = "at least 1" if want == AT_LEAST_ONE else want
            problems.append(f"{layer}: {got} calls, expected {need}")
            continue
        spans = [run.get(layer, {"self": []})["self"] for run in per_run]
        pooled = [ms for run in spans for ms in run]
        values = {
            "self_ms": statistics.median(sum(run) for run in spans),
            "calls": got,
            "p50_ms": quantile(pooled, 0.5) if pooled else 0.0,
            "p90_ms": quantile(pooled, 0.9) if pooled else 0.0,
        }
        for stat in stats:
            unit = "count" if stat == "calls" else "ms"
            metrics[f"{layer}.{stat}"] = {"value": values[stat], "unit": unit}
    for name, value in counter_metrics(traces[0]["counters"]).items():
        metrics[name] = {"value": value, "unit": COUNTER_UNITS[name]}
    return metrics, problems


class Runner:
    """Launches commands one at a time, each in a fresh directory under
    base, and keeps every result and every failure."""

    def __init__(self, base: Path, deadline: float) -> None:
        self.base = base
        self.deadline = deadline
        self.attempts: list[dict] = []
        self.errors: list[str] = []

    def launch(self, argv, check=None) -> dict:
        """argv(dir) gives the command's arguments; check(dir) inspects
        its output and returns a problem or None."""
        cwd = self.base / f"run{len(self.attempts) + 1}"
        cwd.mkdir()
        timeout = max(5.0, self.deadline - time.perf_counter())
        result = run_command(argv(cwd), cwd, timeout)
        problem = failure(result, cwd) or (check and check(cwd))
        result["ok"] = problem is None
        if problem:
            self.errors.append(f"run {len(self.attempts) + 1}: {problem}")
        elif (cwd / "spans.json").exists():
            with open(cwd / "spans.json", encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        shutil.rmtree(cwd)
        self.attempts.append(result)
        return result


def build_inputs(name: str, seed: int, size: str, out: Path) -> Inputs:
    """Generate a workload's inputs in a child process. Linux carries a
    process's peak memory across exec into its children, so the harness
    itself must stay smaller than any command it measures."""
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(seed), size,
         str(out)],
        env=child_env(), capture_output=True, text=True,
        timeout=RUN_DEADLINE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return Inputs.from_json(proc.stdout)


def version_argv(cwd: Path) -> list[str]:
    return [*UNTRACED, "--version"]


def end_to_end_metrics(runs: list[dict], setup: list[dict], items: int,
                       runner: Runner, log) -> dict:
    setup_s = statistics.median(r["wall_s"] for r in setup)
    wall = statistics.median(r["wall_s"] for r in runs)
    peak_rss = statistics.median(r["rss_mb"] for r in runs)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if peak_rss <= own_rss:
        runner.errors.append(
            f"peak RSS {peak_rss:.1f} MB is not above the harness's own "
            f"{own_rss:.1f} MB, so it may be the harness's"
        )
    log("  wall per run (s): " + " ".join(f"{r['wall_s']:.4f}" for r in runs))
    log("  start-up per run (s): "
        + " ".join(f"{r['wall_s']:.4f}" for r in setup))
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "throughput": items / (wall - setup_s),
        "peak_rss_mb": peak_rss,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in metrics.items()}


def traced_metrics(runs: list[dict], expected: dict[str, int],
                   runner: Runner, log) -> dict:
    traces = [r["trace"] for r in runs if r.get("trace")]
    if not traces:
        runner.errors.append("no traced run succeeded")
        return {}
    metrics, missing = layer_metrics(traces, expected)
    for problem in missing:
        log(f"  missing: {problem}")
    if any(t["counters"] != traces[0]["counters"] for t in traces):
        runner.errors.append("counters differ between traced runs")
    untraced = [r["wall_s"] for r in runs if not r["traced"]]
    traced = [r["wall_s"] for r in runs if r["traced"]]
    if untraced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            base: Path, log) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(base, time.perf_counter() + RUN_DEADLINE_S)
    inputs = build_inputs(name, seed, size, base / "inputs")
    state: dict = {}

    def check(cwd: Path) -> str | None:
        return workload.check(inputs, cwd, state)

    def command(traced: bool, run_id: int):
        def argv(cwd: Path) -> list[str]:
            args = workload.argv(inputs, cwd)
            if traced:
                return [str(HERE / "traced.py"), str(cwd / "spans.json"),
                        str(run_id), "--", *args]
            return [*UNTRACED, *args]

        return argv

    # The first start-up compiles bytecode; later ones are what users pay.
    runner.launch(version_argv)
    runs: list[dict] = []
    setup: list[dict] = []
    loop_start = time.perf_counter()
    # Start-up runs are interleaved with the workload's runs so that both
    # medians see the same stretch of machine time. With tracing, traced
    # and untraced runs alternate instead.
    while (len(runs) < MIN_RUNS * (2 if trace else 1)
           or time.perf_counter() - loop_start < seconds):
        if not trace:
            setup.append(runner.launch(version_argv))
        traced = trace and len(runs) % 2 == 1
        result = runner.launch(command(traced, len(runs)), check)
        result["traced"] = traced
        runs.append(result)
        if result["timed_out"]:
            break

    log(f"workload {name}  seed {seed}  size {size}  items {inputs.items}  "
        f"runs {len(runs)}  start-up runs {len(setup)}")
    good = [r for r in runs if r["ok"]] or runs
    if trace:
        metrics = traced_metrics(good, workload.calls(inputs), runner, log)
    else:
        metrics = end_to_end_metrics(
            good, [r for r in setup if r["ok"]] or setup, inputs.items,
            runner, log,
        )
    for key, metric in metrics.items():
        log(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = len(runner.attempts), len(runner.errors)
    log(f"  {'error_rate':40s} {failed / attempted:.6g} share "
        f"({failed} of {attempted} runs)")
    for error in runner.errors:
        log(f"  failed: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(name: str, args, log) -> dict:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        return measure(name, args.seed, args.seconds, bool(args.trace),
                       args.size, base, log)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    # Stopping the benchmark unwinds it, so it stops its command and
    # removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "deixis" / "cli.py").is_file():
        print(f"error: no deixis sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    if args.workload != "all":
        result = run_workload(args.workload, args, log)
        print(json.dumps(result))
        return 0
    results = {name: run_workload(name, args, log) for name in WORKLOADS}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
