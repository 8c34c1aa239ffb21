"""rhizalab benchmark: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload catalog|solve|check|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; rhizalab is imported from ``src/``.  The
run writes its seeded inputs under ``.bench_work/`` before timing starts,
then runs the workload's fixed command list through ``rhizalab.cli.main``
in three passes, each in a fresh worker process (one thread, closed loop,
one client), so nothing a pass caches reaches the next.  The list is sized
so that one pass takes a quarter of ``--seconds`` on the baseline host,
which leaves room for the cold starts and for a slower host.  Every command's
exit code and structured-stdout digest is checked against
``bench/expected.json`` in every pass.

``--trace 0`` reports the end-to-end metrics.  The host is shared, and its
speed drifts by tens of percent within seconds and by up to twice over
minutes.  So each command's wall time is scaled by how fast the host ran
around it: the worker times a fixed reference computation before and after
every command (see ``worker.py``), and the wall time is multiplied by
``REF_NOMINAL_S`` over that reference time.  Times are thus seconds on the
baseline host at its quiet speed.  A command's time is the median of its
three scaled passes.  ``setup_s`` is the median of cold starts spread over
the run, a group before each pass, each scaled by a reference burst run in
the same fresh interpreter right after it.

``--trace 1`` makes the middle pass a traced one, with every public rhizalab
function wrapped (see ``tracing.py``), requires its stdout to be byte-
identical to the untraced passes, and reports the per-layer metrics and the
tracing overhead (scaled the same way) against the mean of the untraced
passes around it.  Per-layer times are scaled by the traced pass's median
reference time.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A command fails when any pass of it has a wrong
exit code, a stdout digest that differs from the expected file, an uncaught
exception or an oracle disagreement.  Commands listed as known defects
(malformed files the loaders do not reject yet) count as failed but leave
``correct`` true; any other failure makes it false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

PASSES = 3
TRACED_PASS = 1
SETUP_SPAWNS_PER_PASS = 7
# Median time of worker.reference() on the baseline host (2-core x86-64 Xeon,
# Python 3.11.7) in a quiet stretch; scaled times are in these seconds.
REF_NOMINAL_S = 0.0024
RUN_BUDGET_S = 170  # a run must end within 180 s; every child process gets what is left

# Cold start as a user pays it: import rhizalab, build the CLI parser, load all
# 23 catalog entries.  Timed inside a fresh interpreter, which then times the
# reference computation.
SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from rhizalab import catalog, cli
cli.build_parser()
entries = [catalog.load_entry(e, {"eta": Fraction(1)}) for e in catalog.entry_ids()]
setup_s = perf_counter() - t0
assert len(entries) == 23, len(entries)
sys.path.insert(0, sys.argv[2])
from worker import reference_burst
print(setup_s, reference_burst(0.015))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, worker crash)."""


def python_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - monotonic())


def measure_setup(spawns: int, deadline: float) -> list[float]:
    times = []
    for _ in range(spawns):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
            cwd=ROOT,
            env=python_env(),
            capture_output=True,
            text=True,
            timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.strip()}")
        setup_s, ref_s = map(float, proc.stdout.split())
        times.append(setup_s * REF_NOMINAL_S / ref_s)
    return times


def run_worker(plan_path: Path, result_path: Path, trace: bool, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path), "1" if trace else "0"],
        cwd=ROOT,
        env=python_env(),
        capture_output=True,
        text=True,
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def scaled_walls(results: list[dict]) -> list[float]:
    """Wall times in seconds of the baseline host (see ``REF_NOMINAL_S``)."""
    return [r["wall_s"] * REF_NOMINAL_S / r["ref_s"] for r in results]


def judge(commands, passes: list[list[dict]], expected: dict) -> list[str | None]:
    """Per command: None when every pass of it passed, else why one failed."""
    verdicts = []
    for i, cmd in enumerate(commands):
        want = expected.get(cmd.key)
        why = None if want else "no expected output recorded"
        for results in passes:
            if why:
                break
            res = results[i]
            if res["exception"]:
                why = f"uncaught {res['exception']}"
            elif res["exit"] != want["exit"]:
                why = f"exit {res['exit']}, expected {want['exit']}"
            elif res["sha256"] != want["sha256"]:
                why = "stdout digest differs from the expected file"
            elif res["oracle_disagreements"]:
                why = "oracle disagreement"
        verdicts.append(why)
    return verdicts


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten commands beyond it, and that percentile."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(walls: list[float], verdicts, setup_s: float, peak_rss_mb: float) -> tuple[dict, list[str]]:
    ok = [v is None for v in verdicts]
    tail_s, pct = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_cmd_per_s": (sum(ok) / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_s, "s"),
        # a failed command counts as missing the limit
        "under_1s_share": (sum(1 for w, good in zip(walls, ok) if good and w < 1.0) / len(walls), "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"latency_tail_s is p{pct:.1f} of {len(walls)} commands"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(inputs.WORKLOADS), "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rhizalab" / "cli.py").is_file():
        print(f"error: no rhizalab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    expected_path = BENCH / "expected.json"
    if not expected_path.is_file():
        print(f"error: {expected_path} is missing; run bench/record.py", file=sys.stderr)
        return 2
    recorded = json.loads(expected_path.read_text())
    workloads = sorted(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        code = run_workload(workload, args.seed, args.seconds, bool(args.trace), recorded[workload])
        if code:
            return code
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, recorded: dict) -> int:
    deadline = monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = inputs.build_commands(workload, seed, seconds / (PASSES + 1), workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps({"src": str(SRC), "commands": [c.argv for c in commands]}))
        if not trace:
            measure_setup(1, deadline)  # may compile bytecode; not a cold start users see twice
        setups, passes = [], []
        for p in range(PASSES):
            if not trace:
                setups += measure_setup(SETUP_SPAWNS_PER_PASS, deadline)
            traced = trace and p == TRACED_PASS
            passes.append(run_worker(plan_path, workdir / f"pass{p}.json", traced, deadline))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    plain = [doc["results"] for doc in passes if "layers" not in doc]
    verdicts = judge(commands, plain, recorded)
    failed = [(c, v) for c, v in zip(commands, verdicts) if v is not None]
    unexpected = [(c, v) for c, v in failed if not c.known_defect]
    for c, v in failed:
        label = f"known defect ({c.known_defect})" if c.known_defect else "FAILED"
        print(f"{label}: {c.key}: {v}")

    notes = []
    if trace:
        traced = passes[TRACED_PASS]
        mismatch = [
            c.key
            for i, c in enumerate(commands)
            if any((r[i]["exit"], r[i]["sha256"]) != (traced["results"][i]["exit"], traced["results"][i]["sha256"]) for r in plain)
        ]
        for key in mismatch:
            print(f"FAILED: {key}: traced stdout differs from untraced stdout")
        layers = dict(traced["layers"])
        layers["cli.stdout_bytes"] = sum(r["bytes"] for r in traced["results"])
        layers["oracle.disagreements"] = sum(r["oracle_disagreements"] for r in traced["results"])
        untraced_s = statistics.mean(sum(scaled_walls(results)) for results in plain)
        layers["trace.overhead_share"] = sum(scaled_walls(traced["results"])) / untraced_s - 1.0
        host = statistics.median(r["ref_s"] for r in traced["results"]) / REF_NOMINAL_S
        metrics = {name: (layers[name] / host if unit == "s" else layers[name], unit) for name, unit in layer_units().items()}
        correct = not unexpected and not mismatch
    else:
        walls = [statistics.median(per_pass) for per_pass in zip(*(scaled_walls(results) for results in plain))]
        peak_rss_mb = max(doc["peak_rss_mb"] for doc in passes)
        metrics, notes = end_to_end(walls, verdicts, statistics.median(setups), peak_rss_mb)
        host = statistics.median(r["ref_s"] for results in plain for r in results) / REF_NOMINAL_S
        raw = sum(min(results[i]["wall_s"] for results in plain) for i in range(len(commands)))
        notes.append(f"host ran {host:.3g}x the reference time; unscaled best-pass wall time of the list {raw:.4g} s")
        correct = not unexpected

    attempted = len(commands)
    print(f"workload {workload}, seed {seed}: {attempted} commands x {PASSES} passes, {len(failed)} failed")
    print(f"ops_failed_share = {len(failed) / attempted:.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def layer_units() -> dict[str, str]:
    """Per-layer metric names (as in BENCHMARK.json) and their units."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
