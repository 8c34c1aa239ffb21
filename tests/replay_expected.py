"""Replay every command of ``bench/expected.json`` in process and compare its output.

    PYTHONPATH=src python tests/replay_expected.py [WORKLOAD ...]

``bench/expected.json`` holds the exit code and structured-stdout SHA-256 of
every command the benchmark can issue (``bench/inputs.all_items``: 1488 of
them).  Each one runs here through ``cli.main`` in process, on inputs that
``bench/inputs.materialize`` writes to a temporary directory.  The workloads
named on the command line (``catalog``, ``solve``, ``check``) are replayed,
or all of them when none is named.  Every command whose exit code or digest
differs from its record is printed, and the script exits 1 if there is any
(2 for a workload with no record).  It needs only the standard library, so
it runs under every supported Python, pytest or not; ``test_bench_replay``
replays a sample of the same commands with its loader and runner.  Nothing
under ``bench/`` is written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from rhizalab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_inputs():
    """``bench/inputs.py`` as a module (``bench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def outcome(argv) -> dict:
    """The exit code of ``rhizalab argv`` run in process, and the SHA-256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def replay_all(workloads=()) -> int:
    """Replay every recorded command of ``workloads`` (all when empty); print each mismatch and the
    totals, and return the exit code."""
    inputs = load_inputs()
    expected = json.loads((BENCH / "expected.json").read_text())
    unknown = sorted(set(workloads) - set(expected))
    if unknown:
        print(f"unknown workload(s) {unknown}; recorded: {sorted(expected)}")
        return 2
    total = mismatches = 0
    with tempfile.TemporaryDirectory() as workdir:
        for workload in sorted(set(workloads) or expected):
            for t, idx in inputs.all_items(workload):
                key = f"{t.name}#{idx}"
                argv, _ = inputs.materialize(t, idx, Path(workdir))
                got = outcome(argv)
                total += 1
                if got != expected[workload][key]:
                    mismatches += 1
                    print(f"mismatch: {workload} {key}: got {got}, expected {expected[workload][key]}")
    print(f"{total} commands replayed, {mismatches} mismatches (Python {sys.version.split()[0]})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(replay_all(sys.argv[1:]))
