"""Run one command list through ``rhizalab.cli.main`` in this process.

Usage: python3 bench/worker.py PLAN.json RESULT.json TRACE(0|1)

The plan names the source directory and the commands.  Commands run one
after another (a closed loop with a single client); each one's stdout and
stderr are captured, and its wall time covers only the ``main`` call.

Between commands, outside the timed region, the worker times a fixed
reference computation (``reference``) that shares no code with rhizalab,
for at least a tenth of the previous command's wall time.  The mean of the
bursts before and after a command says how fast the shared host ran while
the command did; ``run.py`` scales wall times by it.

The result file holds, per command, the exit code, the SHA-256 of stdout,
its size, the wall time, the reference time around it and any uncaught
exception, plus this process's peak resident memory and, when tracing, the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REF_SHARE = 0.1  # reference time after a command, as a share of its wall time

_rng = random.Random(3)
REF_MATRIX = [[Fraction(_rng.randint(-1, 1)) for _ in range(12)] for _ in range(10)]


def reference() -> None:
    """Gauss-Jordan elimination over Fractions of a fixed 10x12 matrix: the
    same kind of work as rhizalab's, on code of its own (about 3 ms)."""
    a = [row[:] for row in REF_MATRIX]
    rows, cols = len(a), len(a[0])
    rk = 0
    for c in range(cols):
        piv = next((r for r in range(rk, rows) if a[r][c]), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = 1 / a[rk][c]
        a[rk] = [x * inv for x in a[rk]]
        for r in range(rows):
            if r != rk and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        rk += 1
        if rk == rows:
            break


def reference_burst(min_s: float) -> float:
    """Seconds per ``reference`` call, over at least one call and ``min_s``."""
    enabled = gc.isenabled()
    gc.disable()  # the reference makes no cycles; keep the program's garbage out of its time
    try:
        calls, t0 = 0, perf_counter()
        while True:
            reference()
            calls += 1
            spent = perf_counter() - t0
            if spent >= min_s:
                return spent / calls
    finally:
        if enabled:
            gc.enable()


def run(plan: dict, trace: bool) -> dict:
    sys.path.insert(0, plan["src"])
    import rhizalab.cli as cli

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    gc.collect()
    before = reference_burst(0.0)
    for idx, argv in enumerate(plan["commands"]):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer is not None:
            tracer.cmd = idx
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as e:  # an uncaught exception is a failed command, not a benchmark error
            code = 1
            exc = f"{type(e).__name__}: {e}"
        wall = perf_counter() - t0
        gc.collect()
        after = reference_burst(REF_SHARE * wall)
        data = out.getvalue().encode("utf-8")
        stderr = err.getvalue()
        results.append(
            {
                "exit": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "wall_s": wall,
                "ref_s": (before + after) / 2,
                "exception": exc,
                "oracle_disagreements": stderr.count("ORACLE DISAGREEMENT") + stderr.count("oracle disagreement:"),
            }
        )
        before = after
    doc = {
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
    return doc


def main(argv: list[str]) -> int:
    plan_path, result_path, trace = argv
    plan = json.loads(Path(plan_path).read_text())
    doc = run(plan, trace == "1")
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
