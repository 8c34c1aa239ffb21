"""Standing byte-identity gate: replay the benchmark's commands in process.

``bench/expected.json`` holds the exit code and structured-stdout SHA-256 of
every command the benchmark can issue, recorded and cross-checked by
``bench/record.py``.  Every ``solve`` command (176, the whole pool of the
cyclic-form solvers) and items 0 and 1 of every other template (4 ``catalog``
and 74 ``check`` commands, two of the catalog ones under ``--oracle``) run
here through ``cli.main`` in process, on inputs written by
``bench/inputs.materialize``, and each must reproduce its recorded exit code
and digest.  A change that alters output on purpose re-records with
``bench/record.py``.  ``tests/replay_expected.py`` replays every command the
same way, without pytest.  Nothing under ``bench/`` is written.
"""

import json

import pytest

from tests.replay_expected import BENCH, load_inputs, outcome

SAMPLE = {"solve": 176, "catalog": 4, "check": 74}


@pytest.mark.parametrize("workload", sorted(SAMPLE))
def test_sampled_benchmark_commands_keep_their_bytes(workload, tmp_path):
    inputs = load_inputs()
    expected = json.loads((BENCH / "expected.json").read_text())[workload]
    sample = [(t, idx) for t, idx in inputs.all_items(workload) if workload == "solve" or idx < 2]
    assert len(sample) == SAMPLE[workload]
    mismatches = []
    for t, idx in sample:
        argv, _ = inputs.materialize(t, idx, tmp_path)
        got = outcome(argv)
        if got != expected[f"{t.name}#{idx}"]:
            mismatches.append((f"{t.name}#{idx}", got))
    assert mismatches == []
