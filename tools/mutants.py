"""Source mutants of the library, and a runner that checks that the Tier-1 suite catches each.

The oracle's mutants are not here: ``tests/test_oracle.py`` applies them itself on every run.

    python tools/mutants.py CHECKOUT DEST [NAME ...]

Copies the checkout CHECKOUT to DEST, which must not exist yet, then for each mutant (all of them,
or those named) replaces its one snippet of library source in the copy, runs the Tier-1 suite there
with ``-x`` and puts the file back.  A mutant is "caught" when a test fails and "survived" when none
does.  Some mutants make a series never stabilize, so each run is capped at ``MEMORY`` bytes of
address space, where such a test fails with MemoryError, and at ``TIMEOUT`` seconds ("hung").  Each
snippet must occur exactly once in its file, so a mutant that no longer applies is reported as
"stale" instead of being run.  The runner prints one line per mutant and exits 1 unless every one
was caught.  CHECKOUT is never written.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

AXIOMS, COCYCLES, EXACTLIN = "src/rhizalab/axioms.py", "src/rhizalab/cocycles.py", "src/rhizalab/exactlin.py"
NILPOTENCY, OPERATORS = "src/rhizalab/nilpotency.py", "src/rhizalab/operators.py"
CLI, FAMILY = "src/rhizalab/cli.py", "src/rhizalab/family.py"

MEMORY, TIMEOUT = 3 * 2**29, 900

# name: (file, snippet, replacement)
MUTANTS = {
    "cyclic-orbit-term-sign": (
        COCYCLES,
        "_add_form_terms(row, table[j][k], images[i], n)",
        "_add_form_terms(row, [(p, -x) for p, x in table[j][k]], images[i], n)",
    ),
    "invariance-own-dropped": (
        COCYCLES,
        "            if own := diag[i] * diag[j] - dd:\n                row.append((i * n + j, own))\n",
        "",
    ),
    "twist-own-dropped": (
        COCYCLES,
        "                if own := diag[c] * d - diag[i] * diag[j]:\n                    row.append((cell + c, own))\n",
        "",
    ),
    "rank-bound-minus-one": (COCYCLES, "n * n, n * twist_rank)", "n * n, n * twist_rank - 1)"),
    "back-substitution-skips-a-clear": (
        EXACTLIN,
        "        for d, prow in done:\n",
        "        for d, prow in done[1:]:\n",
    ),
    "back-substitution-keeps-a-negative-pivot": (
        EXACTLIN,
        "done.append((c, r if r[c] > 0 else [-x for x in r]))",
        "done.append((c, r))",
    ),
    "products-span-drops-a-product": (
        NILPOTENCY,
        "for u, v in product(m._sparse_rows, n._sparse_rows):",
        "for u, v in list(product(m._sparse_rows, n._sparse_rows))[1:]:",
    ),
    "span-key-ignores-the-tables": (
        NILPOTENCY,
        "key = tuple(map(id, tables)), tuple([(m.rows, n.rows) for m, n in pairs])",
        "key = tuple([(m.rows, n.rows) for m, n in pairs])",
    ),
    "analysis-onesided-reads-left-series": (
        NILPOTENCY,
        'onesided=_onesided(t.tables, series["full"], spans),',
        'onesided=_onesided(t.tables, series["left"], spans),',
    ),
    "analysis-onesided-reads-right-series": (
        NILPOTENCY,
        'onesided=_onesided(t.tables, series["full"], spans),',
        'onesided=_onesided(t.tables, series["right"], spans),',
    ),
    "full-series-stop-rule": (
        NILPOTENCY,
        'since = k - 1 if kind != "full" else (k + 1) // 2',
        "since = k - 1",
    ),
    "split-req1-sign": (
        AXIOMS,
        "[(1, t.right[succ + lo], star, 2, 0, 1),",
        "[(-1, t.right[succ + lo], star, 2, 0, 1),",
    ),
    "split-req2-sign": (AXIOMS, "[(1, t.left[prec + lo], star, 0, 1, 2),", "[(-1, t.left[prec + lo], star, 0, 1, 2),"),
    "split-req3-sign": (AXIOMS, "[(1, s_l_left, p_o, 0, 1, 2),", "[(-1, s_l_left, p_o, 0, 1, 2),"),
    "anti-assoc-sign": (AXIOMS, "[(1, outer_right, first, 2, 0, 1),", "[(-1, outer_right, first, 2, 0, 1),"),
    "jacobi-jordan-sign": (AXIOMS, "cyclic = [(1, left, table, 0, 1, 2),", "cyclic = [(-1, left, table, 0, 1, 2),"),
    "pre-jacobi-jordan-sign": (AXIOMS, "terms = [(1, right, table, 2, 0, 1),", "terms = [(-1, right, table, 2, 0, 1),"),
    "o-identity-sign": (
        OPERATORS,
        "terms = [(1, t_left[lam], c.ops[omega])]",
        "terms = [(-1, t_left[lam], c.ops[omega])]",
    ),
    "report-chunks-drop-a-separator": (
        AXIOMS,
        'lead = head + "[" + pad + "    " if start == 0 else sep',
        'lead = head + "[" + pad + "    " if start == 0 else ""',
    ),
    "nested-report-drops-its-pad": (AXIOMS, 'pad = "\\n" + "  " * depth', 'pad = "\\n"'),
    "o-shapes-swapped": (
        OPERATORS,
        "if t.cols != m.mod_dim or t.rows != a.dim:",
        "if t.rows != m.mod_dim or t.cols != a.dim:",
    ),
    "homomorphism-endpoints-swapped": (
        OPERATORS,
        "if f.cols != a1.dim or f.rows != a2.dim:",
        "if f.rows != a1.dim or f.cols != a2.dim:",
    ),
    "invertible-o-square-check-dropped": (OPERATORS, "    if t.rows != t.cols:\n", "    if False:\n"),
    "rb-family-square-check-dropped": (
        FAMILY,
        "if len(dims) > 1 or any(s != t for s, t in dims):",
        "if len(dims) > 1:",
    ),
    "route-miswired": (
        CLI,
        '"dendriform": ((), lambda a, x: check_dendriform(a),',
        '"dendriform": ((), lambda a, x: check_rhizaform(a),',
    ),
    "route-needs-dropped": (CLI, '"rb": (\n        ("operator",),', '"rb": (\n        (),'),
}


def run(dest: Path, name: str) -> tuple[str, str]:
    """The mutant's outcome, and the first test that failed on it."""
    path, snippet, replacement = MUTANTS[name]
    source = dest / path
    text = source.read_text()
    if text.count(snippet) != 1:
        return "stale", ""
    source.write_text(text.replace(snippet, replacement))
    try:
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=dest,
            env={**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            timeout=TIMEOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY)),
        )
    except subprocess.TimeoutExpired:
        return "hung", ""
    finally:
        source.write_text(text)
    failed = [line.split()[1] for line in tests.stdout.decode().splitlines() if line.startswith(("FAILED", "ERROR"))]
    return ("survived", "") if tests.returncode == 0 else ("caught", failed[0] if failed else "")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python tools/mutants.py CHECKOUT DEST [NAME ...]", file=sys.stderr)
        return 2
    checkout, dest, names = Path(argv[0]), Path(argv[1]), argv[2:] or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    shutil.copytree(checkout, dest, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    outcomes = set()
    for name in names:
        outcome, failed = run(dest, name)
        outcomes.add(outcome)
        print(f"{outcome:>8}  {name}  {failed}".rstrip(), flush=True)
    return 0 if outcomes == {"caught"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
