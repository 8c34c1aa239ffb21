"""Record ``expected.json`` and cross-check it against independent sources.

    python3 bench/record.py

Runs every command each workload can issue (every template over its whole
item pool) through ``rhizalab.cli.main`` in-process, as the worker does, and
stores each command's exit code and structured-stdout SHA-256.  Before storing, every
output is checked against sources that share no code with what is timed:

* check verdicts (``passed``, ``two_nilpotent``, catalog ``rhizaform_passed``)
  against ``rhizalab.oracle``;
* each cyclic-form basis by substituting it into the defining conditions
  with the exact arithmetic below;
* each kernel dimension by ranks computed here: the system rank modulo two
  primes bounds the kernel from above and the substituted, independent basis
  bounds it from below, so the dimension is proved exactly; catalog systems
  are small enough to rank exactly over the rationals.

Malformed-file probes are recorded with the exit-code contract (2, empty
stdout), not with what the program does today; the known defects among them
are listed in the output.  The script also prints the measured property
shares of each input set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402

F = Fraction
PRIMES = (2147483629, 2147483587)
EMPTY_SHA = hashlib.sha256(b"").hexdigest()


# --- independent exact arithmetic --------------------------------------------


def require(ok: bool, what) -> None:
    """A failed cross-check; raised explicitly so it also runs under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def q(text) -> Fraction:
    num, _, den = str(text).partition("/")
    return F(int(num), int(den or 1))


def read_algebra(doc: dict, eta: Fraction | None = None):
    """(star tensor, alpha matrix) of an algebra document; star = succ + prec or mul."""
    n = doc["dim"]

    def coeff(c):
        s = str(c)
        if s.lstrip("-") == "eta":
            return -eta if s.startswith("-") else eta
        return q(s)

    star = inputs.zero_tensor(n)
    for name in ("succ", "prec", "mul"):
        for i, j, k, c in doc.get(name, []):
            star[i - 1][j - 1][k - 1] += coeff(c)
    alpha = [[coeff(e) for e in row] for row in doc["alpha"]]
    return star, alpha


def col(alpha, i):
    return [alpha[r][i] for r in range(len(alpha))]


def bil(t, x, y):
    """Bilinear extension of tensor t (vector-valued)."""
    n = len(t)
    out = [F(0)] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    s = xi * yj
                    for k in range(n):
                        if t[i][j][k]:
                            out[k] += s * t[i][j][k]
    return out


def form(b, x, y):
    return sum(xi * yj * b[i][j] for i, xi in enumerate(x) for j, yj in enumerate(y) if xi and yj)


def vector_conditions(star, alpha):
    """Each condition as a dict {unknown index (p, q, r): coefficient}."""
    n = len(alpha)
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for comp in range(n):
                    row = {}
                    for u, w in ((star[i][j], col(alpha, k)), (star[j][k], col(alpha, i)), (star[k][i], col(alpha, j))):
                        for p in range(n):
                            for qq in range(n):
                                if u[p] and w[qq]:
                                    key = (p, qq, comp)
                                    row[key] = row.get(key, 0) + u[p] * w[qq]
                    rows.append(row)
    for i in range(n):
        for j in range(n):
            ai, aj = col(alpha, i), col(alpha, j)
            for comp in range(n):
                row = {}
                for s in range(n):
                    if alpha[comp][s]:
                        row[(i, j, s)] = row.get((i, j, s), 0) + alpha[comp][s]
                for p in range(n):
                    for qq in range(n):
                        if ai[p] and aj[qq]:
                            row[(p, qq, comp)] = row.get((p, qq, comp), 0) - ai[p] * aj[qq]
                rows.append(row)
    return rows


def scalar_conditions(star, alpha):
    n = len(alpha)
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = {}
                for u, w in ((star[i][j], col(alpha, k)), (star[j][k], col(alpha, i)), (star[k][i], col(alpha, j))):
                    for p in range(n):
                        for qq in range(n):
                            if u[p] and w[qq]:
                                row[(p, qq)] = row.get((p, qq), 0) + u[p] * w[qq]
                rows.append(row)
    for i in range(n):
        for j in range(n):
            ai, aj = col(alpha, i), col(alpha, j)
            row = {}
            for p in range(n):
                for qq in range(n):
                    if ai[p] and aj[qq]:
                        row[(p, qq)] = row.get((p, qq), 0) + ai[p] * aj[qq]
            row[(i, j)] = row.get((i, j), 0) - 1
            rows.append(row)
    return rows


def to_dense(rows, index):
    return [[r.get(key, F(0)) for key in index] for r in rows]


def rank_mod(rows: list[list[Fraction]], p: int) -> int:
    """Rank modulo p (denominators must be units mod p).

    Rows are reduced one at a time against the echelon rows kept so far,
    each held sparse as {column: value}, so sparse systems stay cheap.
    """
    echelon: dict[int, dict[int, int]] = {}  # pivot column -> row with 1 there
    for r in rows:
        row = {c: x.numerator * pow(x.denominator, -1, p) % p for c, x in enumerate(r) if x}
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = echelon.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                echelon[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(echelon)


def proved_kernel_dim(rows, basis_rows) -> int:
    """Kernel dimension of ``rows`` given a basis already shown to lie in the kernel."""
    k = len(basis_rows)
    ncols = len(rows[0])
    if k and min(rank_mod(basis_rows, p) for p in PRIMES) != k:
        raise AssertionError("reported basis is not linearly independent")
    upper = ncols - max(rank_mod(rows, p) for p in PRIMES)  # rank over Q >= rank mod p
    if upper != k:
        raise AssertionError(f"kernel has dimension {upper} by modular rank, basis has {k}")
    return k


# --- cross-checks per command --------------------------------------------------


def check_solve(out: dict, files: dict):
    doc = json.loads(files["A"])
    star, alpha = read_algebra(doc)
    n = len(alpha)
    if out["kind"] == "vector":
        index = [(p, qq, r) for p in range(n) for qq in range(n) for r in range(n)]
        rows = vector_conditions(star, alpha)
        basis = []
        for b in out["basis"]:
            w = inputs.zero_tensor(n)
            for i, j, k, c in b["components"]:
                w[i - 1][j - 1][k - 1] = q(c)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        r = [a + b_ + c for a, b_, c in zip(bil(w, star[i][j], col(alpha, k)), bil(w, star[j][k], col(alpha, i)), bil(w, star[k][i], col(alpha, j)))]
                        require(not any(r), ("cyclic", i, j, k))
                    lhs = [sum(alpha[c][s] * w[i][j][s] for s in range(n)) for c in range(n)]
                    require(lhs == bil(w, col(alpha, i), col(alpha, j)), ("compat", i, j))
            basis.append([w[p][qq][r] for p, qq, r in index])
    else:
        index = [(p, qq) for p in range(n) for qq in range(n)]
        rows = scalar_conditions(star, alpha)
        basis = []
        for b in out["basis"]:
            m = [[q(e) for e in row] for row in b["B"]]
            e = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        r = form(m, star[i][j], col(alpha, k)) + form(m, star[j][k], col(alpha, i)) + form(m, star[k][i], col(alpha, j))
                        require(r == 0, ("cyclic", i, j, k))
                    require(form(m, col(alpha, i), col(alpha, j)) == form(m, e[i], e[j]), ("invariance", i, j))
            require(b["nondegenerate"] == (inputs.exact_rank(m) == n), "nondegenerate flag")
            basis.append([m[p][qq] for p, qq in index])
    require(out["dimension"] == len(out["basis"]), "dimension vs basis size")
    return proved_kernel_dim(to_dense(rows, index), basis)


def oracle_verdict(argv, files):
    """The oracle's verdict for a check command, or None where none exists."""
    from rhizalab import oracle
    from rhizalab.algmodel import LinearMap, parse_algebra, star_product
    from rhizalab.exactlin import Matrix

    kind = argv[argv.index("--kind") + 1]
    role = "S" if "S" in files else "A"
    a = parse_algebra(files[role])
    if kind == "rhizaform":
        return oracle.rhizaform(a)
    if kind == "dendriform":
        return oracle.dendriform(a)
    if kind == "anti-associative":
        return oracle.anti_associative(star_product(a), a.alpha)
    if kind == "jacobi-jordan":
        return oracle.jacobi_jordan(star_product(a), a.alpha)
    if kind == "pre-jacobi-jordan":
        return oracle.pre_jacobi_jordan(star_product(a), a.alpha)
    if kind == "multiplicativity":
        return oracle.multiplicative(a.product(argv[argv.index("--product") + 1]), a.alpha)
    if kind == "rota-baxter":
        r = Matrix.from_rows([[q(e) for e in row] for row in json.loads(files["R"])["T"]])
        return oracle.rota_baxter(r, a.mul, a.alpha)
    if kind == "bimodule":
        m = json.loads(files["M"])

        def mat(rows):
            return Matrix.from_rows([[q(e) for e in r] for r in rows])

        left, right = (tuple(mat(x) for x in m[side]) for side in ("left", "right"))
        return oracle.bimodule(a.mul, a.alpha, left, right, LinearMap(m["mod_dim"], mat(m["beta"])))
    return None


_catalog_dims: dict = {}


def check_catalog(eta: Fraction, out: dict):
    from rhizalab import oracle
    from rhizalab.catalog import load_entry

    entries = inputs.catalog_entries()
    for rep in out["entries"]:
        eid = rep["id"]
        doc = entries[eid]
        uses_eta = "eta" in json.dumps(doc)
        a = load_entry(eid, {"eta": eta})
        require(rep["rhizaform_passed"] == oracle.rhizaform(a), (eid, "rhizaform vs oracle"))
        require(rep["two_nilpotent"] == oracle.two_nilpotent(a), (eid, "2-nilpotent vs oracle"))
        key = (eid, eta if uses_eta else None)
        if key not in _catalog_dims:
            star, alpha = read_algebra(doc, eta)
            n = doc["dim"]
            index = [(p, qq, r) for p in range(n) for qq in range(n) for r in range(n)]
            _catalog_dims[key] = len(index) - inputs.exact_rank(to_dense(vector_conditions(star, alpha), index))
        require(rep["cocycle_dim"] == _catalog_dims[key], (eid, "cocycle dimension"))
    require(out["oracle_disagreements"] == [], "oracle disagreements")


def cross_check(workload, t, idx, argv, res, files) -> str:
    """Validate one output independently; returns what was checked."""
    if t.name.startswith("probe-"):
        return "exit-code contract"
    out = json.loads(res["stdout"])
    if workload == "catalog":
        check_catalog(inputs.eta_of(t, idx), out)
        return "oracle verdicts, exact kernel dimensions"
    if workload == "solve":
        check_solve(out, files)
        return "basis substituted, kernel dimension proved"
    if argv[0] == "check":
        verdict = oracle_verdict(argv, files)
        if verdict is not None:
            require(out["passed"] == verdict, "checker vs oracle")
            return "oracle verdict"
    if argv[0] == "nilpotency":
        from rhizalab import oracle
        from rhizalab.algmodel import parse_algebra

        require(out["two_nilpotent"]["passed"] == oracle.two_nilpotent(parse_algebra(files["A"])), "2-nilpotent vs oracle")
        return "oracle 2-nilpotency verdict"
    if argv[:3] == ["induce", "--what", "sum"]:
        star, alpha = read_algebra(json.loads(files["A"]))
        got, got_alpha = read_algebra(out["algebra"])
        require((got, got_alpha) == (star, alpha), "summed product")
        return "summed product recomputed"
    if argv[:3] == ["induce", "--what", "regular-bimodule"]:
        star, alpha = read_algebra(json.loads(files["S"]))
        want = inputs.regular_bimodule_doc({"mul": star, "alpha": alpha})
        require(out["bimodule"] == want, "regular bimodule")
        return "regular bimodule recomputed"
    return "recorded only"


# --- property shares --------------------------------------------------------------


def properties(files: dict) -> dict:
    """Tensor density and coefficient bit height of an item's algebra file."""
    role = "A" if "A" in files else "S" if "S" in files else None
    if role is None:
        return {}
    doc = json.loads(files[role])
    if "dim" not in doc or not isinstance(doc.get("alpha", [[0]])[0][0], str):
        return {}
    n = doc["dim"]
    coeffs = [q(c) for name in ("succ", "prec", "mul") for *_ijk, c in doc.get(name, [])]
    sections = sum(1 for name in ("succ", "prec", "mul") if name in doc)
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)
    return {"density": len(coeffs) / (sections * n**3), "bits": bits}


def record(workload: str) -> dict:
    items = list(inputs.all_items(workload))
    expected, checked, props, kernels = {}, {}, {}, {}
    defects = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for t, idx in items:
            key = f"{t.name}#{idx}"
            argv, files = inputs.materialize(t, idx, tmp)
            argv = list(argv)
            res = run_one(argv)
            if t.name.startswith("probe-"):
                want = {"exit": 2, "sha256": EMPTY_SHA}
                today_ok = res["exit"] == 2 and res["exception"] is None and res["stdout"] == ""
                if today_ok == bool(t.known_defect):
                    raise AssertionError(f"{key}: known_defect={t.known_defect!r} but exit {res['exit']}, {res['exception']}")
                if t.known_defect and idx == 0:
                    defects.append(f"{t.name} ({t.pool} items): {res['exception']}")
            else:
                if res["exception"] or res["exit"] != 0:
                    raise AssertionError(f"{key}: exit {res['exit']} {res['exception']}")
                want = {"exit": res["exit"], "sha256": hashlib.sha256(res["stdout"].encode()).hexdigest()}
            what = cross_check(workload, t, idx, argv, res, files)
            checked[what] = checked.get(what, 0) + 1
            expected[key] = want
            p = {} if t.name.startswith("probe-") else properties(files)
            if p:
                props.setdefault(t.name, []).append(p)
            if workload == "solve":
                kernels.setdefault(t.name, []).append(json.loads(res["stdout"])["dimension"])
    return {"expected": expected, "checked": checked, "props": props, "kernels": kernels, "defects": defects}


def run_one(argv):
    import rhizalab.cli as cli

    out, err = io.StringIO(), io.StringIO()
    exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as e:
        code, exc = 1, f"{type(e).__name__}: {e}"
    return {"exit": code, "stdout": out.getvalue(), "exception": exc}


def main() -> int:
    doc = {}
    for workload in sorted(inputs.WORKLOADS):
        r = record(workload)
        doc[workload] = dict(sorted(r["expected"].items()))
        summary = {
            "commands": len(r["expected"]),
            "cross_checked": r["checked"],
            "known_defects": r["defects"],
            "input_sets": {
                g: {
                    "items": len(ps),
                    "density": round(sum(p["density"] for p in ps) / len(ps), 3),
                    "max_bits": max(p["bits"] for p in ps),
                    **(
                        {"kernel_dim_min": min(r["kernels"][g]), "kernel_dim_max": max(r["kernels"][g]), "kernel_dim_mean": round(sum(r["kernels"][g]) / len(r["kernels"][g]), 2)}
                        if g in r["kernels"]
                        else {}
                    ),
                }
                for g, ps in sorted(r["props"].items())
            },
        }
        print(json.dumps({workload: summary}, indent=1), flush=True)
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
