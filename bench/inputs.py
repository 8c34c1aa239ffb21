"""Seeded inputs and command lists for the `catalog`, `solve` and `check` workloads.

Every input is an *item*: the files one command reads, generated from a
string seed ``"<template>#<index>"`` with ``random.Random``.  Each template
owns a finite pool of item indices, so every command the benchmark can ever
issue has an expected exit code and stdout digest in ``expected.json``.  The
run seed draws each template's items from its pool without replacement: the
same seed gives the same inputs, other seeds give other items, and within a
run no solve or check item repeats.

A workload is a *cycle* of templates repeated with fresh items.  The number
of cycles is fixed from the time one pass over the list may take and the
cycle's cost on the baseline commit, so the command list is fixed before
timing starts and a faster program finishes the same list sooner.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CATALOG_DIR = ROOT / "src" / "rhizalab" / "catalog" / "data" / "v1"

F = Fraction
SMALL = (F(-1), F(0), F(1))


def qstr(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- algebras as plain data ---------------------------------------------------
# A tensor is t[i][j][k], the coefficient of e_k in e_i o e_j (0-based); a twist
# map is the matrix whose column i holds alpha(e_i), as in the algebra format.


def zero_tensor(n: int) -> list:
    return [[[F(0)] * n for _ in range(n)] for _ in range(n)]


def tensor_entries(t: list) -> list:
    n = len(t)
    return [
        [i + 1, j + 1, k + 1, qstr(t[i][j][k])]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if t[i][j][k]
    ]


def matrix_doc(m: list) -> list:
    return [[qstr(e) for e in row] for row in m]


def split_doc(succ: list, prec: list, alpha: list) -> dict:
    return {
        "dim": len(alpha),
        "kind": "rhizaform",
        "alpha": matrix_doc(alpha),
        "succ": tensor_entries(succ),
        "prec": tensor_entries(prec),
    }


def mono_doc(mul: list, alpha: list) -> dict:
    return {"dim": len(alpha), "kind": "mono", "alpha": matrix_doc(alpha), "mul": tensor_entries(mul)}


def random_matrix(rng: random.Random, n: int, draw) -> list:
    return [[draw(rng) for _ in range(n)] for _ in range(n)]


def random_tensor(rng: random.Random, n: int, draw) -> list:
    return [[[draw(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]


def draw_small(rng: random.Random) -> Fraction:
    return rng.choice(SMALL)


def draw_sparse(rng: random.Random) -> Fraction:
    return rng.choice(SMALL) if rng.random() < 0.5 else F(0)


def draw_height(rng: random.Random) -> Fraction:
    if rng.random() < 1 / 3:
        return F(0)
    return F(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((1, 2, 3, 5, 7)))


# Input set: dense split algebras with entries in {-1,0,1}.  Why: dense tensors
# give the largest, fullest cyclic-form systems (rank close to the unknown
# count), the case exact row reduction is slowest on.
def dense_split(rng: random.Random, n: int) -> dict:
    return {
        "succ": random_tensor(rng, n, draw_small),
        "prec": random_tensor(rng, n, draw_small),
        "alpha": random_matrix(rng, n, draw_small),
    }


# Input set: split algebras with coefficients p/q, |p| <= 7, q in {1,2,3,5,7}.
# Why: same shape as the dense set but larger coefficient height, which is what
# drives the cost of exact arithmetic (bit growth during elimination).
def height_split(rng: random.Random, n: int) -> dict:
    return {
        "succ": random_tensor(rng, n, draw_height),
        "prec": random_tensor(rng, n, draw_height),
        "alpha": random_matrix(rng, n, draw_height),
    }


# Input set: graded-nilpotent split algebras, e_i o e_j in span{e_k : k >= i+j}
# (1-based), with a nonzero e_{i+j} coefficient.  Why: their power series have
# length n+1, so every nilpotency step does real subspace arithmetic, where
# dense algebras stop after one step.
def graded_split(rng: random.Random, n: int) -> dict:
    def tensor() -> list:
        t = zero_tensor(n)
        for i in range(n):
            for j in range(n):
                low = i + j + 1  # 0-based index of e_{(i+1)+(j+1)}
                for k in range(low, n):
                    t[i][j][k] = rng.choice((F(-1), F(1))) if k == low else draw_small(rng)
        return t

    return {"succ": tensor(), "prec": tensor(), "alpha": random_matrix(rng, n, draw_small)}


@functools.lru_cache(maxsize=None)
def catalog_entries() -> dict[str, dict]:
    """Entry id -> algebra document, read from the catalog's data files."""
    out = {}
    for path in sorted(CATALOG_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        out[doc["id"]] = doc["algebra"]
    return out


def _entry_tensors(doc: dict, eta: Fraction) -> dict:
    n = doc["dim"]

    def coeff(token) -> Fraction:
        s = str(token).strip()
        if s.lstrip("-") == "eta":
            return -eta if s.startswith("-") else eta
        num, _, den = s.partition("/")
        return F(int(num), int(den or 1))

    out = {"alpha": [[coeff(e) for e in row] for row in doc["alpha"]]}
    for name in ("succ", "prec"):
        t = zero_tensor(n)
        for i, j, k, c in doc[name]:
            t[i - 1][j - 1][k - 1] += coeff(c)
        out[name] = t
    return out


# Input set: direct sums of two catalog entries (block-diagonal products and
# twist, any eta bound to a small rational).  Why: sparse tensors with large
# cyclic-form kernels, the opposite corner from the dense set, and the only
# n=6 algebras cheap enough to solve.
def catalog_sum(rng: random.Random, n: int) -> dict:
    entries = catalog_entries()
    by_dim = {d: sorted(e for e, doc in entries.items() if doc["dim"] == d) for d in (2, 3)}
    first = rng.choice((2, 3)) if n == 5 else n // 2
    parts = [rng.choice(by_dim[first]), rng.choice(by_dim[n - first])]
    eta = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
    blocks = [_entry_tensors(entries[e], eta) for e in parts]
    out = {"succ": zero_tensor(n), "prec": zero_tensor(n), "alpha": [[F(0)] * n for _ in range(n)]}
    off = 0
    for b in blocks:
        d = len(b["alpha"])
        for r in range(d):
            for c in range(d):
                out["alpha"][off + r][off + c] = b["alpha"][r][c]
        for name in ("succ", "prec"):
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        out[name][off + i][off + j][off + k] = b[name][i][j][k]
        off += d
    return out


BASES = {"dense": dense_split, "height": height_split, "graded": graded_split, "sum": catalog_sum}


def summed(alg: dict) -> dict:
    """Mono algebra carrying succ + prec, the input of operator and bimodule checks."""
    n = len(alg["alpha"])
    mul = [[[alg["succ"][i][j][k] + alg["prec"][i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]
    return {"mul": mul, "alpha": alg["alpha"]}


def regular_bimodule_doc(mono: dict) -> dict:
    """Left and right multiplication of a mono algebra on itself, twist as beta."""
    mul, n = mono["mul"], len(mono["alpha"])
    left = [[[mul[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    right = [[[mul[j][i][k] for j in range(n)] for k in range(n)] for i in range(n)]
    return {
        "alg_dim": n,
        "mod_dim": n,
        "left": [matrix_doc(m) for m in left],
        "right": [matrix_doc(m) for m in right],
        "beta": matrix_doc(mono["alpha"]),
    }


def exact_rank(rows: list) -> int:
    """Exact rank by Fraction elimination (shares no code with rhizalab)."""
    a = [list(r) for r in rows]
    rk = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rk, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for r in range(len(a)):
            if r != rk and a[r][c]:
                f = a[r][c] / a[rk][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        rk += 1
    return rk


def nondegenerate_form(rng: random.Random, n: int) -> list:
    while True:
        m = random_matrix(rng, n, draw_small)
        if exact_rank(m) == n:
            return m


SEMIGROUPS = {
    "cyclic": lambda s: [[(a + b) % s for b in range(s)] for a in range(s)],
    "left-zero": lambda s: [[a for _ in range(s)] for a in range(s)],
    "max": lambda s: [[max(a, b) for b in range(s)] for a in range(s)],
}


def semigroup_table(rng: random.Random, s: int) -> list:
    return SEMIGROUPS[rng.choice(sorted(SEMIGROUPS))](s)


def family_doc(rng: random.Random, n: int, s: int) -> dict:
    table = semigroup_table(rng, s)
    return {
        "dim": n,
        "omega": {"size": s, "table": table},
        "alpha": matrix_doc(random_matrix(rng, n, draw_small)),
        "succ": {str(lam): tensor_entries(random_tensor(rng, n, draw_sparse)) for lam in range(s)},
        "prec": {str(lam): tensor_entries(random_tensor(rng, n, draw_sparse)) for lam in range(s)},
    }


def rb_family_doc(rng: random.Random, n: int, s: int) -> dict:
    return {
        "omega": {"size": s, "table": semigroup_table(rng, s)},
        "operators": {str(lam): matrix_doc(random_matrix(rng, n, draw_sparse)) for lam in range(s)},
    }


# --- templates ----------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One command shape.  ``make`` turns an item's rng into {role: file text};
    ``argv`` names the files by role in braces, e.g. ``{A}``."""

    name: str
    argv: tuple[str, ...]
    make: Callable[[random.Random], dict[str, str]]
    pool: int
    known_defect: str | None = None  # the contract breach this command shows today


def split_file(base: str, n: int):
    return lambda rng: {"A": json.dumps(split_doc(**BASES[base](rng, n)))}


def mono_files(base: str, n: int, extra: Callable | None = None):
    def make(rng):
        mono = summed(BASES[base](rng, n))
        files = {"S": json.dumps(mono_doc(**mono))}
        if extra:
            files.update(extra(rng, mono))
        return files

    return make


def operator_file(rng, mono):
    n = len(mono["alpha"])
    return {"R": json.dumps({"T": matrix_doc(random_matrix(rng, n, draw_sparse))})}


def bimodule_file(rng, mono):
    return {"M": json.dumps(regular_bimodule_doc(mono))}


def form_file(rng, mono):
    return {"B": json.dumps({"B": matrix_doc(nondegenerate_form(rng, len(mono["alpha"])))})}


def family_file(n: int, s: int):
    return lambda rng: {"FAM": json.dumps(family_doc(rng, n, s))}


def rb_family_files(n: int, s: int, base: str):
    def make(rng):
        mono = summed(BASES[base](rng, n))
        return {"S": json.dumps(mono_doc(**mono)), "RBF": json.dumps(rb_family_doc(rng, n, s))}

    return make


def with_bad(role: str, text: str, make):
    def inner(rng):
        files = make(rng)
        files[role] = text
        return files

    return inner


S = ("--format", "structured")


def solve_templates(pool: int) -> list[Template]:
    """One solve cycle, about 6.5 s on the baseline commit.

    A template listed k times takes k items per cycle.  The slow end is one
    sparse n=6 vector solve (about 1.3 s, the 1512x216 system), one
    larger-height n=4 vector solve and two dense n=4 vector solves (about
    0.65 s, 320x64) and two sparse n=5 vector solves (about 0.35 s, 750x125);
    the rest are scalar solves and sparse n=4 vector solves of 6-200 ms.  The
    tail (the 11th largest of 43) is the middle one of the nine dense n=5
    scalar solves, and the median falls where the costs of several n=4
    templates overlap, so neither sits on the edge of one template's group.
    Dense n=5 vector solves (about 7 s each) are left out: one of them would
    be most of a cycle, and a run could neither repeat it nor draw enough of
    them to keep a run's total steady from seed to seed.
    """

    def t(name, mode, base, n):
        return Template(name, ("cocycles", f"--{mode}", *S, "{A}"), split_file(base, n), pool)

    return [
        t("vec-sum-n6", "vector", "sum", 6),
        t("vec-height-n4", "vector", "height", 4),
        *[t("vec-dense-n4", "vector", "dense", 4)] * 2,
        *[t("vec-sum-n5", "vector", "sum", 5)] * 2,
        *[t("sca-dense-n5", "scalar", "dense", 5)] * 9,
        *[t("vec-sum-n4", "vector", "sum", 4)] * 4,
        *[t("sca-height-n4", "scalar", "height", 4)] * 4,
        *[t("sca-dense-n4", "scalar", "dense", 4)] * 4,
        *[t("sca-sum-n6", "scalar", "sum", 6)] * 4,
        *[t("sca-sum-n5", "scalar", "sum", 5)] * 6,
        *[t("sca-sum-n4", "scalar", "sum", 4)] * 6,
    ]


def check_templates(pool: int) -> list[Template]:
    """One check cycle.  The dense n=5/6 commands (rhizaform, dendriform,
    pre-jacobi-jordan, nilpotency) are the slowest, 0.1-0.3 s each on the
    baseline commit, so the tail falls among them, well below 1 s."""

    def chk(kind, base, n, *flags):
        name = f"{kind}-{base}-n{n}" + ("-oracle" if "--oracle" in flags else "")
        return Template(name, ("check", "--kind", kind, *flags, *S, "{A}"), split_file(base, n), pool)

    def mono(name, argv, base, n, extra):
        return Template(name, argv, mono_files(base, n, extra), pool)

    return [
        chk("rhizaform", "dense", 5),
        chk("rhizaform", "graded", 6, "--oracle"),
        chk("rhizaform", "sum", 4, "--oracle"),
        chk("dendriform", "dense", 5),
        chk("dendriform", "sum", 6, "--oracle"),
        chk("anti-associative", "graded", 6, "--oracle"),
        chk("anti-associative", "dense", 4),
        chk("jacobi-jordan", "sum", 5, "--oracle"),
        chk("jacobi-jordan", "graded", 4),
        chk("pre-jacobi-jordan", "dense", 6),
        chk("pre-jacobi-jordan", "graded", 5, "--oracle"),
        chk("multiplicativity", "sum", 6, "--product", "succ"),
        chk("multiplicativity", "dense", 5, "--product", "prec", "--oracle"),
        mono("rota-baxter-dense-n5-oracle", ("check", "--kind", "rota-baxter", "--operator", "{R}", "--oracle", *S, "{S}"), "dense", 5, operator_file),
        mono("rota-baxter-graded-n6", ("check", "--kind", "rota-baxter", "--operator", "{R}", *S, "{S}"), "graded", 6, operator_file),
        mono("bimodule-sum-n5-oracle", ("check", "--kind", "bimodule", "--bimodule", "{M}", "--oracle", *S, "{S}"), "sum", 5, bimodule_file),
        mono("bimodule-dense-n4", ("check", "--kind", "bimodule", "--bimodule", "{M}", *S, "{S}"), "dense", 4, bimodule_file),
        Template("nilpotency-graded-n6", ("nilpotency", *S, "{A}"), split_file("graded", 6), pool),
        Template("nilpotency-graded-n4", ("nilpotency", *S, "{A}"), split_file("graded", 4), pool),
        Template("nilpotency-dense-n5", ("nilpotency", *S, "{A}"), split_file("dense", 5), pool),
        Template("nilpotency-sum-n6", ("nilpotency", *S, "{A}"), split_file("sum", 6), pool),
        Template("induce-sum-dense-n6", ("induce", "--what", "sum", *S, "{A}"), split_file("dense", 6), pool),
        Template("induce-bracket-graded-n5", ("induce", "--what", "bracket", *S, "{A}"), split_file("graded", 5), pool),
        Template("induce-pjj-sum-n4", ("induce", "--what", "pre-jacobi-jordan", *S, "{A}"), split_file("sum", 4), pool),
        mono("induce-rb-dense-n5", ("induce", "--what", "rb", "--no-strict", "--operator", "{R}", *S, "{S}"), "dense", 5, operator_file),
        mono("induce-regular-bimodule-graded-n6", ("induce", "--what", "regular-bimodule", *S, "{S}"), "graded", 6, None),
        mono("induce-cocycle-sum-n5", ("induce", "--what", "cocycle", "--no-strict", "--form", "{B}", *S, "{S}"), "sum", 5, form_file),
        Template("family-check-n4-s2", ("family", "--do", "check", *S, "{FAM}"), family_file(4, 2), pool),
        Template("family-check-n4-s3", ("family", "--do", "check", *S, "{FAM}"), family_file(4, 3), pool),
        Template("family-check-rb-n4-s3", ("family", "--do", "check-rb", "--algebra", "{S}", *S, "{RBF}"), rb_family_files(4, 3, "dense"), pool),
        Template("family-collapse-n4-s2", ("family", "--do", "collapse", "--algebra", "{S}", *S, "{RBF}"), rb_family_files(4, 2, "graded"), pool),
    ]


# One malformed file per auxiliary loader, plus one malformed algebra.  Each
# must exit 2 (bad input); the three marked known_defect crash with a
# traceback and exit 1 on the baseline commit and count as failed commands.
def probe_templates(pool: int) -> list[Template]:
    good_family = {"omega": {"size": 2, "table": [[0, 1], [1, 0]]}}
    return [
        Template(
            "probe-operator",
            ("check", "--kind", "rota-baxter", "--operator", "{R}", *S, "{S}"),
            with_bad("R", json.dumps({"T": 5}), mono_files("dense", 4)),
            pool,
            known_defect="operator file {'T': 5} raises TypeError",
        ),
        Template(
            "probe-bimodule",
            ("check", "--kind", "bimodule", "--bimodule", "{M}", *S, "{S}"),
            with_bad("M", json.dumps({"left": []}), mono_files("dense", 4)),
            pool,
            known_defect="bimodule file {'left': []} raises KeyError 'right'",
        ),
        Template(
            "probe-family",
            ("family", "--do", "check", *S, "{FAM}"),
            lambda rng: {"FAM": json.dumps({k: v for k, v in family_doc(rng, 4, 2).items() if k != "omega"})},
            pool,
            known_defect="family file without 'omega' raises KeyError 'omega'",
        ),
        Template(
            "probe-rb-family",
            ("family", "--do", "check-rb", "--algebra", "{S}", *S, "{RBF}"),
            with_bad("RBF", json.dumps({**good_family, "operators": {"0": [["1/0"]], "1": [["1"]]}}), mono_files("dense", 4)),
            pool,
        ),
        Template(
            "probe-form",
            ("induce", "--what", "cocycle", "--form", "{B}", *S, "{S}"),
            with_bad("B", json.dumps({"B": [["1", "x"], ["0", "1"]]}), mono_files("dense", 4)),
            pool,
        ),
        Template(
            "probe-algebra",
            ("check", "--kind", "rhizaform", *S, "{A}"),
            lambda rng: {"A": json.dumps({**split_doc(**dense_split(rng, 4)), "alpha": [[0.5] * 4] * 4})},
            pool,
        ),
    ]


# --- catalog: eta bindings ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def eta_pool(kind: str, pool: int) -> tuple[Fraction, ...]:
    """Distinct etas whose height max(|p|, q) grows from 1 to about 2**20 with the index."""
    rng = random.Random(f"catalog-eta-{kind}")
    seen, out = set(), []
    for idx in range(pool):
        h = max(1, round(2 ** (idx * 20 / pool)))
        while True:
            p, q = rng.randint(1, h), rng.randint(1, h)
            if rng.random() < 0.5:
                p = h
            else:
                q = h
            eta = F(rng.choice((-1, 1)) * p, q)
            if eta not in seen:
                seen.add(eta)
                out.append(eta)
                break
    return tuple(out)


def catalog_templates(pool: int) -> list[Template]:
    return [
        Template("verify", ("catalog", "verify", *S, "--param", "eta={ETA}"), None, pool),
        Template("verify-oracle", ("catalog", "verify", "--oracle", *S, "--param", "eta={ETA}"), None, pool),
    ]


# --- workloads ----------------------------------------------------------------

# Seconds one cycle takes on the baseline commit (2-core x86-64, Python 3.11,
# best of several passes)
# and the item pool of each template.  A run's list holds round(seconds /
# cycle_s) cycles, where ``seconds`` is what one pass over the list may take,
# and at most as many as its pools hold without repeating an item.
WORKLOADS = {
    "catalog": {"templates": catalog_templates, "cycle_s": 0.85, "pool": 64},
    "solve": {"templates": solve_templates, "cycle_s": 6.5, "pool": 16},
    "check": {"templates": check_templates, "cycle_s": 1.5, "pool": 32},
}


@dataclass(frozen=True)
class Command:
    key: str  # "<template>#<index>", the expected.json key
    argv: tuple[str, ...]
    known_defect: str | None


def item_files(t: Template, idx: int) -> dict[str, str]:
    return t.make(random.Random(f"{t.name}#{idx}"))


def eta_of(t: Template, idx: int) -> Fraction:
    return eta_pool(t.name, t.pool)[idx]


def materialize(t: Template, idx: int, workdir: Path) -> tuple[tuple[str, ...], dict[str, str]]:
    """Command line of item ``idx`` of ``t``, after writing its files under
    ``workdir``; also returns the file texts by role."""
    if t.make is None:
        return tuple(a.replace("{ETA}", qstr(eta_of(t, idx))) for a in t.argv), {}
    files = item_files(t, idx)
    paths = {}
    for role, text in files.items():
        path = workdir / f"{t.name}-{idx}-{role}.json"
        path.write_text(text)
        paths[role] = str(path)
    return tuple(paths[a[1:-1]] if a.startswith("{") else a for a in t.argv), files


def cycles_for(workload: str, seconds: float) -> int:
    w = WORKLOADS[workload]
    templates = w["templates"](w["pool"])
    most = min(w["pool"] // templates.count(t) for t in templates)
    return max(1, min(most, round(seconds / w["cycle_s"])))


def build_commands(workload: str, seed: int, seconds: float, workdir: Path) -> list[Command]:
    """Write the run's input files under ``workdir`` and return its command
    list, sized so that one pass over it takes about ``seconds``."""
    w = WORKLOADS[workload]
    cycle = w["templates"](w["pool"])
    cycles = cycles_for(workload, seconds)
    rng = random.Random(f"{workload}:{seed}")
    unique = list({t.name: t for t in cycle}.values())
    picks = {t.name: rng.sample(range(t.pool), cycles * cycle.count(t)) for t in unique}
    if workload == "catalog":
        # growing height: pool index order is height order
        picks = {name: sorted(idx) for name, idx in picks.items()}
    picks = {name: iter(idx) for name, idx in picks.items()}
    probes = probe_templates(w["pool"]) if workload == "check" else []
    probe_picks = {t.name: rng.randrange(t.pool) for t in probes}

    commands = []

    def add(t: Template, idx: int):
        argv, _ = materialize(t, idx, workdir)
        commands.append(Command(f"{t.name}#{idx}", argv, t.known_defect))

    for c in range(cycles):
        for t in cycle:
            add(t, next(picks[t.name]))
        if c == 0:
            for t in probes:
                add(t, probe_picks[t.name])
    return commands


def all_items(workload: str):
    """Every (template, index) the workload can issue; the recorder walks these."""
    w = WORKLOADS[workload]
    templates = list({t.name: t for t in w["templates"](w["pool"])}.values())
    if workload == "check":
        templates += probe_templates(w["pool"])
    for t in templates:
        for idx in range(t.pool):
            yield t, idx
