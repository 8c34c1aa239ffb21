"""Machine-readable low-dimensional representatives plus a verification harness.

Each entry ships as a JSON file in ``data/v1`` beside this module, carrying
the split products, the twist map, the expected free-constant layout of its
algebra-valued cyclic forms, and notes about oddities in the source tables
(unlisted twist images are encoded as zero and flagged).

The harness never treats the shipped tables as ground truth: per-entry
computations are compared against them and differences surface as
*findings* in the report, while hard failures are reserved for internal
errors (checker vs. brute-force-oracle disagreement).

Each entry is cleared once: one integer view of its algebra
(``axioms._view``) serves the split identities, the power series and the
dimension of its algebra-valued cyclic-form space, which comes from two
ranks, without building the basis.  Under ``--oracle`` the checker's verdict
on the anti-associativity of the summed product is read off the same view.
``verify_all`` builds each report through one helper, which reads its
entry with ``load_catalog_entry``.  Nothing is kept between calls: every
call reads and verifies its entries afresh, so a one-shot ``rhizalab
catalog verify`` saves as much per entry as a process that verifies the
catalog many times.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .. import oracle
from ..algmodel import HomAlgebra, parse_algebra_obj, sum_product
from ..axioms import CheckReport, _split_report, _sum_anti_associative, _view
from ..cocycles import _vector_cocycle_dim
from ..errors import ParseError, UnboundParameter, UnknownEntry
from ..nilpotency import NilpotencyAnalysis, _analysis

_DATA = Path(__file__).parent / "data" / "v1"
_ID_RE = re.compile(r"d(?P<dim>[23])\.A(?P<num>\d+)$")


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    dim: int
    tag: str
    algebra_doc: dict
    expected_components: tuple[tuple[int, int, int, str], ...]
    notes: tuple[str, ...]

    @property
    def expected_cocycle_dim(self) -> int:
        return len({name for *_ijk, name in self.expected_components})

    def algebra(self, params: dict[str, Fraction] | None = None) -> HomAlgebra:
        """Fully rational algebra of the entry; raises UnboundParameter, prefixed with the entry like a
        ParseError, when it references a symbol the caller did not bind."""
        try:
            return parse_algebra_obj(self.algebra_doc, bindings=params)
        except UnboundParameter as exc:
            raise UnboundParameter(exc.name, f"catalog entry {self.entry_id}: {exc.where}") from None
        except ParseError as exc:
            raise ParseError(f"catalog entry {self.entry_id}: {exc}") from None


def _sort_key(entry_id: str) -> tuple[int, int]:
    m = _ID_RE.match(entry_id)
    if not m:
        raise UnknownEntry(f"bad entry id {entry_id!r}")
    return int(m.group("dim")), int(m.group("num"))


def entry_ids() -> list[str]:
    ids = []
    for item in _DATA.iterdir():
        if item.name.endswith(".json"):
            ids.append(item.name[:-5].replace("_", "."))
    return sorted(ids, key=_sort_key)


def load_catalog_entry(entry_id: str) -> CatalogEntry:
    path = _DATA / (entry_id.replace(".", "_") + ".json")
    if not _ID_RE.match(entry_id) or not path.is_file():
        raise UnknownEntry(f"no catalog entry {entry_id!r}")
    doc = json.loads(path.read_text())
    components = tuple(
        (int(i), int(j), int(k), str(nm))
        for i, j, k, nm in doc.get("expected_cocycle", {}).get("components", [])
    )
    return CatalogEntry(
        entry_id=doc["id"],
        dim=int(doc["dim"]),
        tag=str(doc["tag"]),
        algebra_doc=doc["algebra"],
        expected_components=components,
        notes=tuple(doc.get("notes", [])),
    )


def load_entry(entry_id: str, params: dict[str, Fraction] | None = None) -> HomAlgebra:
    """Fully rational algebra for one entry (see ``CatalogEntry.algebra``)."""
    return load_catalog_entry(entry_id).algebra(params)


@dataclass(frozen=True)
class EntryReport:
    """One entry's report: the entry, its split report, the dimension of its algebra-valued
    cyclic-form space and its nilpotency analysis, which every other reading is derived from."""

    entry: CatalogEntry
    rhizaform: CheckReport
    cocycle_dim: int
    nilpotency: NilpotencyAnalysis

    @property
    def multiplicative(self) -> dict[str, bool]:
        return {name: self.rhizaform.identity_passed(f"mult_{name}") for name in ("succ", "prec")}

    @property
    def tag_agrees(self) -> bool:
        return (self.entry.tag == "m") == all(self.multiplicative.values())

    @property
    def cocycle_agrees(self) -> bool:
        return self.cocycle_dim == self.entry.expected_cocycle_dim

    def findings(self) -> list[str]:
        out, eid, nil = [], self.entry.entry_id, self.nilpotency
        ids = self.rhizaform.failed_ids()
        if ids:
            out.append(f"{eid}: split identities failing: {', '.join(ids)}")
        if not self.tag_agrees:
            claimed = "multiplicative" if self.entry.tag == "m" else "non-multiplicative"
            mult = self.multiplicative
            out.append(f"{eid}: tagged {claimed} but computed succ={mult['succ']}, prec={mult['prec']}")
        if not self.cocycle_agrees:
            out.append(
                f"{eid}: cyclic-form space has dimension {self.cocycle_dim}, "
                f"table lists {self.entry.expected_cocycle_dim} free constants"
            )
        if not nil.series_equality.passed:
            out.append(f"{eid}: power series disagree termwise")
        if not nil.onesided.passed:
            out.append(f"{eid}: one-sided nilpotency biconditional fails")
        return out

    def to_obj(self) -> dict:
        entry, nil = self.entry, self.nilpotency
        full = nil.verdicts["full"]
        return {
            "id": entry.entry_id,
            "dim": entry.dim,
            "tag": entry.tag,
            "rhizaform_passed": self.rhizaform.passed,
            "rhizaform_failed_ids": list(self.rhizaform.failed_ids()),
            "multiplicative": dict(sorted(self.multiplicative.items())),
            "tag_agrees": self.tag_agrees,
            "cocycle_dim": self.cocycle_dim,
            "cocycle_expected": entry.expected_cocycle_dim,
            "cocycle_agrees": self.cocycle_agrees,
            "nilpotent": full.nilpotent,
            "nilpotency_index": full.index,
            "series_equality": nil.series_equality.passed,
            "onesided_theorem": nil.onesided.passed,
            "two_nilpotent": nil.two_nilpotent.passed,
            "alpha_stable": None if nil.alpha_stability is None else nil.alpha_stability.passed,
            "notes": list(entry.notes),
            "findings": self.findings(),
        }


def _verified(entry_id: str, params, with_oracle: bool) -> tuple[EntryReport, list[str]]:
    """The report on one entry and, ``with_oracle``, its disagreements with the oracle, all read
    from one integer view of its algebra (``axioms._view``)."""
    entry = load_catalog_entry(entry_id)
    a = entry.algebra(params)
    view = _view(a)
    # check_rhizaform and analyze
    report = EntryReport(entry, _split_report(view, True), _vector_cocycle_dim(view), _analysis(view))
    return report, _oracle_disagreements(a, report, view) if with_oracle else []


def _oracle_disagreements(a: HomAlgebra, report: EntryReport, view) -> list[str]:
    """Diff harness verdicts against the brute-force evaluator; ``view`` is the integer view of
    ``a`` (``axioms._view``) that ``report`` was made from."""
    out, eid = [], report.entry.entry_id
    for ident, ok in oracle.rhizaform_identities(a).items():
        if report.rhizaform.identity_passed(ident) != ok:
            out.append(f"{eid}: checker vs oracle on {ident}")
    if _sum_anti_associative(view) != oracle.anti_associative(sum_product(a), a.alpha):
        out.append(f"{eid}: checker vs oracle on anti_assoc(sum)")
    if report.nilpotency.two_nilpotent.passed != oracle.two_nilpotent(a):
        out.append(f"{eid}: checker vs oracle on 2-nilpotency")
    return out


@dataclass(frozen=True)
class CatalogSummary:
    reports: tuple[EntryReport, ...]
    findings: tuple[str, ...]
    oracle_diffs: tuple[str, ...]

    @property
    def internal_error(self) -> bool:
        return bool(self.oracle_diffs)

    def to_obj(self) -> dict:
        return {
            "entries": [r.to_obj() for r in self.reports],
            "findings": list(self.findings),
            "oracle_disagreements": list(self.oracle_diffs),
        }

    def to_text(self) -> str:
        header = (
            f"{'id':<8} {'tag':<4} {'split':<6} {'mult':<5} {'cocycle':<12} "
            f"{'nilpotent':<12} {'series':<7} {'onesided':<8}"
        )
        lines = [header, "-" * len(header)]
        for r in self.reports:
            full, nil = r.nilpotency.verdicts["full"], r.nilpotency
            verdict = f"yes(idx {full.index})" if full.nilpotent else "no"
            coc = f"{r.cocycle_dim} vs {r.entry.expected_cocycle_dim}"
            lines.append(
                f"{r.entry.entry_id:<8} {r.entry.tag:<4} {str(r.rhizaform.passed):<6} "
                f"{str(all(r.multiplicative.values())):<5} {coc:<12} "
                f"{verdict:<12} {str(nil.series_equality.passed):<7} {str(nil.onesided.passed):<8}"
            )
        if self.findings:
            lines.append("")
            lines.append("findings:")
            lines.extend(f"  - {f}" for f in self.findings)
        if self.oracle_diffs:
            lines.append("")
            lines.append("ORACLE DISAGREEMENTS (internal errors):")
            lines.extend(f"  !! {d}" for d in self.oracle_diffs)
        return "\n".join(lines)


def verify_all(
    params: dict[str, Fraction] | None = None,
    dim: int | None = None,
    ids: list[str] | None = None,
    with_oracle: bool = False,
) -> CatalogSummary:
    """Verify the selected entries (all by default), ordered by id; an id not in
    the catalog raises UnknownEntry."""
    selected = entry_ids()
    if ids is not None:
        wanted = set(ids)
        unknown = sorted(wanted.difference(selected))
        if unknown:
            raise UnknownEntry(f"no catalog entry {unknown[0]!r}")
        selected = [e for e in selected if e in wanted]
    if dim is not None:
        selected = [e for e in selected if _sort_key(e)[0] == dim]
    reports = []
    findings: list[str] = []
    diffs: list[str] = []
    for entry_id in selected:
        report, entry_diffs = _verified(entry_id, params, with_oracle)
        reports.append(report)
        findings.extend(report.findings())
        diffs.extend(entry_diffs)
    return CatalogSummary(tuple(reports), tuple(findings), tuple(diffs))
