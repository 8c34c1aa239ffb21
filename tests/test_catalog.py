import random
from fractions import Fraction

import pytest

from rhizalab.algmodel import LinearMap, parse_algebra, serialize_algebra, sum_product
from rhizalab.axioms import _sum_anti_associative, _view, check_hom_anti_associative, check_rhizaform
from rhizalab.catalog import (
    CatalogEntry,
    CatalogSummary,
    entry_ids,
    load_catalog_entry,
    load_entry,
    verify_all,
    verify_entry,
)
from rhizalab.cocycles import vector_cocycle_space
from rhizalab.errors import ParseError, UnboundParameter, UnknownEntry
from rhizalab.exactlin import Matrix
from rhizalab.nilpotency import analyze
from rhizalab.operators import LinearOperator, check_homomorphism
from tests.conftest import catalog_algebras, random_split_algebra
from tests.fraction_checkers import basis_vec

F = Fraction
ETA = {"eta": F(1)}


def test_entry_listing():
    ids = entry_ids()
    assert len(ids) == 23
    assert ids[:7] == [f"d2.A{i}" for i in range(1, 8)]
    assert ids[7:] == [f"d3.A{i}" for i in range(1, 17)]


def test_load_d2_a7():
    a = load_entry("d2.A7")
    assert a.dim == 2
    assert a.succ.entry(0, 0) == (F(0), F(1))
    assert a.prec.entry(0, 0) == (F(0), F(1))
    assert a.alpha == LinearMap.identity(2)


def test_load_d3_a4_with_binding():
    a = load_entry("d3.A4", {"eta": F(1)})
    # e1 prec e2 = eta e3 becomes e3 at eta = 1
    assert a.prec.entry(0, 1) == (F(0), F(0), F(1))
    half = load_entry("d3.A4", {"eta": F(1, 2)})
    assert half.prec.entry(0, 1) == (F(0), F(0), F(1, 2))


def test_unbound_parameter():
    with pytest.raises(UnboundParameter) as err:
        load_entry("d3.A4")
    assert err.value.name == "eta"


def test_parameter_free_entries_need_no_bindings():
    for eid in entry_ids():
        entry = load_catalog_entry(eid)
        if not entry.parameters:
            load_entry(eid)  # must not raise


def test_entries_with_parameters():
    with_eta = {eid for eid in entry_ids() if load_catalog_entry(eid).parameters}
    assert with_eta == {"d3.A4", "d3.A6", "d3.A7", "d3.A9"}


def test_parameters_are_the_names_the_parser_reads():
    """Signed and spaced literals are no names; a name in the twist map is one."""
    doc = {"dim": 1, "kind": "rhizaform", "alpha": [["eta"]], "succ": [[1, 1, 1, "+1"]], "prec": [[1, 1, 1, " 2"]]}
    entry = CatalogEntry("d2.A0", 1, "test", doc, (), ())
    assert entry.parameters == ("eta",)
    with pytest.raises(UnboundParameter):
        entry.algebra()
    assert entry.algebra({"eta": F(3)}).alpha == LinearMap.from_rows([[3]])


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        load_entry("d4.A1")
    with pytest.raises(UnknownEntry):
        load_catalog_entry("d2.A99")


def test_round_trip_every_entry():
    for eid in entry_ids():
        a = load_entry(eid, ETA)
        assert parse_algebra(serialize_algebra(a)) == a, eid


def test_expected_cocycle_counts():
    expect = {
        "d2.A1": 2, "d2.A2": 3, "d2.A3": 3, "d2.A4": 3, "d2.A5": 3, "d2.A6": 3, "d2.A7": 4,
        "d3.A1": 3, "d3.A2": 3, "d3.A3": 5, "d3.A4": 3, "d3.A5": 3, "d3.A6": 5,
        "d3.A7": 0, "d3.A8": 0, "d3.A9": 5, "d3.A10": 3, "d3.A11": 7, "d3.A12": 7,
        "d3.A13": 3, "d3.A14": 3, "d3.A15": 10, "d3.A16": 18,
    }
    for eid, count in expect.items():
        assert load_catalog_entry(eid).expected_cocycle_dim == count, eid


def test_verify_entry_d2_a7():
    rep = verify_entry("d2.A7")
    assert rep.rhizaform.passed
    assert rep.multiplicative == {"succ": True, "prec": True}
    assert rep.tag_agrees
    assert rep.cocycle_dim == 4 and rep.cocycle_agrees
    assert rep.nilpotent == (True, 3)


def test_verify_entry_d2_a1():
    rep = verify_entry("d2.A1")
    assert rep.cocycle_dim == 2 and rep.cocycle_agrees
    assert rep.nilpotent == (True, 3)
    assert rep.series_equality.passed and rep.onesided.passed
    assert rep.findings() == []


def test_verify_entry_d2_a5():
    rep = verify_entry("d2.A5")
    assert not rep.nilpotent.nilpotent
    assert rep.nilpotent.index is None
    assert not rep.rhizaform.passed
    assert rep.tag_agrees  # tagged nm, computed non-multiplicative


def test_verify_entry_d2_a4_tag_finding():
    rep = verify_entry("d2.A4")
    assert rep.rhizaform.passed
    assert not rep.tag_agrees
    assert any("tagged" in f for f in rep.findings())


def test_verify_all_counts():
    summary = verify_all(params=ETA)
    assert len(summary.reports) == 23
    assert isinstance(summary, CatalogSummary)
    dim2 = verify_all(params=ETA, dim=2)
    assert [r.entry_id for r in dim2.reports] == [f"d2.A{i}" for i in range(1, 8)]
    nothing = verify_all(params=ETA, ids=[])
    assert nothing.reports == ()
    assert not nothing.internal_error


def test_verify_all_with_oracle_has_no_disagreements():
    summary = verify_all(params=ETA, with_oracle=True)
    assert summary.oracle_diffs == ()
    assert not summary.internal_error


def test_eta_free_entries_report_identically_across_eta():
    samples = [{"eta": F(0)}, {"eta": F(1)}, {"eta": F(-2)}, {"eta": F(1, 4)}]
    baseline = None
    for params in samples:
        summary = verify_all(params=params)
        rows = {
            r.entry_id: (
                r.rhizaform.passed,
                tuple(sorted(r.multiplicative.items())),
                r.cocycle_dim,
                r.nilpotent,
                r.series_equality.passed,
                r.onesided.passed,
            )
            for r in summary.reports
            if not load_catalog_entry(r.entry_id).parameters
        }
        if baseline is None:
            baseline = rows
        else:
            assert rows == baseline


# eta = 0 reorders d3.A4's failing split identities; the last eta has a height of about 2^20
DIFFERENTIAL_ETAS = [F(0), F(1), F(-2), F(1, 4), F(2**20 + 7, 3)]


@pytest.mark.parametrize("eta", DIFFERENTIAL_ETAS, ids=str)
def test_entry_reports_equal_the_public_checks(eta):
    """Each entry's report reads one integer view of its products for the split identities and the
    series, and the cyclic-form dimension without its basis: every field equals what the public
    checks give on the entry's algebra."""
    params = {"eta": eta}
    for report in verify_all(params=params).reports:
        a = load_entry(report.entry_id, params)
        nil = analyze(a)
        assert report == verify_entry(report.entry_id, params)
        assert report.rhizaform == check_rhizaform(a), report.entry_id
        assert report.cocycle_dim == len(vector_cocycle_space(a)), report.entry_id
        assert report.nilpotent == nil.verdicts["full"], report.entry_id
        assert (report.series_equality, report.onesided, report.two_nilpotent, report.alpha_stability) == (
            nil.series_equality,
            nil.onesided,
            nil.two_nilpotent,
            nil.alpha_stability,
        ), report.entry_id


def test_sum_anti_associativity_from_the_integer_view_equals_the_checker():
    """The --oracle route reads the checker's anti_assoc(sum) verdict off the entry's integer view:
    it equals the full check on the summed product, for the catalog at four etas and for seeded
    random split algebras, and both verdicts occur."""
    inputs = [a for eta in (F(0), F(1), F(-1, 2), F(1024, 81)) for _, a in catalog_algebras({"eta": eta})]
    rng = random.Random(20261019)
    inputs += [random_split_algebra(rng, 2 + trial % 3) for trial in range(40)]
    verdicts = []
    for a in inputs:
        expected = check_hom_anti_associative(sum_product(a), a.alpha).passed
        assert _sum_anti_associative(_view(a)) == expected
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


def test_a_bad_binding_is_refused_whichever_entries_are_selected():
    """A binding is parsed for every selected entry, also one that reads no parameter."""
    with pytest.raises(ParseError):
        verify_all(params={"eta": 0.5}, dim=2)
    with pytest.raises(ParseError):
        verify_entry("d2.A1", {"eta": 0.5})


def test_findings_mention_cocycle_deltas():
    summary = verify_all(params=ETA)
    text = "\n".join(summary.findings)
    assert "d3.A7" in text and "dimension 8" in text
    assert "d3.A8" in text and "dimension 3" in text


def test_structured_report_is_deterministic():
    import json

    one = json.dumps(verify_all(params=ETA).to_obj())
    two = json.dumps(verify_all(params=ETA).to_obj())
    assert one == two


def test_notes_surface_table_oddities():
    assert any("two lines" in n for n in load_catalog_entry("d2.A4").notes)
    assert any("alpha(e1)" in n for n in load_catalog_entry("d3.A1").notes)
    assert any("as printed" in n for n in load_catalog_entry("d3.A10").notes)


def test_d2_a5_and_d2_a6_are_isomorphic_as_transcribed():
    """Finding: the basis swap e1 <-> e2 maps d2.A5 onto d2.A6 and back (alpha, succ and prec),
    and maps d2.A5's expected cocycle components onto d2.A6's.  Each entry's note says its
    source table omits one alpha image, encoded as 0, so the redundancy may come from that
    encoding rather than from the paper.  The catalog data stays the tables' transcription."""
    swap = LinearOperator(2, 2, Matrix.from_rows([[F(0), F(1)], [F(1), F(0)]]))
    a5, a6 = load_entry("d2.A5"), load_entry("d2.A6")
    assert check_homomorphism(swap, a5, a6).passed
    assert check_homomorphism(swap, a6, a5).passed

    def swapped(entry_id):
        return {tuple(3 - i for i in ijk) for *ijk, _ in load_catalog_entry(entry_id).expected_components}

    assert swapped("d2.A5") == {(2, 2, 2), (2, 1, 2), (1, 2, 2)}
    assert swapped("d2.A5") == {tuple(ijk) for *ijk, _ in load_catalog_entry("d2.A6").expected_components}
    notes = [note for eid in ("d2.A5", "d2.A6") for note in load_catalog_entry(eid).notes]
    assert all("encoded as 0" in note for note in notes)
    print("finding: d2.A5 is isomorphic to d2.A6 by e1 <-> e2 (alpha, succ, prec, expected cocycle components);")
    print(f"  the entries' notes: {'; '.join(notes)}")
