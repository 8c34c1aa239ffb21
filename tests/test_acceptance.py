"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact (tolerance zero); there is no floating point
anywhere in the package.  Where the source tables make a claim that exact
computation refutes, the criterion asserts what is proven instead and prints
the refuted part: criterion 05 asserts dual closure under its hypotheses
(multiplicative, alpha^2 = id) and lists the counterexamples to the blanket
claim; criterion 06 asserts the d3.A7/d3.A8 dimensions against a nullity and
hand-checkable witnesses computed here, and prints every table delta.  The
catalog keeps the tables' transcription, so `catalog verify` still reports
the disagreements as findings.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rhizalab import oracle
from rhizalab.algmodel import BilinearOp, HomAlgebra, LinearMap, sum_product
from rhizalab.axioms import (
    check_alpha_derivation,
    check_dendriform,
    check_hom_anti_associative,
    check_jacobi_jordan,
    check_multiplicativity,
    check_pre_jacobi_jordan,
    check_rhizaform,
    pre_jacobi_jordan_product,
    subadjacent_bracket,
)
from rhizalab.catalog import load_entry
from rhizalab.cli import main as cli_main
from rhizalab.cocycles import (
    rhizaform_from_cocycle,
    scalar_cocycle_space,
    vector_cocycle_space,
)
from rhizalab.exactlin import Matrix
from rhizalab.family import FamilyAlgebra, Semigroup, check_anti_associative_family
from rhizalab.family import check_rhizaform_family, tensor_collapse
from rhizalab.nilpotency import analyze, diamond
from rhizalab.operators import (
    check_bimodule,
    check_homomorphism,
    check_o_operator,
    check_rota_baxter,
    dual_bimodule,
    induced_rhizaform_from_rb,
    regular_bimodule,
    rhizaform_bimodule,
    rhizaform_equivalence_verdict,
)
from tests.conftest import (
    anti_associative_sums,
    catalog_algebras,
    negated_split_fixture,
    nondegenerate_in_span,
    padded_term,
    plain_family_identities_hold,
    random_split_algebra,
    rb_grid,
    rhizaform_passing_entries,
    sum_mono,
    z2_rb_family_fixture,
    zero_product_mono,
)
from tests.fraction_checkers import times

F = Fraction


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {mark}{suffix}")


def cancelling_split_algebra() -> HomAlgebra:
    """A 2-dimensional split algebra on which req1, req3, den1 and den3 hold while sums in the
    oracle's products cancel to zero, so an oracle that keeps a cancelled zero misjudges them."""
    succ = BilinearOp.from_entries(2, [(0, 0, 0, 1), (0, 1, 0, -1), (1, 0, 0, -1)])
    prec = BilinearOp.from_entries(2, [(0, 0, 0, 1), (0, 1, 0, -1)])
    return HomAlgebra.rhizaform(succ, prec, LinearMap.from_rows([[-1, 1], [-1, 1]]))


def test_criterion_01_oracle_equivalence():
    """Every checker verdict equals the brute-force evaluator's, exactly,
    on all 23 entries, 200 random structure tensors (dims 2-3) and one
    algebra whose identities hold through cancelling sums."""
    mismatches = []

    def compare(label: str, a: HomAlgebra):
        rep = check_rhizaform(a)
        for ident, ok in oracle.rhizaform_identities(a).items():
            if rep.identity_passed(ident) != ok:
                mismatches.append(f"{label}:rhizaform:{ident}")
        den = check_dendriform(a)
        for ident, ok in oracle.dendriform_identities(a).items():
            if den.identity_passed(ident) != ok:
                mismatches.append(f"{label}:dendriform:{ident}")
        s = sum_product(a)
        pairs = [
            ("anti_assoc", check_hom_anti_associative(s, a.alpha).passed,
             oracle.anti_associative(s, a.alpha)),
            ("jacobi_jordan", check_jacobi_jordan(s, a.alpha).passed,
             oracle.jacobi_jordan(s, a.alpha)),
            ("pre_jacobi_jordan", check_pre_jacobi_jordan(s, a.alpha).passed,
             oracle.pre_jacobi_jordan(s, a.alpha)),
            ("two_nilpotent", analyze(a).two_nilpotent.passed, oracle.two_nilpotent(a)),
        ]
        summed = HomAlgebra.mono(s, a.alpha)
        m = rhizaform_bimodule(a)
        pairs.append(
            ("bimodule", check_bimodule(summed, m).passed,
             oracle.bimodule(summed.mul, summed.alpha, m.left, m.right, m.beta))
        )
        for op in (Matrix.zero(a.dim, a.dim), Matrix.identity(a.dim)):
            pairs.append(
                ("rota_baxter", check_rota_baxter(op, summed).passed,
                 oracle.rota_baxter(op, summed.mul, summed.alpha))
            )
            pairs.append(
                ("o_operator", check_o_operator(op, summed, m).passed,
                 oracle.o_operator(op, summed.mul, summed.alpha, m.left, m.right, m.beta))
            )
        for name, got, expected in pairs:
            if got != expected:
                mismatches.append(f"{label}:{name}")

    for eid, a in catalog_algebras():
        compare(eid, a)
    rng = random.Random(20260810)
    for trial in range(200):
        compare(f"rand{trial}", random_split_algebra(rng, 2 + trial % 2))
    compare("cancelling", cancelling_split_algebra())

    ok = not mismatches
    verdict(1, "oracle equivalence (23 entries + 200 random tensors + 1 cancelling)", ok,
            f"{len(mismatches)} mismatches")
    assert ok, mismatches


# Small structures for the property test below: few nonzero entries, so that
# identities hold often, and fractional values, so that scales matter.  Every
# part shrinks towards zero (products, operators) or the identity (twist).
SMALL_VALUES = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(3, 5), F(-5, 7), F(7, 2)])


@st.composite
def small_structures(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)

    def cells(arity):
        return draw(st.lists(st.tuples(*[index] * arity, SMALL_VALUES), max_size=3))

    def matrix(base):
        entries = [F(int(base and r == c)) for r in range(n) for c in range(n)]
        for r, c, v in cells(2):
            entries[r * n + c] = v
        return Matrix(n, n, entries)

    succ, prec = (BilinearOp.from_entries(n, cells(3)) for _ in range(2))
    a = HomAlgebra.rhizaform(succ, prec, LinearMap(n, matrix(True)))
    return a, matrix(False), matrix(False), matrix(True)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_structures())
def test_checker_verdicts_equal_oracle_per_identity(structures):
    """Criterion 01 as a property: on small fractional algebras every checker
    with an oracle gives the oracle's verdict, identity by identity; a
    failure shrinks to a minimal algebra."""
    a, d, r, t = structures
    s = sum_product(a)
    summed = HomAlgebra.mono(s, a.alpha)
    m = rhizaform_bimodule(a)
    rhiza, den = check_rhizaform(a), check_dendriform(a)
    pairs = [(f"rhizaform:{i}", rhiza.identity_passed(i), ok) for i, ok in oracle.rhizaform_identities(a).items()]
    pairs += [(f"dendriform:{i}", den.identity_passed(i), ok) for i, ok in oracle.dendriform_identities(a).items()]
    pairs += [
        ("anti_assoc", check_hom_anti_associative(s, a.alpha).passed, oracle.anti_associative(s, a.alpha)),
        ("jacobi_jordan", check_jacobi_jordan(s, a.alpha).passed, oracle.jacobi_jordan(s, a.alpha)),
        ("pre_jacobi_jordan", check_pre_jacobi_jordan(s, a.alpha).passed, oracle.pre_jacobi_jordan(s, a.alpha)),
        ("two_nilpotent", analyze(a).two_nilpotent.passed, oracle.two_nilpotent(a)),
        ("bimodule", check_bimodule(summed, m).passed, oracle.bimodule(s, a.alpha, m.left, m.right, m.beta)),
        ("rota_baxter", check_rota_baxter(r, summed).passed, oracle.rota_baxter(r, s, a.alpha)),
        (
            "o_operator",
            check_o_operator(t, summed, m).passed,
            oracle.o_operator(t, s, a.alpha, m.left, m.right, m.beta),
        ),
    ]
    for name in ("succ", "prec"):
        op = a.product(name)
        pairs.append((f"mult:{name}", check_multiplicativity(op, a.alpha).passed, oracle.multiplicative(op, a.alpha)))
        derivation = check_alpha_derivation(d, a, name).passed
        pairs.append((f"derivation:{name}", derivation, oracle.alpha_derivation(d, a, name)))
    assert [name for name, got, want in pairs if got != want] == []


def test_criterion_02_derived_structure_chain():
    """On every split-passing entry: the sum is anti-associative, the circle
    product satisfies the pre-twisted-Jacobi identity, and the bracket the
    twisted-Jacobi pair, with zero violations."""
    entries = rhizaform_passing_entries()
    bad = []
    for eid, a in entries:
        if check_hom_anti_associative(sum_product(a), a.alpha).violations:
            bad.append(f"{eid}:sum")
        if check_pre_jacobi_jordan(pre_jacobi_jordan_product(a), a.alpha).violations:
            bad.append(f"{eid}:circle")
        if check_jacobi_jordan(subadjacent_bracket(a), a.alpha).violations:
            bad.append(f"{eid}:bracket")
    ok = not bad and bool(entries)
    verdict(2, "derived-structure chain on split-passing entries", ok,
            f"{len(entries)} entries")
    assert ok, bad


def test_criterion_03_split_bimodule_biconditional():
    """check split <=> (sum anti-associative and split actions form a module),
    500 random dim-2 tensors, no counterexample."""
    rng = random.Random(31415)
    counterexamples = 0
    for _ in range(500):
        a = random_split_algebra(rng, 2)
        split_ok, route_ok = rhizaform_equivalence_verdict(a)
        if split_ok != route_ok:
            counterexamples += 1
    ok = counterexamples == 0
    verdict(3, "split check equals module route on 500 random tensors", ok)
    assert ok


def test_criterion_04_rb_induction_chain():
    """Every grid-found averaging operator on an anti-associative 2-dim
    catalog sum induces a passing split algebra, and the operator is a
    homomorphism from the induced sum back into the source."""
    bad = []
    passing_pairs = 0
    for eid, s in anti_associative_sums():
        if s.dim != 2:
            continue
        for op in rb_grid(s):
            passing_pairs += 1
            ind = induced_rhizaform_from_rb(op, s, strict=False)
            if not check_rhizaform(ind).passed:
                bad.append(f"{eid}:induced")
            if not check_homomorphism(op, sum_mono(ind), s).passed:
                bad.append(f"{eid}:homomorphism")
    ok = not bad and passing_pairs > 0
    verdict(4, "averaging-operator induction chain", ok, f"{passing_pairs} pairs")
    assert ok, bad


def involutive_fixtures() -> list[tuple[str, HomAlgebra]]:
    """Hand-checkable multiplicative sums with alpha^2 = id.

    Every product lands in a vector the products kill, so all triple
    products vanish and both are anti-associative.
    """
    return [
        # e1*e1 = e2; alpha(e1) = -e1 + e2, alpha(e2) = e2
        ("inv2", HomAlgebra.mono(
            BilinearOp.from_entries(2, [(0, 0, 1, F(1))]),
            LinearMap.from_rows([[-1, 0], [1, 1]]),
        )),
        # e1*e2 = e3, e2*e1 = -e3; alpha = diag(1, -1, -1)
        ("inv3", HomAlgebra.mono(
            BilinearOp.from_entries(3, [(0, 1, 2, F(1)), (1, 0, 2, F(-1))]),
            LinearMap.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        )),
    ]


def closure_hypotheses_hold(s: HomAlgebra) -> bool:
    """Multiplicative, Hom-anti-associative and alpha^2 = id."""
    return (
        oracle.multiplicative(s.mul, s.alpha)
        and oracle.anti_associative(s.mul, s.alpha)
        and times(s.alpha.matrix, s.alpha.matrix) == Matrix.identity(s.dim)
    )


def test_criterion_05_dual_bimodule_closure():
    """Dual of the regular bimodule: transpose and swap sides, twist alpha^T.

    Proven and asserted:
    * the double dual is bit-identical on all 17 anti-associative catalog sums;
    * on a multiplicative Hom-anti-associative sum with alpha^2 = id the dual
      passes all five identities and bm3_swapped (each follows from
      anti-associativity or multiplicativity after substituting
      a = alpha(alpha(a))); in the catalog that is d2.A7 and d3.A16, and two
      hand-checkable involutive fixtures are added;
    * the checker's verdict on every dual equals the oracle's, so each
      counterexample below is real.

    Refuted, and only reported: closure on EVERY anti-associative sum.  Ten
    sums are not multiplicative (their regular bimodule already fails bm4 and
    bm5); d2.A2, d2.A3, d2.A4 and d3.A2 are multiplicative with a singular
    twist and fail the transposed twist identity.  An invertible twist is not
    enough either (see test_operators)."""
    sums = anti_associative_sums()
    failures = []
    closure_cases = []
    refuted = []
    for eid, s in sums:
        reg = regular_bimodule(s)
        dual = dual_bimodule(reg)
        if dual_bimodule(dual) != reg:
            failures.append(f"{eid}:double-dual")
        passed = check_bimodule(s, dual).passed
        if passed != oracle.bimodule(s.mul, s.alpha, dual.left, dual.right, dual.beta):
            failures.append(f"{eid}:oracle")
        if closure_hypotheses_hold(s):
            closure_cases.append(eid)
            if not passed:
                failures.append(f"{eid}:dual-closure")
        elif not passed:
            refuted.append(eid)
    for label, s in involutive_fixtures():
        closure_cases.append(label)
        if not closure_hypotheses_hold(s):
            failures.append(f"{label}:hypotheses")
        if not check_bimodule(s, dual_bimodule(regular_bimodule(s))).passed:
            failures.append(f"{label}:dual-closure")
    detail = (
        f"closure on {', '.join(closure_cases)}; blanket claim refuted on "
        f"{len(refuted)} of {len(sums)} sums: {', '.join(refuted)}"
    )
    ok = (
        not failures
        and len(sums) == 17
        and closure_cases == ["d2.A7", "d3.A16", "inv2", "inv3"]
        and "d2.A2" in refuted
    )
    verdict(5, "dual module closure under its hypotheses", ok, detail)
    assert ok, (failures, closure_cases, refuted)


def rank_by_elimination(rows: list[list[Fraction]]) -> int:
    """Row rank by plain Fraction elimination, sharing no code with rhizalab."""
    rows = [list(r) for r in rows]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rk, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        top = rows[rk]
        for r in range(rk + 1, len(rows)):
            f = rows[r][c] / top[c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rk += 1
    return rk


def raw_constants(a: HomAlgebra):
    """Summed structure constants s[i][j][k] and twist matrix al[row][col]."""
    n = a.dim
    s = [
        [[a.succ.coeffs[i][j][k] + a.prec.coeffs[i][j][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    al = [[a.alpha.matrix.at(r, c) for c in range(n)] for r in range(n)]
    return n, s, al


def cyclic_form_nullity(a: HomAlgebra) -> int:
    """Dimension of the algebra-valued cyclic + twist-compatibility space.

    Unknown w[p][q][r] is the e_r-coordinate of w(e_p, e_q).  Rows:
    w(e_i*e_j, alpha e_k) + w(e_j*e_k, alpha e_i) + w(e_k*e_i, alpha e_j) = 0
    and alpha(w(e_i, e_j)) = w(alpha e_i, alpha e_j), one per coordinate.
    """
    n, s, al = raw_constants(a)
    rows = []
    for i, j, k, c in itertools.product(range(n), repeat=4):
        row = [F(0)] * n**3
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for p, q in itertools.product(range(n), repeat=2):
                row[(p * n + q) * n + c] += s[x][y][p] * al[q][z]
        rows.append(row)
    for i, j, c in itertools.product(range(n), repeat=3):
        row = [F(0)] * n**3
        for t in range(n):
            row[(i * n + j) * n + t] += al[c][t]
        for p, q in itertools.product(range(n), repeat=2):
            row[(p * n + q) * n + c] -= al[p][i] * al[q][j]
        rows.append(row)
    return n**3 - rank_by_elimination(rows)


def witness_holds(a: HomAlgebra, w) -> bool:
    """Brute-force substitution of the tensor w[p][q][r] into both conditions."""
    n, s, al = raw_constants(a)
    basis = [[F(int(i == j)) for j in range(n)] for i in range(n)]

    def mul(x, y):
        return [sum(x[i] * y[j] * s[i][j][k] for i in range(n) for j in range(n)) for k in range(n)]

    def form(x, y):
        return [sum(x[p] * y[q] * w[p][q][r] for p in range(n) for q in range(n)) for r in range(n)]

    def twist(x):
        return [sum(al[r][c] * x[c] for c in range(n)) for r in range(n)]

    for x, y, z in itertools.product(basis, repeat=3):
        terms = (form(mul(x, y), twist(z)), form(mul(y, z), twist(x)), form(mul(z, x), twist(y)))
        if any(sum(t[r] for t in terms) for r in range(n)):
            return False
    return all(
        twist(form(x, y)) == form(twist(x), twist(y))
        for x, y in itertools.product(basis, repeat=2)
    )


def single_entry_form(n: int, p: int, q: int, r: int) -> list:
    """w(e_p, e_q) = e_r (1-based) and zero elsewhere."""
    return [
        [[F(int((i, j, k) == (p - 1, q - 1, r - 1))) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def test_criterion_06_cocycle_table_anchors():
    """Solved algebra-valued form dimensions vs the printed free-constant
    counts.  Both 2-dim anchors (d2.A1: 2, d2.A7: 4) come from the table and
    reproduce (the full 2-dim table does, couplings included).

    The printed 3-dim table claims the zero space for d3.A7 and d3.A8; exact
    computation refutes that.  Each has a nonzero form that is checked by
    hand: every product lies in span(e3) (d3.A7) or span(e2) (d3.A8), the
    form kills that vector in its first slot, and alpha fixes e1 and the
    coordinate the form reads, so
    * d3.A7: w(e2, e2) = e1, zero elsewhere;
    * d3.A8: w(e3, e3) = e1, zero elsewhere.
    The anchors asserted for them are the solved dimensions 8 and 3, each
    equal to a nullity assembled here from the raw structure constants
    (d3.A7 at several eta).  The catalog keeps the table's transcription, so
    the disagreement stays a finding of `catalog verify`; every other
    disagreement is printed as a delta."""
    from rhizalab.catalog import load_catalog_entry

    table_anchors = {"d2.A1": 2, "d2.A7": 4}
    computed = {}
    deltas = []
    for eid, a in catalog_algebras():
        dim = len(vector_cocycle_space(sum_mono(a)))
        computed[eid] = dim
        expected = load_catalog_entry(eid).expected_cocycle_dim
        if dim != expected:
            deltas.append(f"{eid}: computed {dim} vs table {expected}")
    for line in deltas:
        print(f"  cocycle delta -> {line}")
    bad = [
        f"{eid} computed {computed[eid]} vs table {want}"
        for eid, want in table_anchors.items()
        if not computed[eid] == want == load_catalog_entry(eid).expected_cocycle_dim
    ]
    solved_anchors = {"d3.A7": 8, "d3.A8": 3}
    witnesses = {"d3.A7": single_entry_form(3, 2, 2, 1), "d3.A8": single_entry_form(3, 3, 3, 1)}
    cases = [("d3.A7", f"eta={v}", {"eta": F(v)}) for v in ("0", "1/4", "1", "2", "-1")]
    cases.append(("d3.A8", "", None))
    for eid, binding, params in cases:
        a = load_entry(eid, params)
        label = f"{eid}[{binding}]" if binding else eid
        space = vector_cocycle_space(sum_mono(a))
        nullity = cyclic_form_nullity(a)
        if not len(space) == nullity == solved_anchors[eid]:
            bad.append(f"{label} solved {len(space)}, nullity {nullity}")
        w = witnesses[eid]
        if not witness_holds(a, w):
            bad.append(f"{label} witness fails substitution")
        flat = [[c for row in v.coeffs for col in row for c in col] for v in space]
        witness_flat = [c for row in w for col in row for c in col]
        if rank_by_elimination(flat + [witness_flat]) != len(space):
            bad.append(f"{label} witness outside the solved span")
    ok = not bad
    verdict(6, "cocycle table anchor reproduction", ok,
            "; ".join(bad) or "d2.A1 2, d2.A7 4 (table); d3.A7 8, d3.A8 3 (witness + nullity)")
    assert ok, bad


def test_criterion_07_cocycle_construction():
    """Every nondegenerate scalar solution found on the fixture algebras
    (catalog sums and zero-product algebras) induces a splitting passing the
    split check whose sum is exactly the source product."""
    fixtures: list[tuple[str, HomAlgebra]] = list(anti_associative_sums())
    fixtures.append(("zero2", zero_product_mono(2)))
    fixtures.append(("zero3", zero_product_mono(3)))
    fixtures.append(
        ("zero2_diag", zero_product_mono(2, LinearMap.from_rows([[1, 0], [0, -1]])))
    )
    found = 0
    bad = []
    for label, s in fixtures:
        space = scalar_cocycle_space(s)
        b = nondegenerate_in_span(space)
        if b is None:
            continue
        found += 1
        out = rhizaform_from_cocycle(s, b, strict=True)
        if not check_rhizaform(out).passed:
            bad.append(f"{label}:split")
        if sum_product(out) != s.mul:
            bad.append(f"{label}:sum")
    ok = not bad and found > 0
    verdict(7, "splitting from nondegenerate forms", ok, f"{found} nondegenerate instances")
    assert ok, bad


def test_criterion_08_nilpotency_package():
    bad = []
    if analyze(load_entry("d2.A1")).verdicts["full"] != (True, 3):
        bad.append("d2.A1 index")
    if analyze(load_entry("d2.A5")).verdicts["full"].nilpotent:
        bad.append("d2.A5 should not be nilpotent")
    passing = rhizaform_passing_entries()
    for eid, a in passing:
        nil = analyze(a)
        if not nil.series_equality.passed:
            bad.append(f"{eid}:series-equality")
        for kind, g, h in itertools.product(("right", "full"), range(1, 5), range(1, 5)):
            terms = nil.series[kind]
            if not padded_term(terms, g + h).contains(diamond(padded_term(terms, g), padded_term(terms, h), a)):
                bad.append(f"{eid}:{kind}-inclusion:{g},{h}")
    for eid, a in catalog_algebras():
        if not analyze(a).onesided.passed:
            bad.append(f"{eid}:onesided")
    for n in (2, 3):
        fixture = negated_split_fixture(n)
        if not check_rhizaform(fixture).passed:
            bad.append(f"negated{n}:not-split")
        if not analyze(fixture).two_nilpotent.passed:
            bad.append(f"negated{n}:2-nilpotent")
    ok = not bad
    verdict(8, "nilpotency verdicts, series equality, inclusions", ok, "; ".join(bad[:4]))
    assert ok, bad


def test_criterion_09_family_reductions():
    bad = []
    ids = ("req1", "req2", "req3", "mult_succ", "mult_prec")
    for eid, a in catalog_algebras():
        fam = FamilyAlgebra.from_plain(a)
        frep = check_rhizaform_family(fam)
        prep = check_rhizaform(a)
        for ident in ids:
            if frep.identity_passed(ident) != prep.identity_passed(ident):
                bad.append(f"{eid}:{ident}")
        s = sum_mono(a)
        anti_plain = check_hom_anti_associative(s.mul, s.alpha).passed
        anti_fam = check_anti_associative_family(
            {(0, 0): s.mul}, s.alpha, Semigroup.trivial()
        ).passed
        if anti_plain != anti_fam:
            bad.append(f"{eid}:anti-family")
    # identity-twist family checkers reproduce the untwisted family axioms
    rng = random.Random(271828)
    z2 = Semigroup.cyclic(2)
    small = (F(-1), F(0), F(1))
    for _ in range(25):
        ops = {
            name: {
                lam: BilinearOp(
                    2, [[[rng.choice(small) for _ in range(2)] for _ in range(2)] for _ in range(2)]
                )
                for lam in range(2)
            }
            for name in ("succ", "prec")
        }
        fam = FamilyAlgebra(2, z2, ops["succ"], ops["prec"], LinearMap.identity(2))
        if check_rhizaform_family(fam).passed != plain_family_identities_hold(fam):
            bad.append("alpha-id-reduction")
    # collapse of every passing family fixture is a single averaging operator
    collapsed = 0
    for eid, s in anti_associative_sums():
        if s.dim != 2 or eid not in ("d2.A1", "d2.A7"):
            continue
        for rf in z2_rb_family_fixture(s):
            collapsed += 1
            big, big_r = tensor_collapse(s, rf)
            if not check_rota_baxter(big_r, big).passed:
                bad.append(f"{eid}:collapse")
    ok = not bad and collapsed > 0
    verdict(9, "family reductions and collapse", ok, f"{collapsed} collapses")
    assert ok, bad


def test_criterion_10_determinism():
    def run() -> bytes:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(
                ["catalog", "verify", "--format", "structured", "--param", "eta=1"]
            )
        assert code == 0
        return out.getvalue().encode()

    first, second = run(), run()
    ok = first == second
    verdict(10, "byte-identical structured catalog reports", ok, f"{len(first)} bytes")
    assert ok
    json.loads(first.decode())  # and it is well-formed
