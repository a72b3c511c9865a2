"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each test prints a single PASS line once its assertions hold; a failing
criterion shows up as an ordinary pytest failure.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import pytest

from qgraded.algebras import (build_b_symmetric_truncation,
                              build_truncated_poly,
                              check_quantum_commutativity, coinvariants)
from qgraded.commutation import check_cqt_axioms, standard_factor, trivial_factor
from qgraded.galois import beta_n, check_equivalence_theorem, is_galois
from qgraded.group_hopf import check_hopf_axioms
from qgraded.groups import GradingGroup
from qgraded.linalg import Echelon
from qgraded.scalars import Scalar, root_of_unity


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_equivalence_theorem(corpus):
    started = time.monotonic()
    names = {e.name for e in corpus}
    assert len(corpus) >= 20
    # required families are all present
    for n in (2, 3, 4):
        for N in (1, 2):
            tagged = [e for e in corpus
                      if e.name.startswith("twisted-")
                      and e.algebra.group == GradingGroup(0, (n,) * N)]
            assert len(tagged) >= 3, (n, N)
    assert {f"truncated-poly-m{m}" for m in (2, 3, 4)} <= names
    group_algebras = [e for e in corpus if e.name.startswith("group-algebra-")]
    assert group_algebras and all(
        e.algebra.group.order <= 8 for e in group_algebras)

    agreements = 0
    for entry in corpus:
        eq = check_equivalence_theorem(entry.algebra)
        assert eq.agree, (entry.name, eq.strong.strong, eq.galois.galois)
        assert eq.strong.strong == entry.expect_strong, entry.name
        agreements += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.1f}s"
    report(1, f"strong-grading == Galois on {agreements}/{len(corpus)} "
              f"algebras in {elapsed:.1f}s")


def corpus_factors(corpus):
    """All corpus factors plus one order-64 factor for the axiom sweep."""
    out = [(e.name, e.factor) for e in corpus if e.factor is not None]
    big = GradingGroup(0, (2,) * 6)
    sigma = [[(1 if i != j else 0) for j in range(6)] for i in range(6)]
    out.append(("z2^6-order-64",
                standard_factor(big, sigma, [[0] * 6 for _ in range(6)],
                                Scalar.one())))
    return out


def test_criterion_2_cqt_axioms_on_all_triples(corpus):
    factors = corpus_factors(corpus)
    checked = 0
    for name, b in factors:
        assert b.group.order <= 64, name
        rep = check_cqt_axioms(b)  # full triple cube for order <= 64
        assert rep.passed, (name, rep.failures())
        checked += 1
    orders = sorted({b.group.order for _, b in factors})
    assert max(orders) == 64
    report(2, f"coquasitriangularity axioms exact on all group-like triples "
              f"for {checked} factors (group orders {orders})")


def test_criterion_3_kernel_witness_for_square_zero_extension():
    P = build_truncated_poly(2)
    rep = is_galois(P)
    assert not rep.galois
    assert rep.rank == 3
    assert rep.domain_dim == 4 and rep.codomain_dim == 4
    assert set(rep.kernel_witness) == {(1, 1)}, "kernel must be class(x (x) x)"
    assert not rep.kernel_witness[(1, 1)].is_zero()
    report(3, "k[x]/(x^2) over Z_2: rank 3 of 4, kernel = class(x (x) x)")


def test_criterion_4_beta_iterate_laws(corpus):
    strong_checked = weak_checked = 0
    for entry in corpus:
        if entry.expect_strong:
            A = entry.algebra
            for n in (1, 2, 3):
                bmap = beta_n(A, n)
                expected = A.dim * A.group.order ** n
                assert bmap.domain_dim == expected, (entry.name, n)
                assert bmap.codomain_dim == expected, (entry.name, n)
                assert bmap.is_bijective(), (entry.name, n)
            strong_checked += 1
        else:
            assert not beta_n(entry.algebra, 1).is_bijective(), entry.name
            weak_checked += 1
    report(4, f"iterates n=1..3 bijective with dimension dim*|G|^n on "
              f"{strong_checked} strongly graded algebras; n=1 non-bijective "
              f"on {weak_checked} others")


def test_criterion_5_pauli_exclusion():
    cases = 0
    for torsion, sigma, omega, q in [
        ((2,), [[1]], [[0]], Scalar.one()),
        ((4, 4), [[1, 0], [0, 1]], [[0, 1], [-1, 0]], root_of_unity(4)),
        ((2, 2), [[1, 1], [1, 0]], [[0, 0], [0, 0]], Scalar.from_rational(3)),
        ((2, 2, 2), [[1, 0, 0], [0, 3, 0], [0, 0, 2]],
         [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], root_of_unity(2)),
    ]:
        N = len(torsion)
        b = standard_factor(GradingGroup(0, torsion), sigma, omega, q)
        for max_degree in (1, 2, 3):
            A = build_b_symmetric_truncation(b, max_degree)
            for i in range(N):
                if b.generator_value(i, i) == -1:
                    x = {1 + i: Scalar.one()}
                    assert A.grade(1 + i) == A.group.generators()[i]
                    assert A.multiply(x, x) == {}, (N, i, max_degree)
                    cases += 1
    assert cases > 0
    report(5, f"odd self-statistics forces x^2 = 0 exactly ({cases} checks)")


def test_criterion_6_descent_parity():
    # (sigma, omega, q) gives a factor on Z_n^2 iff the factor builds there
    sigma = [[0, 1], [1, 0]]  # odd entry
    omega = [[0, 1], [-1, 0]]
    for n in range(2, 13):
        Q = GradingGroup(0, (n, n))
        if n % 2 == 0:
            assert standard_factor(Q, sigma, omega, root_of_unity(n)).group == Q
        else:
            with pytest.raises(ValueError, match=rf"b\(gen 0, gen 1\)\^{n} != 1"):
                standard_factor(Q, sigma, omega, root_of_unity(n))
    report(6, "with q a primitive n-th root and an odd sigma entry, "
              "reduction to Z_n^N succeeds exactly for even n (n <= 12)")


def test_criterion_7_coinvariants_equal_identity_component(corpus):
    for entry in corpus:
        A = entry.algebra
        component = A.component(A.group.identity())
        vectors = coinvariants(A)
        assert len(vectors) == len(component), entry.name
        span = Echelon()
        for i in component:
            span.add({i: Scalar.one()})
        for v in vectors:
            assert span.contains(v), entry.name
        back = Echelon()
        for v in vectors:
            back.add(dict(v))
        for i in component:
            assert back.contains({i: Scalar.one()}), entry.name
    report(7, f"coinvariants == identity-grade component (dimension and "
              f"span) on all {len(corpus)} corpus algebras")


def test_criterion_8_quantum_commutativity(corpus):
    twisted = [e for e in corpus if e.name.startswith(("twisted-",
                                                       "group-algebra-"))]
    assert twisted
    for entry in twisted:
        rep = check_quantum_commutativity(entry.algebra, entry.factor)
        assert rep.quantum_commutative, (entry.name, rep.witness_pair)

    # negative fixture: an ordinary commutative truncation against a
    # genuinely q-deformed factor must fail on the generator pair
    G = GradingGroup(0, (3, 3))
    A = build_b_symmetric_truncation(trivial_factor(G), 2)
    q_factor = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                               root_of_unity(3))
    rep = check_quantum_commutativity(A, q_factor)
    assert not rep.quantum_commutative
    assert rep.witness_pair == ("x", "y")
    g, h = rep.witness_grades
    assert (g.coords, h.coords) == ((1, 0), (0, 1))
    report(8, f"{len(twisted)} twisted group algebras quantum commutative "
              f"against their factors; commutative fixture fails at (x, y)")


def test_criterion_9_hopf_axioms_up_to_order_64():
    groups = [GradingGroup(0, t) for t in
              ((2,), (3,), (4,), (2, 2), (8,), (2, 4), (3, 3), (4, 4),
               (2, 2, 2, 2), (8, 8), (2,) * 6)]
    for G in groups:
        assert G.order <= 64
        rep = check_hopf_axioms(G)
        assert rep.passed, (str(G), rep.failures())
    report(9, f"Hopf laws of kG exact on all group-likes for "
              f"{len(groups)} groups up to order 64")
