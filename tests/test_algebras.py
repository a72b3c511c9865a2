import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qgraded.algebras import (GradedAlgebra, _grade_pair_spans,
                              build_b_symmetric_truncation,
                              b_symmetric_dim, build_group_algebra,
                              build_truncated_poly,
                              build_twisted_group_algebra,
                              check_quantum_commutativity,
                              check_strong_grading, coaction, coinvariants,
                              word_closure)
from qgraded.commutation import standard_factor, trivial_factor
from qgraded.descriptors import Descriptor, dump_descriptor
from qgraded.groups import GradingGroup
from qgraded.linalg import Echelon, vec_add_scaled
from qgraded.reports import combination_text
from qgraded.scalars import Scalar, root_of_unity


def z2_fermionic_twisted():
    G = GradingGroup(0, (2,))
    b = standard_factor(G, [[1]], [[0]], Scalar.one())
    return build_twisted_group_algebra(G, b), b


# -- multiplication ---------------------------------------------------------
# algebra elements are coordinate dicts, multiplied by GradedAlgebra.multiply

def basis(i):
    return {i: Scalar.one()}


def plus(*terms):
    """The coordinate vector sum of c*v over the (c, v) terms."""
    out = {}
    for c, v in terms:
        vec_add_scaled(out, v, Scalar.from_rational(c) if isinstance(c, int) else c)
    return out


def test_unit_law():
    A, _ = z2_fermionic_twisted()
    x = plus((3, basis(1)), (1, A.unit))
    assert A.multiply(A.unit, x) == x
    assert A.multiply(x, A.unit) == x


def test_truncated_square_is_zero():
    P = build_truncated_poly(2)
    assert P.multiply(basis(1), basis(1)) == {}


def test_twisted_z2_square_is_one():
    A, _ = z2_fermionic_twisted()
    assert A.multiply(basis(1), basis(1)) == A.unit


def test_scalar_multiples_and_differences():
    # the scalar 2 of the algebra is 2*1, and multiplying by it scales
    A, _ = z2_fermionic_twisted()
    x = plus((1, A.unit), (3, basis(1)))
    two = plus((2, A.unit))
    assert A.multiply(two, x) == A.multiply(x, two) == plus((2, x)) == plus((1, x), (1, x))
    assert plus((1, x), (-1, x)) == {}
    assert x != {}


@pytest.mark.parametrize("m", range(2, 7))
def test_truncated_poly_is_the_truncated_one_boson_algebra(m):
    G = GradingGroup(0, (m,))
    built = build_truncated_poly(m)
    # oracle: the explicit table x^i * x^j = x^(i+j) below x^m
    labels = ["1", "x"] + [f"x^{i}" for i in range(2, m)]
    table = GradedAlgebra(G, [(labels[i], G.element((i,))) for i in range(m)],
                          {(i, j): {i + j: Scalar.one()}
                           for i in range(m) for j in range(m) if i + j < m},
                          {0: Scalar.one()}, name=f"k[x]/(x^{m})")
    truncation = build_b_symmetric_truncation(trivial_factor(G), m - 1)
    truncation.name = built.name
    text = dump_descriptor(Descriptor(G, None, built))
    for other in (table, truncation):
        assert dump_descriptor(Descriptor(G, None, other)) == text
    assert list(built.products) == list(table.products)


def test_element_text():
    # the text `check` gives a coordinate vector, as in the strong-grading witness
    P = build_truncated_poly(3)
    v = plus((1, P.unit), (2, basis(1)))
    assert combination_text((v[i], P.label(i)) for i in sorted(v)) == "1*1 + 2*x"
    assert combination_text([]) == "0"


# -- coaction ---------------------------------------------------------------

def test_coaction_on_homogeneous_vector():
    A, _ = z2_fermionic_twisted()
    g = A.grade(1)
    assert coaction(A, basis(1)) == {(1, g): Scalar.one()}


def test_coaction_of_unit():
    A, _ = z2_fermionic_twisted()
    e = A.group.identity()
    assert coaction(A, A.unit) == {(0, e): Scalar.one()}


def test_coaction_is_linear_over_grades():
    P = build_truncated_poly(3)
    t = coaction(P, plus((1, P.unit), (2, basis(1))))
    assert t == {(0, P.grade(0)): Scalar.one(),
                 (1, P.grade(1)): Scalar.from_rational(2)}


def test_coaction_is_counital_and_coassociative():
    # contracting the group leg recovers the element; duplicating it
    # (group-like coproduct) agrees with regrading, i.e. (id (x) delta)
    # and (coaction (x) id) produce the same 3-tensor
    P = build_truncated_poly(4)
    v = plus((1, P.unit), (5, basis(2)), (-1, basis(3)))
    t = coaction(P, v)
    recovered = {}
    for (i, _g), c in t.items():
        recovered[i] = recovered.get(i, Scalar.zero()) + c
    assert recovered == v
    lhs = {(i, g, g): c for (i, g), c in t.items()}
    rhs = {}
    for (i, g), c in t.items():
        rhs[(i, P.grade(i), g)] = c
    assert lhs == rhs


# -- coinvariants -----------------------------------------------------------

def test_coinvariants_of_twisted_z2_is_the_unit_line():
    A, _ = z2_fermionic_twisted()
    assert coinvariants(A) == [{0: Scalar.one()}]


def test_coinvariants_equal_identity_component(corpus):
    for entry in corpus:
        A = entry.algebra
        e = A.group.identity()
        component = A.component(e)
        vectors = coinvariants(A)
        assert len(vectors) == len(component)
        span = Echelon()
        for i in component:
            span.add({i: Scalar.one()})
        for v in vectors:
            assert span.contains(v)


def test_coinvariants_of_trivially_graded_algebra_is_everything():
    group = GradingGroup(0, ())
    e = group.identity()
    basis = [("a", e), ("b", e)]
    products = {(0, 0): {0: Scalar.one()}, (0, 1): {1: Scalar.one()},
                (1, 0): {1: Scalar.one()}}
    A = GradedAlgebra(group, basis, products, {0: Scalar.one()})
    assert len(coinvariants(A)) == A.dim


# -- quantum commutativity ---------------------------------------------------

def test_twisted_z22_quantum_commutative_by_construction():
    G = GradingGroup(0, (2, 2))
    b = standard_factor(G, [[0, 1], [1, 0]], [[0, 0], [0, 0]], Scalar.one())
    A = build_twisted_group_algebra(G, b)
    assert check_quantum_commutativity(A, b).quantum_commutative


def test_quantum_plane_truncation_is_quantum_commutative():
    G = GradingGroup(0, (3, 3))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                        root_of_unity(3))
    A = build_b_symmetric_truncation(b, 2)
    assert check_quantum_commutativity(A, b).quantum_commutative
    assert A.multiply(basis(1), basis(2)) == plus(
        (b.evaluate(A.grade(1), A.grade(2)), A.multiply(basis(2), basis(1))))


def test_plain_commutative_truncation_fails_against_q_factor():
    G = GradingGroup(0, (3, 3))
    commuting = trivial_factor(G)
    A = build_b_symmetric_truncation(commuting, 2)
    q_factor = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                               root_of_unity(3))
    report = check_quantum_commutativity(A, q_factor)
    assert not report.quantum_commutative
    assert report.witness_pair == ("x", "y")
    g, h = report.witness_grades
    assert g.coords == (1, 0) and h.coords == (0, 1)


def test_fermionic_twisted_algebra_cannot_be_quantum_commutative():
    # u^2 = 1 but b(g, g) = -1 would force u^2 = -u^2; the failure is
    # structural, which is why corpus factors keep an even sigma diagonal
    A, b = z2_fermionic_twisted()
    report = check_quantum_commutativity(A, b)
    assert not report.quantum_commutative
    assert report.witness_pair == ("u(1)", "u(1)")


# -- strong grading ----------------------------------------------------------

@pytest.mark.parametrize("n,N", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_twisted_group_algebras_are_strongly_graded(n, N):
    G = GradingGroup(0, (n,) * N)
    omega = [[0] * N for _ in range(N)]
    if N == 2:
        omega = [[0, 1], [-1, 0]]
    b = standard_factor(G, [[0] * N for _ in range(N)], omega,
                        root_of_unity(n))
    A = build_twisted_group_algebra(G, b)
    assert check_strong_grading(A).strong


def test_truncated_poly_not_strong_with_witness():
    report = check_strong_grading(build_truncated_poly(2))
    assert not report.strong
    g, h = report.witness_pair
    assert (g.coords, h.coords) == ((1,), (1,))
    assert report.missing is not None

    report3 = check_strong_grading(build_truncated_poly(3))
    assert not report3.strong
    g, h = report3.witness_pair
    assert (g.coords, h.coords) == ((1,), (2,))


def test_group_algebra_over_itself_is_strong():
    assert check_strong_grading(build_group_algebra(GradingGroup(0, (2,)))).strong


def test_strong_grading_adds_each_product_until_its_span_is_full(corpus, monkeypatch):
    # the span of A_g * A_h stops growing once it fills A_{g+h}, which
    # fixes the number of rows added over the corpus
    calls = []
    add = Echelon.add

    def counting(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting)
    for entry in corpus:
        check_strong_grading(entry.algebra)
    assert len(calls) == 1379


def test_grade_pair_spans_decide_the_strong_verdict_on_the_corpus(corpus):
    # every grade pair is spanned exactly on the strong algebras, and the
    # first pair that is not is the reported one
    for entry in corpus:
        A = entry.algebra
        short = [(g, h, target, span) for g, h, target, span in _grade_pair_spans(A)
                 if span.rank < len(target)]
        report = check_strong_grading(A)
        assert report.strong == (not short) == entry.expect_strong, entry.name
        if short:
            g, h, target, span = short[0]
            assert report.witness_pair == (g, h), entry.name
            assert report.missing in target, entry.name
            assert not span.contains({report.missing: Scalar.one()}), entry.name


# -- builders ----------------------------------------------------------------

def test_twisted_builder_with_trivial_factor_is_group_algebra():
    G = GradingGroup(0, (2,))
    A = build_twisted_group_algebra(G, trivial_factor(G))
    assert A.multiply(basis(1), basis(1)) == A.unit


def test_twisted_builder_generator_relations():
    G = GradingGroup(0, (2, 2))
    b = standard_factor(G, [[0, 1], [1, 0]], [[0, 0], [0, 0]], Scalar.one())
    A = build_twisted_group_algebra(G, b)
    g1, g2 = G.generators()
    u1 = basis(A.component(g1)[0])
    u2 = basis(A.component(g2)[0])
    assert A.multiply(u1, u2) == plus((-1, A.multiply(u2, u1)))
    assert A.dim == 4
    assert check_strong_grading(A).strong


def test_twisted_builder_self_statistics_recorded():
    G = GradingGroup(0, (2,))
    b = standard_factor(G, [[1]], [[0]], Scalar.one())
    A = build_twisted_group_algebra(G, b)
    assert A.multiply(basis(1), basis(1)) == A.unit
    assert b.generator_value(0, 0) == -1  # fermionic


def test_twisted_builder_adds_no_group_elements_itself(monkeypatch):
    # u_g * u_h is placed at GradingGroup.index of the coordinate sum: every
    # addition left is the homogeneity check of the validation it runs
    from qgraded.groups import GroupElement
    G = GradingGroup(0, (4, 4))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], root_of_unity(4))
    adds = []
    add = GroupElement.__add__

    def counting(self, other):
        adds.append(other)
        return add(self, other)

    monkeypatch.setattr(GroupElement, "__add__", counting)
    A = build_twisted_group_algebra(G, b)
    built = len(adds)
    adds.clear()
    assert A.validation_report().passed
    assert built == len(adds) == 16 * 16


def test_torsion_generator_power_is_unit():
    G = GradingGroup(0, (4,))
    b = standard_factor(G, [[0]], [[0]], root_of_unity(4))
    A = build_twisted_group_algebra(G, b)
    u = basis(1)
    assert A.multiply(A.multiply(A.multiply(u, u), u), u) == A.unit


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_truncated_poly_structure(m):
    P = build_truncated_poly(m)
    assert P.dim == m
    x = basis(1)
    power = P.unit
    for _ in range(m - 1):
        power = P.multiply(power, x)
    assert power != {}
    assert P.multiply(power, x) == {}
    assert not check_strong_grading(P).strong


def test_pauli_truncation_basis():
    b = standard_factor(GradingGroup(0, (2,)), [[1]], [[0]], Scalar.one())
    A = build_b_symmetric_truncation(b, 3)
    assert [A.label(i) for i in range(A.dim)] == ["1", "x"]
    assert A.multiply(basis(1), basis(1)) == {}


def test_quantum_plane_basis_up_to_degree_two():
    b = standard_factor(GradingGroup(0, (3, 3)), [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                        root_of_unity(3))
    A = build_b_symmetric_truncation(b, 2)
    assert [A.label(i) for i in range(A.dim)] == ["1", "x", "y", "x^2", "x*y", "y^2"]
    assert A.multiply(basis(1), basis(2)) == plus(
        (root_of_unity(3), A.multiply(basis(2), basis(1))))


def test_trivial_factor_truncation_is_commutative():
    A = build_b_symmetric_truncation(trivial_factor(GradingGroup(0, (4, 4))), 3)
    for i in range(A.dim):
        for j in range(A.dim):
            assert A.multiply(basis(i), basis(j)) == A.multiply(basis(j), basis(i))


def test_truncation_cuts_products_above_max_degree():
    A = build_b_symmetric_truncation(trivial_factor(GradingGroup(0, (3,))), 2)
    x2 = A.multiply(basis(1), basis(1))
    assert x2 != {}
    assert A.multiply(x2, basis(1)) == {}


# -- invariants --------------------------------------------------------------

def test_homogeneity_of_all_builders(corpus):
    for entry in corpus:
        A = entry.algebra
        for (i, j), result in A.products.items():
            target = A.grade(i) + A.grade(j)
            for k in result:
                assert A.grade(k) == target, (entry.name, i, j, k)


def test_every_corpus_twisted_algebra_is_quantum_commutative(corpus):
    twisted = [e for e in corpus if e.name.startswith("twisted-")
               or e.name.startswith("group-algebra-")]
    assert twisted
    for entry in twisted:
        report = check_quantum_commutativity(entry.algebra, entry.factor)
        assert report.quantum_commutative, (entry.name, report.witness_pair)


def test_b_symmetric_truncations_are_quantum_commutative(corpus):
    entries = [e for e in corpus if e.name.startswith("b-symmetric-")]
    assert entries
    for entry in entries:
        assert check_quantum_commutativity(
            entry.algebra, entry.factor).quantum_commutative


@settings(max_examples=25, deadline=None)
@given(s00=st.integers(0, 1), s11=st.integers(0, 1), s01=st.integers(0, 1),
       w=st.integers(-2, 2), deg=st.integers(1, 3))
def test_fermionic_generators_square_to_zero(s00, s11, s01, w, deg):
    b = standard_factor(GradingGroup(0, (4, 4)), [[s00, s01], [s01, s11]],
                        [[0, w], [-w, 0]], root_of_unity(4))
    A = build_b_symmetric_truncation(b, deg)
    # degree-1 monomials sit right after the unit, in generator order
    for i in range(2):
        assert A.grade(1 + i) == A.group.generators()[i]
        if b.generator_value(i, i) == -1:
            assert A.multiply(basis(1 + i), basis(1 + i)) == {}


def test_cocycle_associativity_up_to_order_81():
    # Z_3^4 has order 81; construction itself proves associativity
    # exactly on the 81^2 * 4 triples ending in one of the four generators
    # (the whole cube only on a failure) and raises on any failure
    G = GradingGroup(0, (3, 3, 3, 3))
    omega = [[0, 1, 0, -1], [-1, 0, 2, 0], [0, -2, 0, 1], [1, 0, -1, 0]]
    sigma = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]
    b = standard_factor(G, sigma, omega, root_of_unity(3))
    A = build_twisted_group_algebra(G, b)
    assert A.dim == 81


def test_validation_catches_broken_homogeneity():
    G = GradingGroup(0, (2,))
    basis = [("1", G.element((0,))), ("x", G.element((1,)))]
    products = {(0, 0): {0: Scalar.one()}, (0, 1): {1: Scalar.one()},
                (1, 0): {1: Scalar.one()}, (1, 1): {1: Scalar.one()}}
    with pytest.raises(ValueError, match="homogeneity"):
        GradedAlgebra(G, basis, products, {0: Scalar.one()})


def test_validation_catches_nonassociativity():
    G = GradingGroup(0, ())
    e = G.identity()
    basis = [("1", e), ("a", e), ("b", e)]
    one = Scalar.one()
    products = {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
                (1, 0): {1: one}, (2, 0): {2: one},
                (1, 1): {2: one}, (1, 2): {1: one},
                (2, 1): {0: one}, (2, 2): {2: one}}
    with pytest.raises(ValueError, match="associativity"):
        GradedAlgebra(G, basis, products, {0: one})



@pytest.mark.parametrize("group,basis,products,unit,witnesses", [
    # x*x = x leaves grade 0
    (GradingGroup(0, (2,)), [("1", (0,)), ("x", (1,))],
     {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, [0],
     ["x*x has a component in grade (1), expected (0)", None, None]),
    # 1*x is missing
    (GradingGroup(0, (2,)), [("1", (0,)), ("x", (1,))],
     {(0, 0): 0, (1, 0): 1, (1, 1): 0}, [0],
     [None, "unit fails on x", "(1*x)*x != 1*(x*x)"]),
    # k x k with e2 put in grade 1: e1 + e2 is a two-sided unit with a
    # grade-1 part
    (GradingGroup(0, (2,)), [("e1", (0,)), ("e2", (1,))],
     {(0, 0): 0, (1, 1): 1}, [0, 1],
     ["e2*e2 has a component in grade (1), expected (0)",
      "unit has a component of grade (1)", None]),
    # several triples fail; (a, a, a) comes first
    (GradingGroup(0, ()), [("1", ()), ("a", ()), ("b", ())],
     {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
      (1, 1): 2, (1, 2): 1, (2, 1): 0, (2, 2): 2}, [0],
     [None, None, "(a*a)*a != a*(a*a)"]),
])
def test_validation_report_gives_the_first_witness_of_each_check(
        group, basis, products, unit, witnesses):
    one = Scalar.one()
    algebra = GradedAlgebra(
        group, [(label, group.element(g)) for label, g in basis],
        {ij: {k: one} for ij, k in products.items()},
        {i: one for i in unit}, validate=False)
    report = algebra.validation_report()
    assert [r.check_id for r in report.results] == [
        "algebra.homogeneity", "algebra.unit", "algebra.associativity"]
    assert [r.witness for r in report.results] == witnesses
    assert [r.passed for r in report.results] == [w is None for w in witnesses]


# -- associativity on generator triples ------------------------------------

def _first_nonassociative_triple(A):
    """Full-cube reference: the first basis triple (i, j, k), in that
    order, with (xy)z != x(yz), by a naive loop over `multiply`."""
    e = [{i: Scalar.one()} for i in range(A.dim)]
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        if A.multiply(A.multiply(e[i], e[j]), e[k]) != \
                A.multiply(e[i], A.multiply(e[j], e[k])):
            return (f"({A.label(i)}*{A.label(j)})*{A.label(k)} "
                    f"!= {A.label(i)}*({A.label(j)}*{A.label(k)})")
    return None


def _perturbations(A):
    """Copies of A with one product entry scaled by 2, deleted or bumped by
    1, on a spread of the pairs that leave the unit laws intact."""
    entries = [(ij, k) for ij, v in A.products.items() for k in v
               if not set(ij) & set(A.unit)]
    two, one = Scalar.from_rational(2), Scalar.one()
    for ij, k in entries[::max(1, len(entries) // 5)]:
        for change in (lambda c: c * two, lambda c: Scalar.zero(),
                       lambda c: c + one):
            products = {key: dict(v) for key, v in A.products.items()}
            products[ij][k] = change(products[ij][k])
            yield GradedAlgebra(A.group, A.basis, products, A.unit,
                                validate=False)


def test_generator_triples_agree_with_the_full_cube(corpus):
    algebras = [e.algebra for e in corpus if e.algebra.dim <= 16]
    algebras += [P for A in algebras for P in _perturbations(A)]
    verdicts = []
    for A in algebras:
        report = A.validation_report()
        # the perturbations keep homogeneity and the unit laws
        assert [r.witness for r in report.results[:2]] == [None, None]
        witness = _first_nonassociative_triple(A)
        assert report.result("algebra.associativity").witness == witness
        assert report.passed is (witness is None)
        verdicts.append(witness is None)
    assert len(verdicts) > 500
    assert 0 < verdicts.count(True) < verdicts.count(False)


class _CountingProducts(dict):
    def __init__(self, products):
        super().__init__(products)
        self.gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_validation_looks_up_about_dim_squared_times_generators_products():
    P = build_truncated_poly(64)
    A = GradedAlgebra(P.group, P.basis, P.products, P.unit, validate=False)
    A.products = _CountingProducts(A.products)
    assert A.validation_report().passed
    # the whole cube makes about 2 * 64^3 = 524,288 lookups
    assert A.products.gets <= 6 * 64 ** 2


@pytest.mark.parametrize("make, generators", [
    (lambda: build_truncated_poly(2), [1]),
    (lambda: build_truncated_poly(64), [1]),
    (lambda: build_group_algebra(GradingGroup(0, (3, 3, 3, 3))), [1, 3, 9, 27]),
], ids=["x^2", "x^64", "Z3^4"])
def test_word_closure_picks_few_generators(make, generators):
    A = make()
    picked, words = word_closure(A, range(A.dim))
    assert picked == generators
    assert words.rank == A.dim


@pytest.mark.parametrize("bosons, fermions", [(1, 0), (0, 1), (2, 0), (1, 1),
                                              (0, 2), (2, 1), (1, 2), (0, 3)])
def test_b_symmetric_dim_counts_the_basis(bosons, fermions):
    N = bosons + fermions
    G = GradingGroup(0, (2,) * N)
    sigma = [[int(i == j and i >= bosons) for j in range(N)] for i in range(N)]
    b = standard_factor(G, sigma, [[0] * N for _ in range(N)], Scalar.one())
    for d in range(1, 5):
        assert b_symmetric_dim(b, d) == build_b_symmetric_truncation(b, d).dim
