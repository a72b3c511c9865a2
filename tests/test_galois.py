import copy
import hashlib
import importlib.util
import itertools
import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qgraded.algebras import (GradedAlgebra,
                              build_group_algebra, build_truncated_poly,
                              build_twisted_group_algebra,
                              check_strong_grading)
from qgraded.commutation import standard_factor
from qgraded.cli import main
from qgraded.corpus import (_quotient_graded_group_algebra,
                            deleted_product_fixture)
from qgraded.descriptors import Descriptor, dump_descriptor
from qgraded.errors import CapExceededError, InternalConsistencyError
from qgraded import galois
from qgraded.galois import (GaloisReport, QuotientSpace, RelativeChain,
                            beta_n, canonical_map, check_equivalence_theorem,
                            is_galois)
from qgraded.groups import GradingGroup
from qgraded.linalg import (Echelon, LinearMap, echelon, rref, vec_add_at,
                            vec_add_scaled)
from qgraded.scalars import Scalar, root_of_unity


def twisted_z2():
    G = GradingGroup(0, (2,))
    b = standard_factor(G, [[0]], [[0]], Scalar.one())
    return build_twisted_group_algebra(G, b)


def _twisted_z3x3():
    G = GradingGroup(0, (3, 3))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                        root_of_unity(3))
    return build_twisted_group_algebra(G, b)


def _in_basis(A, new):
    """A on the homogeneous basis new[a], given in A's coordinates."""
    dim, one = A.dim, Scalar.one()
    # rref of [new | identity]: the pivot row of A's basis vector k is
    # k itself, tagged with its coordinates in the new basis
    ech = rref([{**v, dim + a: one} for a, v in enumerate(new)])
    to_new = [{col - dim: c for col, c in ech.pivot_rows[k].items() if col >= dim}
              for k in range(dim)]

    def convert(vec):
        out = {}
        for k, c in vec.items():
            vec_add_scaled(out, to_new[k], c)
        return out

    products = {}
    for a, c in itertools.product(range(dim), repeat=2):
        prod = {}
        for (b, x), (d, y) in itertools.product(new[a].items(), new[c].items()):
            vec_add_scaled(prod, A.product_coords(b, d), x * y)
        products[(a, c)] = convert(prod)
    basis = [(f"b{a}", A.grade(min(v))) for a, v in enumerate(new)]
    return GradedAlgebra(A.group, basis, products, convert(A.unit))


def _quotient_graded_in_a_cyclotomic_basis():
    # kZ_6 over Z_3 on the basis g^i, g^(i+3) + s*g^i (i < 3) with the
    # non-monomial s = 2 + zeta_3 (1 + zeta_3 = -zeta_3^2 is a monomial):
    # products, right actions and beta columns get several entries
    one, s = Scalar.one(), Scalar.cyclotomic(3, [2, 1])
    return _in_basis(_quotient_graded_group_algebra(6, 3),
                     [{a: one} if a < 3 else {a: one, a - 3: s}
                      for a in range(6)])


def _kz6_over_z2_on_a_non_power_basis():
    # kZ_6 over Z_2 with the identity component on the basis
    # (g^2 + g^4, 1, g^2): words in g^2 + g^4 span only {1, g^2 + g^4}, so
    # the greedy choice skips 1 and needs g^2 as a second generator
    one = Scalar.one()
    return _in_basis(_quotient_graded_group_algebra(6, 2),
                     [{2: one, 4: one}, {0: one}, {2: one},
                      {1: one}, {3: one}, {5: one}])


def test_multiply_is_the_bilinear_expansion_of_basis_products():
    A = _kz6_over_z2_on_a_non_power_basis()
    assert any(len(v) > 1 for v in A.products.values())
    u = {0: Scalar.from_rational(2), 1: Scalar.one(), 3: Scalar.cyclotomic(3, [2, 1])}
    v = {0: Scalar.one(), 2: Scalar.from_rational(-3), 4: Scalar.one()}
    expected = {}
    for i, a in u.items():
        for j, b in v.items():
            vec_add_scaled(expected, A.product_coords(i, j), a * b)
    assert expected != {}
    assert A.multiply(u, v) == expected


def _truncated_poly_over_z2(m=4):
    # k[x]/(x^m) graded by Z_2 with deg x = 1: two m/2-dim components
    P = build_truncated_poly(m)
    G = GradingGroup(0, (2,))
    basis = [(label, G.element((i % 2,))) for i, (label, _) in enumerate(P.basis)]
    return GradedAlgebra(G, basis, P.products, P.unit)


# -- relative tensor square --------------------------------------------------

def test_relative_tensor_dimension_twisted_z2():
    space = RelativeChain(twisted_z2()).space(1)
    assert space.ambient_dim == 4
    assert space.dim == 4
    assert space.relation_rank == 0


def test_relative_tensor_dimension_truncated_poly():
    assert RelativeChain(build_truncated_poly(2)).space(1).dim == 4


def test_relative_tensor_trivial_extension_collapses_to_the_algebra():
    # everything in the identity grade: a (x) b ~ ab (x) 1
    group = GradingGroup(0, ())
    e = group.identity()
    basis = [("g^0", e), ("g^1", e)]
    products = {(i, j): {(i + j) % 2: Scalar.one()}
                for i in range(2) for j in range(2)}
    from qgraded.algebras import GradedAlgebra
    A = GradedAlgebra(group, basis, products, {0: Scalar.one()})
    space = RelativeChain(A).space(1)
    assert space.dim == A.dim
    assert space.ambient_dim - space.relation_rank == space.dim


def test_balanced_law_holds_in_the_quotient():
    G = GradingGroup(0, (2,))
    basis = [(f"g^{i}", G.element((i % 2,))) for i in range(4)]
    products = {(i, j): {(i + j) % 4: Scalar.one()}
                for i in range(4) for j in range(4)}
    from qgraded.algebras import GradedAlgebra
    A = GradedAlgebra(G, basis, products, {0: Scalar.one()})
    space = RelativeChain(A).space(1)
    sub = A.component(G.identity())
    for a in range(A.dim):
        for x in sub:
            for y in range(A.dim):
                left = {}
                for t, c in A.product_coords(a, x).items():
                    left[t * A.dim + y] = c
                right = {}
                for m, c in A.product_coords(x, y).items():
                    right[a * A.dim + m] = c
                assert space.project(left) == space.project(right)


def test_rank_identity(corpus):
    for entry in corpus:
        space = RelativeChain(entry.algebra).space(1)
        assert space.ambient_dim == space.dim + space.relation_rank, entry.name


def test_projection_kills_exactly_the_relations(corpus):
    for entry in corpus:
        if entry.algebra.dim > 6:
            continue
        space = RelativeChain(entry.algebra).space(1)
        for row in space.relations:
            assert space.project(row) == {}, entry.name
        # representatives project to distinct unit vectors
        for q, amb in enumerate(space.basis_ambient):
            assert space.project({amb: Scalar.one()}) == {q: Scalar.one()}


def test_a_quotient_keeps_its_relation_rows_unchanged_and_unshared():
    one, two = Scalar.one(), Scalar.from_rational(2)
    rows = [{2: one}, {}, {0: one, 2: two}, {2: two}, {1: root_of_unity(3)}]
    before = copy.deepcopy(rows)
    space = QuotientSpace(4, rows)
    assert rows == before
    assert space.relations == [r for r in before if r]
    assert not {id(r) for r in rows} & {id(p) for p in space._pivot_rows.values()}
    assert space.basis_ambient == [3]


@pytest.mark.parametrize("make", [_quotient_graded_in_a_cyclotomic_basis,
                                  _kz6_over_z2_on_a_non_power_basis,
                                  _truncated_poly_over_z2])
def test_relation_rows_survive_elimination_and_the_step_check(make, monkeypatch):
    # a summand's rows are eliminated once, its echelon rows stay in the
    # chain and are placed, reduced by the first projection and read by the
    # step check and beta^n: no step may write into the rows, the kept
    # echelon rows or `relations`, nor store one of them as a pivot row
    calls = []
    forward = galois._forward_rows

    def recording(rows):
        entry = forward(rows)
        calls.append((rows, copy.deepcopy(rows), entry, copy.deepcopy(entry)))
        return entry

    monkeypatch.setattr(galois, "_forward_rows", recording)
    A = make()
    chain = RelativeChain(A)
    is_galois(A, chain)
    relations = chain.space(1).relations
    read = copy.deepcopy(relations)
    beta_n(A, 2, chain=chain)
    assert calls and all(chain.space(k).relations for k in (1, 2))
    assert relations == read
    shared = {id(r) for rows, _, entry, _ in calls
              for r in [*rows, *(row for _, _, row in entry)]}
    for k in (1, 2):
        space = chain.space(k)
        assert not shared & {id(p) for p in space._pivot_rows.values()}
        assert not shared & {id(r) for r in space.relations}
    for rows, rows_before, entry, entry_before in calls:
        assert rows == rows_before and entry == entry_before


def _balanced_pairs(chain, k):
    """(t*x (x) y, t (x) x*y) in the ambient space of T_k for every class t
    of T_(k-1), every basis vector x of the subalgebra and every y."""
    A = chain.algebra
    prev = A.dim if k == 1 else chain.space(k - 1).dim
    for c in range(prev):
        for x in chain.sub:
            cx = chain.right_action(k - 1, c, x)
            for y in range(A.dim):
                yield ({t * A.dim + y: coeff for t, coeff in cx.items()},
                       {c * A.dim + m: coeff
                        for m, coeff in A.product_coords(x, y).items()})


def test_balanced_law_across_small_corpus_entries(corpus):
    # rows are stored for the generators only; the law must hold for every
    # basis vector of the subalgebra, at k = 2 through the right action on T_1
    small = [e.algebra for e in corpus if e.algebra.dim <= 6]
    for A in small + [_kz6_over_z2_on_a_non_power_basis()]:
        chain = RelativeChain(A)
        for k in (1, 2):
            space = chain.space(k)
            for left, right in _balanced_pairs(chain, k):
                assert space.project(left) == space.project(right), (A.name, k)


def _assert_generator_rows_match_basis_rows(A, kmax):
    # oracle: one row per basis vector of the subalgebra; the rows span the
    # same space, so the fully reduced echelon must be the same.  A space
    # holds its reduced rows from its first projection on, so both sides
    # project every ambient unit vector first
    chain = RelativeChain(A)
    minus_one = Scalar.from_rational(-1)
    for k in range(1, kmax + 1):
        space = chain.space(k)
        oracle = QuotientSpace(space.ambient_dim, [
            vec_add_scaled(dict(left), right, minus_one)
            for left, right in _balanced_pairs(chain, k)])
        assert space.relation_rank == oracle.relation_rank, (A.name, k)
        assert space.basis_ambient == oracle.basis_ambient, (A.name, k)
        units = [{a: Scalar.one()} for a in range(space.ambient_dim)]
        assert [space.project(u) for u in units] == \
            [oracle.project(u) for u in units], (A.name, k)
        assert space._pivot_rows == oracle._pivot_rows, (A.name, k)
        assert space._pivot_rows == rref(oracle.relations).pivot_rows
    return chain


def test_generator_rows_give_the_basis_rows_quotient(corpus):
    for entry in corpus:
        _assert_generator_rows_match_basis_rows(
            entry.algebra, 2 if entry.algebra.dim <= 6 else 1)
    _assert_generator_rows_match_basis_rows(
        _quotient_graded_in_a_cyclotomic_basis(), 2)
    chain = _assert_generator_rows_match_basis_rows(
        _kz6_over_z2_on_a_non_power_basis(), 2)
    assert chain.sub == [0, 1, 2]
    assert chain.generators == [0, 2]


def _load_perfbench_inputs(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is created
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_generators_of_the_identity_component_are_unchanged(corpus, monkeypatch):
    # recorded before the generator choice moved onto `word_closure`
    assert {e.name: RelativeChain(e.algebra).generators for e in corpus
            if RelativeChain(e.algebra).generators} == {
        "trivially-graded-kZ2": [1], "quotient-graded-kZ4-over-Z2": [2],
        "quotient-graded-kZ6-over-Z3": [3], "deleted-product-fixture": [0]}
    # every beta-dense input (seed 1000) picks the basis vector g^d or x^d
    # right after the unit in its identity component
    recorded = {"kZ6-over-Z2": [2], "kZ8-over-Z2": [2], "kZ9-over-Z3": [3],
                "kZ12-over-Z4": [4], "x^6-over-Z2": [2], "x^8-over-Z2": [2],
                "x^9-over-Z3": [3], "x^12-over-Z3": [3]}
    dense = _load_perfbench_inputs(monkeypatch).dense_inputs(1000)
    assert len(dense) == 40
    for entry in dense:
        family = entry.name.split("/")[0]
        assert RelativeChain(entry.algebra).generators == recorded[family]


def _sign(p):
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2)) % 2


def _compose(s, t):
    return tuple(s[i] for i in t)


def _group_algebra_of(elements, mul, G, grade):
    """k[H] for a finite group H listed identity first, graded over the
    abelian G through the homomorphism `grade`: u_x * u_y = u_{mul(x, y)}."""
    position = {x: i for i, x in enumerate(elements)}
    one = Scalar.one()
    products = {(i, j): {position[mul(x, y)]: one}
                for i, x in enumerate(elements) for j, y in enumerate(elements)}
    basis = [(f"u{x}", G.element(grade(x))) for x in elements]
    return GradedAlgebra(G, basis, products, {0: one})


_S3 = list(itertools.permutations(range(3)))
_S4 = list(itertools.permutations(range(4)))
_Z2 = GradingGroup(0, (2,))

# name -> (builder, the generators RelativeChain picked before grades were
# numbered by GradingGroup.index)
_NONCOMMUTATIVE_IDENTITY = {
    "kS3 over the trivial group": (lambda: _group_algebra_of(
        _S3, _compose, GradingGroup(0), lambda p: ()), [1, 2]),
    "kS3 over the sign": (lambda: _group_algebra_of(
        _S3, _compose, _Z2, lambda p: (_sign(p),)), [3]),
    "kS4 over the sign": (lambda: _group_algebra_of(
        _S4, _compose, _Z2, lambda p: (_sign(p),)), [3, 7]),
    "k[S3 x Z2] over Z2": (lambda: _group_algebra_of(
        [(p, z) for p in _S3 for z in range(2)],
        lambda x, y: (_compose(x[0], y[0]), (x[1] + y[1]) % 2),
        _Z2, lambda x: (x[1],)), [2, 4]),
}


@pytest.mark.parametrize("name", sorted(_NONCOMMUTATIVE_IDENTITY))
def test_identity_components_that_do_not_commute(name):
    # A_e is kS3, kA3, kA4 or kS3: every input but kA3 reaches the
    # balanced law with two generators x1, x2 where x1*x2 != x2*x1
    make, generators = _NONCOMMUTATIVE_IDENTITY[name]
    A = make()
    eq = check_equivalence_theorem(A)
    assert eq.strong.strong and eq.galois.galois and eq.agree
    chain = RelativeChain(A)
    assert chain.generators == generators
    if len(generators) == 2:
        x1, x2 = ({x: Scalar.one()} for x in generators)
        assert A.multiply(x1, x2) != A.multiply(x2, x1)
    for n in (1, 2):
        bmap = beta_n(A, n, chain=chain)
        assert bmap.domain_dim == bmap.codomain_dim == A.dim * A.group.order ** n
        assert bmap.is_bijective()


def test_twisted_group_algebras_build_no_relation_rows(monkeypatch):
    # the identity component is k*1, which needs no generator: T_k is the
    # plain tensor power and no right action runs while building it
    calls = []
    right_action = RelativeChain.right_action

    def counting(self, k, class_idx, j):
        calls.append((k, class_idx, j))
        return right_action(self, k, class_idx, j)

    monkeypatch.setattr(RelativeChain, "right_action", counting)
    G = GradingGroup(0, (2, 2))
    z2x2 = build_twisted_group_algebra(
        G, standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                           root_of_unity(2)))
    for A in (z2x2, _twisted_z3x3()):
        chain = RelativeChain(A)
        assert chain.generators == []
        for k in (1, 2):
            assert chain.space(k).relations == []
            assert chain.space(k).dim == A.dim ** (k + 1)
    assert calls == []


def test_relative_chain_rechecks_coinvariants_through_the_coaction(monkeypatch):
    # a coaction that sends every basis vector x to x (x) e makes the whole
    # algebra coinvariant, which the re-check must refuse
    A = build_group_algebra(GradingGroup(0, (2,)))
    e = A.group.identity()
    monkeypatch.setattr("qgraded.algebras.coaction", lambda algebra, vec: {
        (i, e): c for i, c in vec.items()})
    with pytest.raises(InternalConsistencyError, match="coinvariants disagree"):
        RelativeChain(A)


_CHANGE_OF_BASIS = {
    "kZ4/Z2": lambda: _quotient_graded_group_algebra(4, 2),
    "kZ6/Z2": lambda: _quotient_graded_group_algebra(6, 2),
    "x^4/Z2": _truncated_poly_over_z2,
}


def _basis_invariants(A):
    chain = RelativeChain(A)
    report = is_galois(A, chain=chain)
    return ([(chain.space(k).dim, chain.space(k).relation_rank) for k in (1, 2)],
            report.rank, check_strong_grading(A).strong, report.galois)


@pytest.mark.parametrize("name", sorted(_CHANGE_OF_BASIS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_invariants_survive_a_change_of_basis_in_each_component(name, data):
    # a unitriangular change of basis (diagonal +-1) inside each component
    # also moves the unit and the generator choice off the old basis
    A = _CHANGE_OF_BASIS[name]()
    entry = st.sampled_from([-2, -1, 1, 2]).map(Scalar.from_rational)
    sign = st.sampled_from([-1, 1]).map(Scalar.from_rational)
    new = [None] * A.dim
    for g in A.group.elements():
        comp = A.component(g)
        for i, a in enumerate(comp):
            new[a] = {a: data.draw(sign)}
            for b in comp[:i]:
                new[a][b] = data.draw(entry)
    assert _basis_invariants(_in_basis(A, new)) == _basis_invariants(A)


# -- the canonical map ---------------------------------------------------------

def _beta_column(A, n, slots):
    """The beta^n column of the class slots[0] (x) ... (x) slots[n], found
    level by level through the ambient position cprev*dim + m of T_k."""
    chain = RelativeChain(A)
    bmap = beta_n(A, n, chain=chain)
    c = slots[0]
    for k, m in enumerate(slots[1:], start=1):
        c = chain.space(k).basis_ambient.index(c * A.dim + m)
    return bmap.columns[c]


def test_canonical_map_on_twisted_z2():
    # class(u (x) u) maps to u^2 (x) g = 1 (x) g, at row 0*|G| + idx(g)
    assert _beta_column(twisted_z2(), 1, (1, 1)) == {1: Scalar.one()}


def test_canonical_map_kills_nilpotent_pair():
    assert _beta_column(build_truncated_poly(2), 1, (1, 1)) == {}


def test_canonical_map_unit_pair():
    # 1 (x) 1 maps to 1 (x) e, at row 0*|G| + idx(e) = 0
    for A in (twisted_z2(), build_truncated_poly(3)):
        assert _beta_column(A, 1, (0, 0)) == {0: Scalar.one()}


def test_beta_two_column_on_twisted_z2():
    # u (x) u (x) u maps to u^3 (x) grade(u^2) (x) grade(u) = u (x) e (x) g,
    # at row i*|G|^2 + idx(g_1)*|G| + idx(g_2) = 1*4 + 0*2 + 1
    assert _beta_column(twisted_z2(), 2, (1, 1, 1)) == {5: Scalar.one()}


def test_an_algebra_graded_by_the_trivial_group_is_strong_and_galois():
    # A^coH = A, so every T_n is A and every beta^n an isomorphism onto A
    group = GradingGroup(0, ())
    e = group.identity()
    A = GradedAlgebra(group, [("1", e), ("x", e), ("x^2", e)],
                      {(i, j): {i + j: Scalar.one()}
                       for i in range(3) for j in range(3) if i + j < 3},
                      {0: Scalar.one()})
    report = check_equivalence_theorem(A)
    assert report.strong.strong and report.galois.galois and report.agree
    assert (report.galois.domain_dim, report.galois.rank) == (3, 3)
    for n in (1, 2, 3):
        beta = beta_n(A, n)
        assert beta.domain_dim == beta.codomain_dim == 3
        assert beta.is_bijective()


def test_beta_n_checks_its_arguments_before_any_work(monkeypatch):
    A = build_truncated_poly(3)

    def fail(algebra):
        raise AssertionError("coinvariants computed before the argument checks")

    monkeypatch.setattr("qgraded.galois.coinvariants", fail)
    with pytest.raises(ValueError, match="n must be >= 1"):
        beta_n(A, 0)
    with pytest.raises(CapExceededError, match="cap 4"):
        beta_n(A, 5)


# -- bijectivity verdicts -----------------------------------------------------

@pytest.mark.parametrize("n,N", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_twisted_algebras_are_galois(n, N):
    G = GradingGroup(0, (n,) * N)
    omega = [[0] * N for _ in range(N)]
    if N == 2:
        omega = [[0, 1], [-1, 0]]
    b = standard_factor(G, [[0] * N for _ in range(N)], omega, root_of_unity(n))
    report = is_galois(build_twisted_group_algebra(G, b))
    assert report.galois
    assert report.rank == report.domain_dim == n ** N * n ** N


def test_truncated_poly_kernel_witness():
    P = build_truncated_poly(2)
    report = is_galois(P)
    assert not report.galois
    assert report.rank == 3
    assert report.domain_dim == report.codomain_dim == 4
    # kernel witness is the class of x (x) x up to a nonzero scalar
    assert set(report.kernel_witness) == {(1, 1)}
    assert not report.kernel_witness[(1, 1)].is_zero()
    assert "x (x) x" in report.describe_kernel(P)


def test_is_galois_eliminates_beta_once(monkeypatch):
    # k[x]/(x^4): beta is 16 x 16 of rank < 16, so one column elimination
    # gives rank and cokernel and one row elimination gives the kernel
    A = build_truncated_poly(4)
    chain = RelativeChain(A)
    chain.space(1)
    adds = []
    add = Echelon.add

    def counting_add(self, row):
        adds.append(row)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting_add)
    report = is_galois(A, chain=chain)
    assert not report.galois and report.domain_dim == 16
    assert len(adds) == 32


def test_is_galois_decides_a_monomial_beta_by_its_rows(monkeypatch):
    # a twisted algebra's beta is monomial and bijective: counting the rows
    # it hits decides it, with no elimination
    chain = RelativeChain(_twisted_z3x3())
    chain.space(1)
    _forbid_echelon_add(monkeypatch)
    assert is_galois(chain.algebra, chain) == GaloisReport(True, 81, 81, 81)
    monkeypatch.undo()
    # a beta with a two-entry column is eliminated once by columns, and
    # once more by rows for a kernel witness
    adds = []
    add = Echelon.add

    def counting_add(self, row):
        adds.append(row)
        return add(self, row)

    for A, galois_, rows in [(_quotient_graded_in_a_cyclotomic_basis(), True, 0),
                             (_triangular(_truncated_poly_over_z2(6),
                                          _RATIONAL_POOL), False, 1)]:
        chain = RelativeChain(A)
        assert not canonical_map(A, chain).is_monomial()
        monkeypatch.setattr(Echelon, "add", counting_add)
        report = is_galois(A, chain=chain)
        monkeypatch.undo()
        assert report.galois == galois_
        assert len(adds) == report.domain_dim + rows * report.codomain_dim
        adds.clear()


def test_group_algebra_over_itself_is_galois():
    for torsion in ((2,), (4,), (2, 2)):
        report = is_galois(build_group_algebra(GradingGroup(0, torsion)))
        assert report.galois


def test_cokernel_witness_of_a_grading_with_an_empty_component(tmp_path):
    # k graded by Z_2 with A_1 = 0: beta is 1 -> 2, injective but not onto
    G = GradingGroup(0, (2,))
    one = Scalar.one()
    A = GradedAlgebra(G, [("1", G.identity())], {(0, 0): {0: one}}, {0: one})
    report = is_galois(A)
    assert (report.galois, report.rank, report.domain_dim,
            report.codomain_dim) == (False, 1, 1, 2)
    assert report.kernel_witness is None
    assert report.cokernel_witness == (0, G.element((1,)))
    path, out = tmp_path / "k.json", tmp_path / "report.json"
    path.write_text(dump_descriptor(Descriptor(G, None, A)), encoding="utf-8")
    assert main(["check", str(path), "--expect", "not-strong",
                 "--report", str(out)]) == 0
    [row] = [r for r in json.loads(out.read_text())["checks"]
             if r["id"] == "galois.bijective"]
    assert row["witness"] == "cokernel at [1 (x) (1)]"


def test_galois_dimension_law(corpus):
    for entry in corpus:
        report = is_galois(entry.algebra)
        if report.galois:
            assert report.domain_dim == \
                entry.algebra.dim * entry.algebra.group.order, entry.name


# -- iterates of the canonical map --------------------------------------------

def test_beta_one_equals_canonical_map():
    for A in (twisted_z2(), build_truncated_poly(3)):
        chain = RelativeChain(A)
        direct = canonical_map(A, chain)
        iterated = beta_n(A, 1, chain=chain)
        assert iterated.columns == direct.columns
        assert iterated.codomain_dim == direct.codomain_dim


def test_beta_two_on_twisted_z2():
    bmap = beta_n(twisted_z2(), 2)
    assert bmap.domain_dim == bmap.codomain_dim == 8
    assert bmap.is_bijective()


def test_beta_two_not_bijective_for_truncated_poly():
    assert not beta_n(build_truncated_poly(2), 2).is_bijective()


def test_beta_cap_is_enforced():
    with pytest.raises(CapExceededError, match="cap 4"):
        beta_n(twisted_z2(), 5)


def _twisted_z2x2():
    G = GradingGroup(0, (2, 2))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], root_of_unity(2))
    return build_twisted_group_algebra(G, b)


def _kz6_over_z2_in_a_dense_basis():
    # every new basis vector has every coordinate of its component, one of
    # them non-monomial, so the relation pivot rows of T_1..T_3 are dense
    one, two, s = Scalar.one(), Scalar.from_rational(2), Scalar.cyclotomic(3, [2, 1])
    return _in_basis(_quotient_graded_group_algebra(6, 2), [
        {0: one, 2: two, 4: one}, {1: one, 3: one, 5: s},
        {0: one, 2: one, 4: two}, {1: two, 3: one, 5: one},
        {0: s, 2: one, 4: one}, {1: one, 3: two, 5: one}])


# name -> (builder, highest n checked)
_SUFFIX_GRADE_CASES = {
    "twisted-Z2xZ2": (_twisted_z2x2, 4),
    "kZ6/Z3": (lambda: _quotient_graded_group_algebra(6, 3), 4),
    "kZ6/Z2-dense": (_kz6_over_z2_in_a_dense_basis, 4),
    "x^4/Z2": (_truncated_poly_over_z2, 4),
    "twisted-Z2": (twisted_z2, 3),
    "x^3/Z3": (lambda: build_truncated_poly(3), 3),
    "kZ2xZ2": (lambda: build_group_algebra(GradingGroup(0, (2, 2))), 3),
    "deleted-product": (deleted_product_fixture, 3),
    "twisted-Z3xZ3": (_twisted_z3x3, 3),
    "kZ6/Z3-cyclotomic": (_quotient_graded_in_a_cyclotomic_basis, 3),
}


@pytest.mark.parametrize("n,name", [(n, name) for n in [1, 2, 3, 4]
                                    for name in sorted(_SUFFIX_GRADE_CASES)
                                    if n <= _SUFFIX_GRADE_CASES[name][1]])
def test_beta_n_is_the_product_along_the_tuple_with_suffix_grades(name, n):
    # the class of a_(i_0) (x) ... (x) a_(i_n) maps to the product
    # e_(i_0)...e_(i_n) at i*|G|^n + sum_r idx(g_(i_r) + ... + g_(i_n))*|G|^(n-r)
    A = _SUFFIX_GRADE_CASES[name][0]()
    chain = RelativeChain(A)
    columns = beta_n(A, n, chain=chain).columns
    assert len(columns) == chain.space(n).dim
    if name == "kZ6/Z2-dense":
        assert all(chain.space(k).dim < chain.space(k).ambient_dim
                   for k in range(1, n + 1))
    assert columns == _closed_form_columns(A, n, chain)


def _closed_form_columns(A, n, chain):
    G, nG = A.group, A.group.order
    columns = []
    for q in range(chain.space(n).dim):
        path = [q]
        for k in range(n, 0, -1):  # a class of T_k is (class of T_(k-1), slot k)
            path[:1] = divmod(chain.space(k).basis_ambient[path[0]], A.dim)
        product = {path[0]: Scalar.one()}
        for i in path[1:]:
            product = A.multiply(product, {i: Scalar.one()})
        offset, suffix = 0, G.identity()
        for r in range(n, 0, -1):
            suffix = A.grade(path[r]) + suffix
            offset += G.index(suffix.coords) * nG ** (n - r)
        columns.append({i * nG ** n + offset: c for i, c in product.items()})
    return columns


@pytest.mark.parametrize("make", [
    lambda: build_group_algebra(GradingGroup(0, (2, 2))),
    lambda: _quotient_graded_group_algebra(6, 3)])
def test_beta_n_assembles_without_right_action_or_projection(make, monkeypatch):
    # a first call builds T_1..T_3 and verifies every step (through the
    # right action); the second only assembles, from ambient images
    A = make()
    chain = RelativeChain(A)
    expected = beta_n(A, 3, chain=chain).columns

    def forbidden(*args):
        raise AssertionError("beta_n called right_action or project")

    monkeypatch.setattr(RelativeChain, "right_action", forbidden)
    monkeypatch.setattr(QuotientSpace, "project", forbidden)
    assert beta_n(A, 3, chain=chain).columns == expected


def test_each_step_is_verified_once_per_chain(monkeypatch):
    A = _quotient_graded_group_algebra(6, 3)
    chain = RelativeChain(A)
    steps = []
    verify = RelativeChain._verify_step

    def counting(self, k, space):
        steps.append(k)
        return verify(self, k, space)

    monkeypatch.setattr(RelativeChain, "_verify_step", counting)
    canonical_map(A, chain)
    beta_n(A, 2, chain=chain)
    beta_n(A, 2, chain=chain)
    assert steps == [1, 2]


def _stored(vec):
    return {k: (x.order, x.nums, x.den) for k, x in vec.items()}


@pytest.mark.parametrize("make", [_quotient_graded_in_a_cyclotomic_basis,
                                  _kz6_over_z2_in_a_dense_basis,
                                  _truncated_poly_over_z2,
                                  lambda: _quotient_graded_group_algebra(6, 3)],
                         ids=["cyclotomic-basis", "kZ6-dense-basis",
                              "truncated-poly", "kZ6-over-Z3"])
def test_a_space_is_reduced_only_when_something_projects_onto_it(
        make, monkeypatch):
    # beta^2 projects onto T_1 to build T_2's relation rows and to check
    # step 2; nothing projects onto T_2, and is_galois onto no space
    A = make()
    calls = []  # the pivot columns of each echelon galois.rref returns
    reduce_rows = galois.rref

    def counting(rows):
        ech = reduce_rows(rows)
        calls.append(sorted(ech.pivot_rows))
        return ech

    monkeypatch.setattr(galois, "rref", counting)
    is_galois(A, RelativeChain(A))
    assert calls == []
    chain = RelativeChain(A)
    beta_n(A, 2, chain=chain)
    t1, t2 = chain.space(1), chain.space(2)
    assert calls == [sorted(set(range(t1.ambient_dim)) - set(t1.basis_ambient))]
    # T_2 holds its forward echelon; a later projection reduces it to the
    # rows, basis and classes of a space reduced from its given rows at once
    eager = QuotientSpace(t2.ambient_dim, t2.relations)
    eager._pivot_rows = rref(eager.relations).pivot_rows
    eager._qindex = {amb: q for q, amb in enumerate(eager.basis_ambient)}
    samples = [{a: Scalar.one()} for a in range(t2.ambient_dim)] + [
        {a: root_of_unity(3), a + 1: Scalar.from_rational(-2), a // 2: root_of_unity(4)}
        for a in range(t2.ambient_dim - 1)]
    assert [_stored(t2.project(v)) for v in samples] == \
        [_stored(eager.project(v)) for v in samples]
    assert len(calls) == 2
    assert t2.basis_ambient == eager.basis_ambient
    assert {p: _stored(r) for p, r in t2._pivot_rows.items()} == \
        {p: _stored(r) for p, r in eager._pivot_rows.items()}
    assert list(t2._pivot_rows) == list(eager._pivot_rows)


@pytest.mark.parametrize("make,filename,relation_rank", [
    (twisted_z2, "twisted-z2-trivial.json", 0),
    (lambda: _quotient_graded_group_algebra(6, 3),
     "quotient-graded-kZ6-over-Z3.json", 18)], ids=["twisted-z2", "kZ6-over-Z3"])
def test_a_step_that_is_not_constant_on_a_relation_is_never_hidden(
        make, filename, relation_rank, monkeypatch):
    # every elimination of T_1, the whole space of a twisted algebra or each
    # summand of kZ6/Z3, lists the row u (x) u at its first local position
    # in place of its last relation, which the step sends to the nonzero
    # u*u (x) |u|: the check raises where T_1 is built, also where the
    # planted row is reduced against balanced relations
    A = make()
    assert RelativeChain(A).space(1).relation_rank == relation_rank
    forward = galois._forward_rows

    def planted(rows):
        return forward([*rows[:-1], {0: Scalar.one()}])

    monkeypatch.setattr(galois, "_forward_rows", planted)
    with pytest.raises(InternalConsistencyError, match="step 1 "):
        is_galois(A)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    with pytest.raises(InternalConsistencyError, match="step 1 "):
        main(["check", str(corpus / filename)])


def test_a_step_is_checked_on_the_rows_of_a_reused_summand():
    # T_2 places echelon rows that T_1's summands left in the chain; a
    # non-relation row planted in them after T_1 is built must still raise
    A = _kz6_over_z2_in_a_dense_basis()
    RelativeChain(A).space(2)  # unplanted, the same chain builds cleanly
    chain = RelativeChain(A)
    chain.space(1)
    for entry in chain._eliminated.values():
        pivots = {p for _, p, _ in entry}
        free = next(a for a in itertools.count() if a not in pivots)
        entry.append((entry[-1][0], free, {free: Scalar.one()}))
    with pytest.raises(InternalConsistencyError, match="step 2 "):
        chain.space(2)


# -- summands of a relative tensor power -------------------------------------

class _WholeSpaceChain(RelativeChain):
    """The reference chain: T_k is one quotient of its whole ambient space
    by the balanced relation rows in whole-space order (class c of
    T_(k-1), then generator x, then y), eliminated at once."""

    def space(self, k):
        if k not in self._spaces:
            space = QuotientSpace(_ambient_dim(self, k), _whole_space_rows(self, k))
            self._verify_step(k, space)
            self._spaces[k] = space
        return self._spaces[k]


def _ambient_dim(chain, k):
    dim = chain.algebra.dim
    return (dim if k == 1 else chain.space(k - 1).dim) * dim


def _whole_space_rows(chain, k):
    A, dim = chain.algebra, chain.algebra.dim
    rows = []
    for c in range(_ambient_dim(chain, k) // dim):
        for x in chain.generators:
            cx = chain.right_action(k - 1, c, x)
            for y in range(dim):
                row = {t * dim + y: -coeff for t, coeff in cx.items()}
                for m, coeff in A.product_coords(x, y).items():
                    vec_add_at(row, c * dim + m, coeff)
                rows.append(row)
    return rows


def _triangular(A, pool):
    """A after the change of basis a -> a + sum of s*b over the later basis
    vectors b of a's component, s drawn from pool in turn."""
    new = []
    for a in range(A.dim):
        later = [b for b in A.component(A.grade(a)) if b > a]
        new.append({a: Scalar.one(), **{b: pool[(a + b) % len(pool)] for b in later}})
    return _in_basis(A, new)


_RATIONAL_POOL = [Scalar.from_rational(2), Scalar.from_rational(-1),
                  Scalar.from_rational(Fraction(1, 3))]
_ZETA4_POOL = [root_of_unity(4), Scalar.cyclotomic(4, [1, 2]), Scalar.from_rational(-3)]


def _triangular_inputs():
    return [_triangular(_quotient_graded_group_algebra(6, 2), _RATIONAL_POOL),
            _triangular(_quotient_graded_group_algebra(6, 2), _ZETA4_POOL),
            _triangular(_truncated_poly_over_z2(6), _RATIONAL_POOL)]


def _stored_rows(rows):
    return [(p, _stored(r)) for p, r in rows.items()]


def _assert_summands_match_the_whole_space(A, max_ambient=1500):
    block, whole = RelativeChain(A), _WholeSpaceChain(A)
    kmax = 0
    while kmax < 3 and _ambient_dim(whole, kmax + 1) <= max_ambient:
        kmax += 1
        # nothing has projected onto T_kmax yet on either side
        space, reference = block.space(kmax), whole.space(kmax)
        forward = echelon(reference.relations).pivot_rows
        assert _stored_rows(space._pivot_rows) == _stored_rows(forward), (A.name, kmax)
        assert _stored_rows(reference._pivot_rows) == _stored_rows(forward)
        assert space.relation_rank == reference.relation_rank == len(forward)
        assert space.basis_ambient == reference.basis_ambient
        assert [_stored(r) for r in space.relations] == \
            [_stored(r) for r in reference.relations]
    for k in range(1, kmax + 1):
        units = [{a: Scalar.one()} for a in range(block.space(k).ambient_dim)]
        assert [_stored(block.space(k).project(u)) for u in units] == \
            [_stored(whole.space(k).project(u)) for u in units], (A.name, k)
    for n in range(1, kmax + 1):
        assert [_stored(c) for c in beta_n(A, n, chain=block).columns] == \
            [_stored(c) for c in beta_n(A, n, chain=whole).columns], (A.name, n)
    return kmax


def test_a_space_built_by_summands_equals_the_whole_space_echelon(corpus):
    # forward rows in stored form and insertion order, basis, rank and
    # relations before any projection; then every unit vector's class and
    # beta^1..beta^3 columns in stored form
    depths = [_assert_summands_match_the_whole_space(e.algebra) for e in corpus]
    assert max(depths) == 3 and min(depths) >= 1
    for A in _triangular_inputs():
        assert _assert_summands_match_the_whole_space(A) == 3


def _counting_eliminations(monkeypatch):
    calls = []
    forward = galois._forward_rows

    def counting(rows):
        calls.append(len(rows))
        return forward(rows)

    monkeypatch.setattr(galois, "_forward_rows", counting)
    return calls


def test_a_repeated_summand_is_eliminated_once_per_chain(monkeypatch):
    A = _kz6_over_z2_in_a_dense_basis()
    chain = RelativeChain(A)
    chain.space(1)
    calls = _counting_eliminations(monkeypatch)
    chain.space(2)
    # T_2's summands: one per slot-grade pair (g, h) of T_1's classes and
    # per grade of the last slot
    slots = {(chain.grade_pos[a // A.dim], chain.grade_pos[a % A.dim])
             for a in chain.space(1).basis_ambient}
    summands = len(slots) * len(set(chain.grade_pos))
    assert summands == 8
    assert len(calls) < summands  # here every one repeats a summand of T_1
    # the kept rows die with the chain: a second one eliminates as often
    per_chain = []
    for _ in range(2):
        calls.clear()
        beta_n(A, 3, chain=RelativeChain(A))
        per_chain.append(len(calls))
    assert per_chain[0] == per_chain[1] > 0


def test_a_twisted_group_algebra_forms_no_summand(monkeypatch):
    def forbidden(self, k):
        raise AssertionError("a summand or slot tuple was formed")

    monkeypatch.setattr(RelativeChain, "_summand_echelon", forbidden)
    monkeypatch.setattr(RelativeChain, "_slots", forbidden)
    calls = _counting_eliminations(monkeypatch)
    chain = RelativeChain(_twisted_z3x3())
    assert beta_n(chain.algebra, 3, chain=chain).is_bijective()
    assert chain._eliminated == {} and calls == [0, 0, 0]


def _twisted_z4x4():
    G = GradingGroup(0, (4, 4))
    b = standard_factor(G, [[0, 0], [0, 0]], [[0, 1], [-1, 0]], root_of_unity(4))
    return build_twisted_group_algebra(G, b)


def _forbid_echelon_add(monkeypatch):
    def forbidden(self, row):
        raise AssertionError("Echelon.add called")

    monkeypatch.setattr(Echelon, "add", forbidden)


def test_a_monomial_beta_n_is_ranked_without_elimination(monkeypatch):
    A = _twisted_z4x4()
    bmap = beta_n(A, 3)  # building T_1..T_3 eliminates their relations
    assert bmap.domain_dim == 16 * 16 ** 3
    assert all(len(col) == 1 for col in bmap.columns)
    _forbid_echelon_add(monkeypatch)
    assert bmap.is_bijective()


def test_a_non_monomial_beta_n_is_still_eliminated(monkeypatch):
    A = _quotient_graded_in_a_cyclotomic_basis()
    bmap = beta_n(A, 2)
    assert any(len(col) > 1 for col in bmap.columns)
    _forbid_echelon_add(monkeypatch)
    with pytest.raises(AssertionError, match="Echelon.add"):
        bmap.is_bijective()
    monkeypatch.undo()
    assert bmap.is_bijective()


def test_beta_n_forms_each_product_once_per_call(monkeypatch):
    # the 69,888 level columns of beta^3 on a twisted Z_4 x Z_4 multiply a
    # handful of distinct stored values; no product survives the call
    A = _twisted_z4x4()
    chain = RelativeChain(A)
    beta_n(A, 3, chain=chain)  # builds and verifies T_1..T_3
    calls = []
    mul = Scalar.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    beta_n(A, 3, chain=chain)
    first = len(calls)
    beta_n(A, 3, chain=chain)
    assert 0 < first <= 48 and len(calls) == 2 * first


def _counting_vec_add_at(monkeypatch):
    calls = []

    def counting(dst, key, a, b=None):
        calls.append(key in dst)
        vec_add_at(dst, key, a, b)

    monkeypatch.setattr(galois, "vec_add_at", counting)
    return calls


def test_a_monomial_beta_n_writes_each_entry_once(monkeypatch):
    # every column of a twisted Z_4 x Z_4's beta^3 holds one term, stored
    # by a plain dict write with no accumulation
    A = _twisted_z4x4()
    chain = RelativeChain(A)
    expected = beta_n(A, 3, chain=chain).columns  # builds T_1..T_3
    calls = _counting_vec_add_at(monkeypatch)
    assert beta_n(A, 3, chain=chain).columns == expected
    assert calls == []


def test_a_monomial_beta_n_is_decided_without_its_column_dicts(monkeypatch):
    # a monomial map's bijectivity is a row count over its flat lists
    reads = []
    columns = LinearMap.columns
    monkeypatch.setattr(LinearMap, "columns", property(
        lambda bmap: reads.append(bmap) or columns.fget(bmap)))
    A = _twisted_z4x4()
    assert beta_n(A, 3, chain=RelativeChain(A)).is_bijective()
    assert is_galois(A).galois
    assert reads == []


def test_a_repeated_position_accumulates_from_its_factors(monkeypatch):
    # the dense basis of kZ_6/Z_2 sends several terms of a column to one
    # position; only those later terms reach vec_add_at, and the columns
    # are still the closed form's
    A = _kz6_over_z2_in_a_dense_basis()
    chain = RelativeChain(A)
    beta_n(A, 2, chain=chain)  # builds T_1 and T_2
    calls = _counting_vec_add_at(monkeypatch)
    columns = beta_n(A, 2, chain=chain).columns
    assert calls and all(calls)
    assert columns == _closed_form_columns(A, 2, chain)


def test_no_corpus_beta_column_stores_a_zero(corpus):
    for entry in corpus:
        chain = RelativeChain(entry.algebra)
        for n in (1, 2, 3):
            for col in beta_n(entry.algebra, n, chain=chain).columns:
                assert not any(v.is_zero() for v in col.values()), entry.name


# sha256 over the beta^1..beta^3 columns of standard_corpus() in insertion
# order, each column as its length and then key, order, den, len(nums),
# *nums per entry, little-endian int64; recorded before beta_n memoised
# its products
CORPUS_BETA_DIGEST = "aac7b767b44928936ca858d650a519029389548cd090c56f79b37ad7139e2f95"


def test_beta_columns_keep_their_stored_forms_and_order(corpus):
    words = []
    for entry in corpus:
        chain = RelativeChain(entry.algebra)
        for n in (1, 2, 3):
            for col in beta_n(entry.algebra, n, chain=chain).columns:
                words.append(len(col))
                for k, v in col.items():
                    words += (k, v.order, v.den, len(v.nums), *v.nums)
    packed = array("q", words)
    if sys.byteorder == "big":
        packed.byteswap()
    assert hashlib.sha256(packed.tobytes()).hexdigest() == CORPUS_BETA_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_n_dimension_law_on_strong_corpus(strong_corpus, n):
    for entry in strong_corpus:
        A = entry.algebra
        if A.dim > 8:
            continue  # the large cases run once in the acceptance suite
        bmap = beta_n(A, n)
        expected = A.dim * (A.group.order ** n)
        assert bmap.domain_dim == expected, entry.name
        assert bmap.codomain_dim == expected, entry.name
        assert bmap.is_bijective(), entry.name


# -- equivalence harness -------------------------------------------------------

def test_equivalence_on_corpus(corpus):
    for entry in corpus:
        eq = check_equivalence_theorem(entry.algebra)
        assert eq.agree, entry.name
        assert eq.strong.strong == entry.expect_strong, entry.name


def test_deleted_product_fixture_fails_both_with_matching_witness():
    A = deleted_product_fixture()
    eq = check_equivalence_theorem(A)
    assert eq.agree
    assert not eq.strong.strong
    assert not eq.galois.galois
    g, h = eq.strong.witness_pair
    assert (g.coords, h.coords) == ((1,), (1,))
    # the Galois kernel involves the square-zero summand's grade pair
    assert eq.galois.kernel_witness is not None
    pair_grades = {(A.grade(i).coords, A.grade(j).coords)
                   for (i, j) in eq.galois.kernel_witness}
    assert pair_grades == {((1,), (1,))}
    assert eq.strong.missing is not None


def _kz2_on_basis_one_plus_g():
    # kZ_2 on the basis (1+g, 1): the second product of the identity
    # component reduces against the first during strong-grading elimination
    from qgraded.algebras import GradedAlgebra
    group = GradingGroup(0, ())
    e = group.identity()
    two, one = Scalar.from_rational(2), Scalar.one()
    products = {(0, 0): {0: two}, (0, 1): {0: one}, (1, 0): {0: one},
                (1, 1): {1: one}}
    return GradedAlgebra(group, [("1+g", e), ("1", e)], products, {1: one})


@pytest.mark.parametrize("make", [deleted_product_fixture, _twisted_z3x3,
                                  _kz2_on_basis_one_plus_g])
def test_decisions_leave_the_structure_constants_unchanged(make):
    # accumulation is in place, so no step may write into A's own dicts
    A = make()
    products = copy.deepcopy(A.products)
    unit = copy.deepcopy(A.unit)
    check_equivalence_theorem(A)
    beta_n(A, 2)
    assert A.products == products
    assert A.unit == unit


def test_well_definedness_on_every_corpus_algebra(corpus):
    # canonical_map raises on any balanced relation with nonzero image
    for entry in corpus:
        canonical_map(entry.algebra)
