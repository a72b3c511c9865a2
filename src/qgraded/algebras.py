"""Group-graded finite-dimensional algebras given by exact structure constants.

A GradedAlgebra is a basis of labeled, homogeneous vectors together with
a product table.  The grading carries the canonical kG-coaction
a -> a (x) g on a grade-g vector; coinvariants, quantum commutativity
and strong grading are decided by exact elimination.  An element of the
algebra is its coordinate vector, a dict from basis index to scalar, and
`multiply` is the one product through the structure constants.
Builders produce the example families used throughout: twisted group
algebras, truncated polynomial rings, and truncations of free
b-commutative algebras.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .commutation import CommutationFactor, trivial_factor
from .errors import GroupMismatchError
from .groups import GradingGroup, GroupElement
from .linalg import Echelon, Vec, kernel_basis, vec_add_at, vec_add_scaled
from .reports import CheckReport
from .scalars import Scalar, product_memo


class GradedAlgebra:
    """Associative unital algebra with a group-graded basis.

    `basis` is a list of (label, grade) pairs; `products` maps a pair of
    basis indices to the coordinate vector of the product (missing pairs
    multiply to zero); `unit` is the coordinate vector of 1.
    """

    def __init__(self, group: GradingGroup, basis: list[tuple[str, GroupElement]],
                 products: dict[tuple[int, int], Vec], unit: Vec,
                 validate: bool = True, name: str | None = None):
        self.group = group
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.products = {k: {i: c for i, c in v.items() if not c.is_zero()}
                         for k, v in products.items()}
        self.products = {k: v for k, v in self.products.items() if v}
        self.unit = {i: c for i, c in unit.items() if not c.is_zero()}
        self.name = name
        self._components: dict[tuple, list[int]] = {}
        for idx, (_label, grade) in enumerate(self.basis):
            if grade.group != group:
                raise GroupMismatchError(f"basis vector {idx} graded over a foreign group")
            self._components.setdefault(grade.coords, []).append(idx)
        if validate:
            report = self.validation_report()
            if not report.passed:
                fail = report.failures()[0]
                raise ValueError(f"invalid algebra ({fail.check_id}): {fail.witness}")

    def label(self, i: int) -> str:
        return self.basis[i][0]

    def grade(self, i: int) -> GroupElement:
        return self.basis[i][1]

    def component(self, g: GroupElement) -> list[int]:
        """Basis indices of the grade-g component."""
        return self._components.get(g.coords, [])

    # -- products -----------------------------------------------------

    def product_coords(self, i: int, j: int) -> Vec:
        return self.products.get((i, j), {})

    def multiply(self, u: Vec, v: Vec) -> Vec:
        """Product of two coordinate vectors: the bilinear expansion
        sum of u_i*v_j*products[(i, j)]."""
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                table = self.products.get((i, j))
                if table:
                    vec_add_scaled(out, table, a * b)
        return out

    # -- validation ---------------------------------------------------

    def validation_report(self) -> CheckReport:
        """Homogeneity and unit laws on all basis pairs, then associativity.

        Associativity is proved on the triples (i, j, s) with s among the
        generators `word_closure` picks from the basis: the z with
        (xy)z = x(yz) for all basis x, y form a subspace that holds 1 once
        the unit laws do and is closed under products, so it is A once the
        words in those generators span A.  Otherwise, or when a generator
        triple fails, all basis triples are checked in (i, j, k) order and
        the first failing one is the witness.
        """
        report = CheckReport()

        def inhomogeneous():
            for (i, j), result in self.products.items():
                target = self.grade(i) + self.grade(j)
                for k in result:
                    if self.grade(k) != target:
                        yield (f"{self.label(i)}*{self.label(j)} has a component "
                               f"in grade {self.grade(k)}, expected {target}")

        report.check("algebra.homogeneity", inhomogeneous(),
                     note="products of homogeneous vectors stay homogeneous")

        def unit_failures():
            for i in range(self.dim):
                e = {i: Scalar.one()}
                if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                    yield f"unit fails on {self.label(i)}"
            for i in self.unit:
                if not self.grade(i).is_identity():
                    yield f"unit has a component of grade {self.grade(i)}"

        report.check("algebra.unit", unit_failures())

        products = self.products
        # structure constants repeat a handful of values, so memoizing
        # their products keeps the triple loop near-linear
        mul = product_memo()

        def expand(vec: Vec, pair_of) -> Vec:
            out: Vec = {}
            for m, c in vec.items():
                table = products.get(pair_of(m))
                if table:
                    for kk, x in table.items():
                        if kk in out:
                            vec_add_at(out, kk, c, x)
                        else:
                            out[kk] = mul(c, x)
            return out

        def nonassociative(ks):
            empty: Vec = {}
            for i in range(self.dim):
                for j in range(self.dim):
                    pij = products.get((i, j), empty)
                    for k in ks:
                        lhs = expand(pij, lambda m: (m, k))
                        rhs = expand(products.get((j, k), empty), lambda m: (i, m))
                        if lhs != rhs:
                            yield (f"({self.label(i)}*{self.label(j)})*{self.label(k)} "
                                   f"!= {self.label(i)}*({self.label(j)}*{self.label(k)})")

        generators, words = word_closure(self, range(self.dim))
        proved = report.result("algebra.unit").passed and words.rank == self.dim
        report.check("algebra.associativity", nonassociative(range(self.dim)),
                     proof=nonassociative(generators) if proved else None)
        return report

    def __repr__(self):
        tag = self.name or "GradedAlgebra"
        return f"<{tag}: dim {self.dim} over {self.group}>"


def word_closure(algebra: GradedAlgebra,
                 candidates) -> tuple[list[int], Echelon]:
    """Generators picked from the candidate basis indices, and the span of
    their words (1 closed under right multiplication by them): a candidate
    joins when it lies outside the span of the words in those before it."""
    one = Scalar.one()
    generators: list[int] = []
    words, found = Echelon(), []

    def close(todo: list[Vec]):
        while todo:
            w = todo.pop()
            if words.add(w):
                found.append(w)
                todo += [algebra.multiply(w, {x: one}) for x in generators]

    close([algebra.unit])
    for x in candidates:
        if not words.contains({x: one}):
            generators.append(x)
            close([algebra.multiply(w, {x: one}) for w in found])
    return generators, words


# -- coaction and coinvariants -------------------------------------------


def coaction(algebra: GradedAlgebra, vec: Vec) -> dict[tuple, Scalar]:
    """Canonical kG-coaction: a grade-g vector maps to itself (x) g, keyed
    by (basis index, grade)."""
    return {(i, algebra.grade(i)): c for i, c in vec.items()}


def coinvariants(algebra: GradedAlgebra) -> list[Vec]:
    """Basis of {a : coaction(a) = a (x) identity}, by exact elimination.

    For the canonical coaction this is the identity-grade component; the
    computation solves the defining linear system rather than assuming
    that, so it doubles as a consistency check.
    """
    e = algebra.group.identity()
    # linear map a -> coaction(a) - a(x)e, expressed over keyed rows
    rows: dict[tuple, Vec] = {}
    for i in range(algebra.dim):
        column = coaction(algebra, {i: Scalar.one()})
        vec_add_at(column, (i, e), Scalar.from_rational(-1))
        for key, c in column.items():
            rows.setdefault(key, {})[i] = c
    return kernel_basis(list(rows.values()), algebra.dim)


# -- quantum commutativity ------------------------------------------------


@dataclass
class QCReport:
    """Verdict of the braided-commutativity check x*y = b(g,h)*(y*x)."""

    quantum_commutative: bool
    witness_pair: tuple[str, str] | None = None
    witness_grades: tuple[GroupElement, GroupElement] | None = None


def check_quantum_commutativity(algebra: GradedAlgebra,
                                b: CommutationFactor) -> QCReport:
    """Check x*y = b(g,h)*(y*x) on all homogeneous basis pairs.

    Bilinearity extends the verdict to arbitrary elements.
    """
    if b.group != algebra.group:
        raise GroupMismatchError("factor and algebra have different grading groups")
    for i in range(algebra.dim):
        gi = algebra.grade(i)
        for j in range(algebra.dim):
            gj = algebra.grade(j)
            # b(g_i, g_j) is nonzero, so scaling drops no entry
            c = b.evaluate(gi, gj)
            if algebra.product_coords(i, j) != {
                    k: c * x for k, x in algebra.product_coords(j, i).items()}:
                return QCReport(False, (algebra.label(i), algebra.label(j)),
                                (gi, gj))
    return QCReport(True)


# -- strong grading --------------------------------------------------------


@dataclass
class StrongGradingReport:
    strong: bool
    witness_pair: tuple[GroupElement, GroupElement] | None = None
    missing: int | None = None


def _grade_pair_spans(algebra: GradedAlgebra):
    """Yield (g, h, A_{g+h}, span of A_g * A_h) for each ordered pair of
    grades with A_{g+h} != 0; each span stops growing once it fills A_{g+h}."""
    grades = algebra.group.elements()
    for g in grades:
        for h in grades:
            target = algebra.component(g + h)
            if not target:
                continue
            span = Echelon()
            for i, j in itertools.product(algebra.component(g), algebra.component(h)):
                prod = algebra.product_coords(i, j)
                if prod:
                    span.add(prod)
                    if span.rank == len(target):
                        break
            yield g, h, target, span


def check_strong_grading(algebra: GradedAlgebra) -> StrongGradingReport:
    """Decide A_g * A_h = A_{gh} for all pairs of grades.

    On failure returns the first offending pair in enumeration order plus
    the index of the first basis vector of A_{gh} outside the product span.
    """
    for g, h, target, span in _grade_pair_spans(algebra):
        if span.rank < len(target):
            missing = next(k for k in target if not span.contains({k: Scalar.one()}))
            return StrongGradingReport(False, (g, h), missing)
    return StrongGradingReport(True)


# -- builders --------------------------------------------------------------


def build_twisted_group_algebra(group: GradingGroup,
                                b: CommutationFactor) -> GradedAlgebra:
    """Twisted group algebra k_b[G]: one basis vector u_g per group element.

    Products are u_g u_h = phi(g,h) u_{g+h} with the crossing cocycle phi
    built from b, so that u_i u_j = b(xi_i, xi_j) u_j u_i on generators
    and u_e = 1.  Strongly graded, with a one-dimensional identity
    component.
    """
    if b.group != group:
        raise GroupMismatchError("factor is not defined on the requested group")
    elements = group.elements()
    basis = [(f"u{g}", g) for g in elements]
    products: dict[tuple[int, int], Vec] = {}
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            c = b.crossing_cocycle(g.coords, h.coords)
            products[(i, j)] = {group.index(map(sum, zip(g.coords, h.coords))): c}
    return GradedAlgebra(group, basis, products, {0: Scalar.one()},
                         name=f"twisted k_b[{group}]")


def build_group_algebra(group: GradingGroup) -> GradedAlgebra:
    """kG graded over itself (the twisted algebra with trivial twist)."""
    return build_twisted_group_algebra(group, trivial_factor(group))


def build_truncated_poly(m: int) -> GradedAlgebra:
    """k[x]/(x^m) graded by Z_m with deg x = 1; graded but never strong.

    It is the b-symmetric algebra of one boson (trivial factor on Z_m)
    truncated above degree m - 1."""
    if m < 2:
        raise ValueError("truncation order must be >= 2")
    algebra = build_b_symmetric_truncation(
        trivial_factor(GradingGroup(0, (m,))), m - 1)
    algebra.name = f"k[x]/(x^{m})"
    return algebra


def _monomial_label(names: list[str], exponents: tuple[int, ...]) -> str:
    bits = []
    for name, e in zip(names, exponents):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits) if bits else "1"


def _fermionic(b: CommutationFactor) -> list[bool]:
    """Which generators have b(g, g) = -1, so that they square to zero."""
    minus_one = Scalar.from_rational(-1)
    return [b.generator_value(i, i) == minus_one for i in range(b.group.ngens)]


def b_symmetric_dim(b: CommutationFactor, d: int) -> int:
    """Dimension of `build_b_symmetric_truncation(b, d)` without building it:
    with k bosonic and f fermionic generators, sum_{j <= min(f, d)} of
    C(f, j) * C(k + d - j, k) monomials."""
    fermionic = _fermionic(b)
    f, k = sum(fermionic), len(fermionic) - sum(fermionic)
    return sum(math.comb(f, j) * math.comb(k + d - j, k)
               for j in range(min(f, d) + 1))


def build_b_symmetric_truncation(b: CommutationFactor,
                                 max_degree: int) -> GradedAlgebra:
    """Free b-commutative algebra on one generator per group generator,
    truncated above total degree max_degree.

    Basis: normal-ordered monomials; generators with b(g,g) = -1 square
    to zero (2x^2 = 0 in characteristic zero), so their exponents stay
    below 2.  Products that exceed the degree bound are zero, making the
    result a finite-dimensional graded quotient.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    group = b.group
    N = group.ngens
    names = ["x", "y", "z"][:N] if N <= 3 else [f"x{i+1}" for i in range(N)]
    fermionic = _fermionic(b)
    caps = [1 if fermionic[i] else max_degree for i in range(N)]

    monomials = [exps
                 for exps in itertools.product(*(range(c + 1) for c in caps))
                 if sum(exps) <= max_degree]
    monomials.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    index = {e: i for i, e in enumerate(monomials)}
    basis = [(_monomial_label(names, e), group.element(e)) for e in monomials]

    products: dict[tuple[int, int], Vec] = {}
    for ia, a in enumerate(monomials):
        for ic, c in enumerate(monomials):
            total = tuple(x + y for x, y in zip(a, c))
            if sum(total) > max_degree:
                continue
            if any(fermionic[i] and total[i] >= 2 for i in range(N)):
                continue
            products[(ia, ic)] = {index[total]: b.crossing_cocycle(a, c)}
    return GradedAlgebra(group, basis, products, {index[(0,) * N]: Scalar.one()},
                         name=f"b-symmetric truncation deg<={max_degree}")
