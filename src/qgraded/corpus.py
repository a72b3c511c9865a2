"""The standard example corpus driving the verification suite.

Entries pair an algebra with the factor it was built from (when any) and
the expected strong-grading/Galois verdict.  Twisted group algebras here
use factors with even diagonal sigma entries: a twisted group algebra has
invertible homogeneous elements, so it can only be quantum commutative
when b(g, g) = 1 for every grade; odd diagonals are still valid builder
inputs (they give fermionic self-statistics) but belong in the factor
tests, not in the quantum-commutativity corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (GradedAlgebra, build_b_symmetric_truncation,
                       build_group_algebra, build_truncated_poly,
                       build_twisted_group_algebra)
from .commutation import CommutationFactor, standard_factor, trivial_factor
from .groups import GradingGroup
from .scalars import Scalar, parse_scalar


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    algebra: GradedAlgebra
    factor: CommutationFactor | None
    expect_strong: bool


def _twisted_parameter_grid() -> list[tuple[str, int, int, list, list, str]]:
    """(tag, n, N, sigma, omega, q) for Z_n^N twisted group algebras.

    Every choice satisfies the descent condition on Z_n^N and has an even
    sigma diagonal."""
    grid = []
    for n in (2, 3, 4):
        grid.append((f"z{n}-trivial", n, 1, [[0]], [[0]], "1"))
        grid.append((f"z{n}-even-sigma", n, 1, [[2]], [[0]], f"zeta({n})"))
        grid.append((f"z{n}-qpow", n, 1, [[0]], [[0]], "-1"))
        omega = [[0, 1], [-1, 0]]
        grid.append((f"z{n}x{n}-omega", n, 2, [[0, 0], [0, 0]], omega, f"zeta({n})"))
        if n % 2 == 0:
            grid.append((f"z{n}x{n}-sigma-offdiag", n, 2,
                         [[0, 1], [1, 0]], [[0, 0], [0, 0]], "1"))
            grid.append((f"z{n}x{n}-mixed", n, 2,
                         [[0, 1], [1, 0]], omega, f"zeta({n})"))
        else:
            grid.append((f"z{n}x{n}-omega2", n, 2,
                         [[0, 0], [0, 0]], [[0, 2], [-2, 0]], f"zeta({n})"))
            grid.append((f"z{n}x{n}-mixed", n, 2,
                         [[0, 2], [2, 2]], omega, f"zeta({n})"))
    return grid


def _quotient_graded_group_algebra(m: int, d: int) -> GradedAlgebra:
    """kZ_m graded by Z_d via reduction mod d (d | m), or by the trivial
    group when d = 1; components have dimension m/d, so the balanced
    tensor relations are nontrivial."""
    assert m % d == 0
    group = GradingGroup(0, (d,) if d > 1 else ())
    basis = [(f"g^{i}", group.element((i,) * group.ngens)) for i in range(m)]
    products = {(i, j): {(i + j) % m: Scalar.one()}
                for i in range(m) for j in range(m)}
    over = f"Z_{d}" if d > 1 else "the trivial group"
    return GradedAlgebra(group, basis, products, {0: Scalar.one()},
                         name=f"kZ_{m} over {over}")


def deleted_product_fixture() -> GradedAlgebra:
    """Product of a group algebra kZ_2 and a square-zero line, graded by
    Z_2 with two-dimensional components; the square-zero summand breaks
    strong grading (and the Galois property) at the grade pair (1, 1)."""
    group = GradingGroup(0, (2,))
    g0, g1 = group.element((0,)), group.element((1,))
    basis = [("u0", g0), ("v0", g0), ("u1", g1), ("v1", g1)]
    one = Scalar.one()
    products = {
        (0, 0): {0: one}, (0, 2): {2: one},
        (1, 1): {1: one}, (1, 3): {3: one},
        (2, 0): {2: one}, (2, 2): {0: one},
        (3, 1): {3: one},  # v1*v1 deleted: the summand is square-zero
    }
    unit = {0: one, 1: one}
    return GradedAlgebra(group, basis, products, unit,
                         name="deleted-product fixture")


def standard_corpus() -> list[CorpusEntry]:
    """At least twenty graded algebras with known verdicts."""
    entries: list[CorpusEntry] = []
    for tag, n, N, sigma, omega, q in _twisted_parameter_grid():
        group = GradingGroup(0, (n,) * N)
        b = standard_factor(group, sigma, omega, parse_scalar(q))
        entries.append(CorpusEntry(
            f"twisted-{tag}", build_twisted_group_algebra(group, b), b, True))

    for m in (2, 3, 4):
        entries.append(CorpusEntry(
            f"truncated-poly-m{m}", build_truncated_poly(m), None, False))

    for torsion in ((2,), (3,), (4,), (2, 2), (5,), (6,), (8,)):
        group = GradingGroup(0, torsion)
        entries.append(CorpusEntry(
            f"group-algebra-{group}".replace(" ", ""),
            build_group_algebra(group), trivial_factor(group), True))

    entries.append(CorpusEntry(
        "trivially-graded-kZ2", _quotient_graded_group_algebra(2, 1), None, True))
    entries.append(CorpusEntry(
        "quotient-graded-kZ4-over-Z2", _quotient_graded_group_algebra(4, 2),
        None, True))
    entries.append(CorpusEntry(
        "quotient-graded-kZ6-over-Z3", _quotient_graded_group_algebra(6, 3),
        None, True))

    fermionic = standard_factor(GradingGroup(0, (2, 2)),
                                [[1, 0], [0, 1]], [[0, 0], [0, 0]], Scalar.one())
    entries.append(CorpusEntry(
        "b-symmetric-fermionic-pair",
        build_b_symmetric_truncation(fermionic, 2), fermionic, False))
    anyonic = standard_factor(GradingGroup(0, (4, 4)),
                              [[0, 0], [0, 0]], [[0, 1], [-1, 0]],
                              parse_scalar("zeta(4)"))
    entries.append(CorpusEntry(
        "b-symmetric-anyonic-truncation",
        build_b_symmetric_truncation(anyonic, 2), anyonic, False))

    entries.append(CorpusEntry(
        "deleted-product-fixture", deleted_product_fixture(), None, False))
    return entries

