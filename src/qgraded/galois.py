"""The canonical map of a graded extension and its bijectivity.

The subalgebra is always the identity-grade component (equivalently the
coinvariants of the canonical coaction).  The relative tensor product
over it is realized as an explicit quotient of the plain tensor product
by the balanced relations, iterated powers are built as quotients of
quotients, and bijectivity of the canonical map and of its iterates is
decided by exact rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import GradedAlgebra, StrongGradingReport, \
    check_strong_grading, coinvariants
from .errors import CapExceededError, InfiniteGroupError, InternalConsistencyError
from .linalg import LinearMap, Vec, rref
from .scalars import Scalar

DEFAULT_MAX_BETA_N = 4


class QuotientSpace:
    """Quotient of a labeled free vector space by the span of relation rows.

    The basis is the set of ambient basis vectors at non-pivot columns of
    the fully reduced relation span; `project` rewrites any ambient vector
    in terms of it.
    """

    def __init__(self, ambient_labels: list, relation_rows: list[Vec]):
        self.ambient_labels = list(ambient_labels)
        self.relations = [r for r in relation_rows if r]
        ech = rref(self.relations)
        self.relation_rank = ech.rank
        self._pivot_rows = ech.pivot_rows
        self.basis_ambient = [i for i in range(len(self.ambient_labels))
                              if i not in self._pivot_rows]
        self._qindex = {amb: q for q, amb in enumerate(self.basis_ambient)}
        self.basis_labels = [self.ambient_labels[i] for i in self.basis_ambient]

    @property
    def ambient_dim(self) -> int:
        return len(self.ambient_labels)

    @property
    def dim(self) -> int:
        return len(self.basis_ambient)

    def project(self, ambient_vec: Vec) -> Vec:
        """Class of an ambient vector in quotient coordinates."""
        out: Vec = {}
        for a, c in ambient_vec.items():
            prow = self._pivot_rows.get(a)
            if prow is None:
                q = self._qindex[a]
                prev = out.get(q)
                val = c if prev is None else prev + c
                if val.is_zero():
                    out.pop(q, None)
                else:
                    out[q] = val
            else:
                for f, x in prow.items():
                    if f == a:
                        continue
                    q = self._qindex[f]
                    prev = out.get(q)
                    val = -(c * x) if prev is None else prev - c * x
                    if val.is_zero():
                        out.pop(q, None)
                    else:
                        out[q] = val
        return out


class RelativeChain:
    """Iterated relative tensor powers T_k of an algebra over its
    identity-grade subalgebra, with the right multiplication action.

    T_0 is the algebra itself; T_k is (T_{k-1} tensor A) modulo the
    balanced relations t*x (x) y - t (x) x*y with x running over the
    subalgebra basis.  Spaces are built on demand and cached.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        e = algebra.group.identity()
        self.sub = algebra.component(e)
        coinv = coinvariants(algebra)
        if sorted(i for v in coinv for i in v.coords) != sorted(self.sub):
            raise InternalConsistencyError(
                "coinvariants disagree with the identity-grade component")
        self._spaces: dict[int, QuotientSpace] = {}

    def _prev_dim(self, k: int) -> int:
        return self.algebra.dim if k == 1 else self.space(k - 1).dim

    def space(self, k: int) -> QuotientSpace:
        if k < 1:
            raise ValueError("tensor power index must be >= 1")
        if k not in self._spaces:
            A = self.algebra
            dim = A.dim
            prev = self._prev_dim(k)
            labels = [(c, j) for c in range(prev) for j in range(dim)]
            rows: list[Vec] = []
            for c in range(prev):
                for x in self.sub:
                    cx = self.right_action(k - 1, c, x)
                    for y in range(dim):
                        row: Vec = {t * dim + y: coeff for t, coeff in cx.items()}
                        for m, coeff in A.product_coords(x, y).items():
                            pos = c * dim + m
                            val = row.get(pos)
                            val = -coeff if val is None else val - coeff
                            if val.is_zero():
                                row.pop(pos, None)
                            else:
                                row[pos] = val
                        if row:
                            rows.append(row)
            self._spaces[k] = QuotientSpace(labels, rows)
        return self._spaces[k]

    def right_action(self, k: int, class_idx: int, j: int) -> Vec:
        """Right multiplication by basis vector j on the last tensor slot."""
        A = self.algebra
        if k == 0:
            return A.product_coords(class_idx, j)
        space = self.space(k)
        cprev, m = space.basis_labels[class_idx]
        mj = A.product_coords(m, j)
        if not mj:
            return {}
        amb: Vec = {cprev * A.dim + t: coeff for t, coeff in mj.items()}
        return space.project(amb)

    def flat_label(self, k: int, class_idx: int) -> tuple[int, ...]:
        """Representative of a T_k class as a tuple of basis indices."""
        if k == 0:
            return (class_idx,)
        cprev, m = self.space(k).basis_labels[class_idx]
        return self.flat_label(k - 1, cprev) + (m,)


def relative_tensor(algebra: GradedAlgebra) -> QuotientSpace:
    """The relative tensor square of the algebra over its identity-grade
    subalgebra, as an explicit quotient with ambient labels (i, j)."""
    return RelativeChain(algebra).space(1)


def canonical_map(algebra: GradedAlgebra,
                  chain: RelativeChain | None = None) -> LinearMap:
    """The map class(a (x) b) -> (a (x) 1) * coaction(b), as a matrix over
    the quotient basis; this is beta_n at n = 1."""
    return beta_n(algebra, 1, chain=chain)


@dataclass
class GaloisReport:
    """Bijectivity verdict for the canonical map, with witnesses."""

    galois: bool
    domain_dim: int
    codomain_dim: int
    rank: int
    kernel_witness: dict[tuple[int, int], Scalar] | None = None
    cokernel_witness: tuple | None = None

    def describe_kernel(self, algebra: GradedAlgebra) -> str | None:
        if self.kernel_witness is None:
            return None
        bits = []
        for (i, j), c in sorted(self.kernel_witness.items()):
            bits.append(f"{c}*[{algebra.label(i)} (x) {algebra.label(j)}]")
        return " + ".join(bits)


def is_galois(algebra: GradedAlgebra,
              chain: RelativeChain | None = None) -> GaloisReport:
    """Decide bijectivity of the canonical map by exact rank.

    On failure the report carries a kernel vector of minimal support
    (in quotient-representative coordinates keyed by (i, j) ambient
    labels) or a codomain basis vector outside the image.
    """
    beta = beta_n(algebra, 1, chain=chain)
    r = beta.rank()
    if r == beta.domain_dim == beta.codomain_dim:
        return GaloisReport(True, beta.domain_dim, beta.codomain_dim, r)
    kernel_witness = None
    cokernel_witness = None
    kernel = beta.kernel()
    if kernel:
        best = min(kernel, key=lambda v: (len(v), sorted(v)))
        kernel_witness = {beta.domain_labels[q]: c for q, c in best.items()}
    if r < beta.codomain_dim:
        pivots = beta.image_echelon().pivot_rows
        missing = next(i for i in range(beta.codomain_dim) if i not in pivots)
        cokernel_witness = beta.codomain_labels[missing]
    return GaloisReport(False, beta.domain_dim, beta.codomain_dim, r,
                        kernel_witness, cokernel_witness)


def beta_n(algebra: GradedAlgebra, n: int,
           max_beta_n: int = DEFAULT_MAX_BETA_N,
           chain: RelativeChain | None = None) -> LinearMap:
    """The n-fold iterate of the canonical map, assembled stepwise; the
    grading group must be finite.

    Domain: the (n+1)-fold relative tensor power, with flattened
    representative tuples as labels.  Codomain: algebra (x) n copies of
    the group algebra, labeled (i, g_1, ..., g_n) at position
    i*|G|^n + idx(g_1)*|G|^(n-1) + ... + idx(g_n).  Construction verifies
    that every balanced relation maps to zero; a nonzero image would
    indicate a bug, not a property of the input.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_beta_n:
        raise CapExceededError(
            f"beta iterate {n} exceeds the configured cap {max_beta_n}")
    if not algebra.group.is_finite:
        raise InfiniteGroupError(
            "the canonical map and its iterates require a finite grading group")
    chain = chain or RelativeChain(algebra)
    elements = algebra.group.elements()
    nG = len(elements)
    cod_labels = [(i,) + hs
                  for i in range(algebra.dim)
                  for hs in itertools.product(elements, repeat=n)]
    gindex = {g.coords: t for t, g in enumerate(elements)}
    grade_idx = [gindex[algebra.grade(j).coords] for j in range(algebra.dim)]

    for k in range(1, n + 1):
        _verify_step_welldefined(chain, k, grade_idx, nG)

    space_n = chain.space(n)
    columns: list[Vec] = []
    for c in range(space_n.dim):
        # after the steps down to T_k, position cls*width + suffix encodes
        # a T_k class and the grade indices of the n-k slots already split off
        vec: Vec = {c: Scalar.one()}
        width = 1
        for k in range(n, 0, -1):
            space = chain.space(k)
            new: Vec = {}
            for pos, coeff in vec.items():
                cls, suffix = divmod(pos, width)
                cprev, m = space.basis_labels[cls]
                tail = grade_idx[m] * width + suffix
                for t, c2 in chain.right_action(k - 1, cprev, m).items():
                    key = t * width * nG + tail
                    prev = new.get(key)
                    val = coeff * c2 if prev is None else prev + coeff * c2
                    new[key] = val
            vec = {kk: v for kk, v in new.items() if not v.is_zero()}
            width *= nG
        columns.append(vec)
    dom_labels = [chain.flat_label(n, c) for c in range(space_n.dim)]
    return LinearMap(dom_labels, cod_labels, columns)


def _verify_step_welldefined(chain: RelativeChain, k: int,
                             grade_idx: list[int], nG: int):
    """Each balanced relation of T_k must map to zero under the step that
    applies the canonical map to the last two slots."""
    dim = chain.algebra.dim
    for row in chain.space(k).relations:
        image: Vec = {}
        for amb, c in row.items():
            cprev, m = divmod(amb, dim)
            for t, c2 in chain.right_action(k - 1, cprev, m).items():
                key = t * nG + grade_idx[m]
                prev = image.get(key)
                val = c * c2 if prev is None else prev + c * c2
                if val.is_zero():
                    image.pop(key, None)
                else:
                    image[key] = val
        if image:
            raise InternalConsistencyError(
                f"tensor-power step {k} is not constant on a balanced relation")


@dataclass
class EquivalenceReport:
    """Strong grading and Galois verdicts computed independently."""

    strong: StrongGradingReport
    galois: GaloisReport
    agree: bool


def check_equivalence_theorem(algebra: GradedAlgebra) -> EquivalenceReport:
    """Run the strong-grading and the canonical-map bijectivity checks
    independently; by the graded-extension equivalence they must agree,
    so a disagreement is a defect in this library, never a data point."""
    strong = check_strong_grading(algebra)
    galois = is_galois(algebra)
    return EquivalenceReport(strong, galois, strong.strong == galois.galois)
