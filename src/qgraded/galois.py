"""The canonical map of a graded extension and its bijectivity.

The subalgebra is always the identity-grade component (equivalently the
coinvariants of the canonical coaction).  The relative tensor product
over it is realized as an explicit quotient of the plain tensor product
by the balanced relations, written only for a set of unital-algebra
generators of the subalgebra (they span the same relation space: a
relation for x1 and one for x2 give the one for x1*x2), iterated powers
are built as quotients of quotients, and bijectivity of the canonical
map and of its iterates is decided by exact rank.  The relations keep
every slot's grade, so T_k is the direct sum of the summands
T_(k-1)[b] (x) A_h, b a block of T_(k-1)'s classes with one slot-grade
tuple and h a grade; a summand's rows in local positions are fixed by the
stored forms of the generators' local matrices on T_(k-1)[b] and by h,
and a chain eliminates each such key once, keeping the rows only as long
as the chain lives.  beta^n has the closed form
a_0 (x) ... (x) a_n -> a_0...a_n (x) |a_1...a_n| (x) ... (x) |a_n|;
it is assembled level by level from the previous level's images of
ambient (unprojected) positions, which is exact because each verified
step kills every balanced relation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .algebras import GradedAlgebra, StrongGradingReport, \
    check_strong_grading, coinvariants, word_closure
from .errors import CapExceededError, InternalConsistencyError
from .linalg import Echelon, LinearMap, Vec, rref, vec_add_at
from .reports import combination_text
from .scalars import Scalar, product_memo

MAX_BETA_N = 4


class QuotientSpace:
    """Quotient of the free vector space on positions 0..ambient_dim-1 by
    the span of relation rows; `relations` keeps the nonzero given rows,
    a spanning set of the relation space, not necessarily all of it.

    In a relative tensor power T_k the ambient position c*dim + j stands
    for (class c of T_{k-1}) (x) (basis vector j of the algebra).  The
    basis is the set of ambient positions at non-pivot columns of the
    relations' forward echelon (`_pivot_rows`), which the first `project`
    replaces by the fully reduced rows: nothing else reduces a space.

    A `RelativeChain` passes a `SummandEchelon` instead of rows: T_k is
    the direct sum of its summands T_(k-1)[b] (x) A_h, whose forward rows
    the chain has already placed in whole-space order; their relation rows
    are built only when `relations` is read.
    """

    def __init__(self, ambient_dim: int, relation_rows: list[Vec] | SummandEchelon):
        self.ambient_dim = ambient_dim
        if isinstance(relation_rows, SummandEchelon):
            self._relations = relation_rows
            self._pivot_rows = relation_rows.pivot_rows
        else:
            self._relations = [r for r in relation_rows if r]
            self._pivot_rows = {p: row for _, p, row in _forward_rows(self._relations)}
        self.relation_rank = len(self._pivot_rows)
        self.basis_ambient = [i for i in range(ambient_dim)
                              if i not in self._pivot_rows]
        self._qindex: dict[int, int] | None = None  # set with the reduced rows

    @property
    def relations(self) -> list[Vec]:
        if isinstance(self._relations, SummandEchelon):
            self._relations = [r for r in self._relations.relation_rows() if r]
        return self._relations

    @property
    def dim(self) -> int:
        return len(self.basis_ambient)

    def project(self, vec: Vec, offset: int = 0) -> Vec:
        """Class in quotient coordinates of the ambient vector with c at
        offset + a for each a: c of vec."""
        if self._qindex is None:
            self._pivot_rows = rref(self._pivot_rows.values()).pivot_rows
            self._qindex = {amb: q for q, amb in enumerate(self.basis_ambient)}
        out: Vec = {}
        for a, c in vec.items():
            a += offset
            prow = self._pivot_rows.get(a)
            if prow is None:
                vec_add_at(out, self._qindex[a], c)
            else:
                minus_c = -c
                for f, x in prow.items():
                    if f != a:
                        vec_add_at(out, self._qindex[f], minus_c, x)
        return out


def _forward_rows(rows: list[Vec]) -> list[tuple[int, int, Vec]]:
    """The forward echelon of rows as (index of the row that made the
    pivot, pivot, pivot row), in insertion order."""
    ech, out = Echelon(), []
    for i, row in enumerate(rows):
        if ech.add(row):
            pivot = next(reversed(ech.pivot_rows))
            out.append((i, pivot, ech.pivot_rows[pivot]))
    return out


def _summand_rows(action, products) -> list[Vec]:
    """The balanced relation rows of one summand T_(k-1)[b] (x) A_h in
    local positions ci*|h| + yi.  action[xi][ci] lists (ti, -coeff) for
    class b[ci] times generator xi, products[xi][yi] lists (mi, coeff) for
    generator xi times h[yi], all in local indices; row (ci*ngens + xi)*|h|
    + yi is b[ci] (x) x*y - b[ci]*x (x) y."""
    nh = len(products[0])
    rows: list[Vec] = []
    for ci in range(len(action[0])):
        for act, prod in zip(action, products):
            minus_cx = [(t * nh, coeff) for t, coeff in act[ci]]
            for yi, xy in enumerate(prod):
                row: Vec = {t + yi: coeff for t, coeff in minus_cx}
                for m, coeff in xy:
                    vec_add_at(row, ci * nh + m, coeff)
                rows.append(row)
    return rows


class SummandEchelon:
    """The balanced relations of T_k by summands: `pivot_rows` is their
    forward echelon in ambient positions and whole-space insertion order;
    each summand is (action, products, row numbers, positions), with the
    whole-space number of each local row and the ambient position of each
    local position."""

    def __init__(self, pivot_rows: dict[int, Vec], summands: list[tuple]):
        self.pivot_rows = pivot_rows
        self._summands = summands

    def relation_rows(self) -> list[Vec]:
        """The rows of every summand in ambient positions and whole-space
        order: class c of T_(k-1) outer, then generator, then y."""
        numbered = []
        for action, products, numbers, positions in self._summands:
            for r, row in enumerate(_summand_rows(action, products)):
                numbered.append((numbers[r], {positions[a]: v for a, v in row.items()}))
        numbered.sort(key=itemgetter(0))
        return [row for _, row in numbered]


class RelativeChain:
    """Iterated relative tensor powers T_k of an algebra over its
    identity-grade subalgebra, with the right multiplication action.

    T_0 is the algebra itself; T_k is (T_{k-1} tensor A) modulo the
    balanced relations t (x) x*y - t*x (x) y with x running over
    generators of the subalgebra, which `word_closure` picks from its
    basis vectors.  Spaces are built on demand and cached;
    grade_pos[i] is the `GradingGroup.index` of grade(i).

    The relations keep every slot's grade, so T_k's ambient space is the
    direct sum of the summands T_(k-1)[b] (x) A_h: b runs over the blocks
    of T_(k-1)'s classes with one slot-grade tuple, h over the grades.  A
    summand's rows in local positions depend only on the local matrices of
    the generators acting on T_(k-1)[b] and on h, so `_eliminated` maps
    that key, with the matrices in stored forms (never values), to the
    summand's forward echelon rows: each key is eliminated once per chain
    and its rows are placed at every summand with that key, in T_1..T_n
    alike.  No block is formed when the subalgebra needs no generator.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.grade_pos = [algebra.group.index(g.coords) for _label, g in algebra.basis]
        self.sub = algebra.component(algebra.group.identity())
        coinv = coinvariants(algebra)
        if sorted(i for v in coinv for i in v) != sorted(self.sub):
            raise InternalConsistencyError(
                "coinvariants disagree with the identity-grade component")
        self.generators, words = word_closure(algebra, self.sub)
        if words.rank != len(self.sub) or any(
                i not in self.sub for row in words.pivot_rows.values() for i in row):
            raise InternalConsistencyError(
                "generators of the identity-grade component do not span it")
        self._spaces: dict[int, QuotientSpace] = {}
        # (generator matrices in stored forms, h) -> [(local row, pivot, row)]
        self._eliminated: dict[tuple, list[tuple[int, int, Vec]]] = {}

    def space(self, k: int) -> QuotientSpace:
        if k < 1:
            raise ValueError("tensor power index must be >= 1")
        if k not in self._spaces:
            prev = self.algebra.dim if k == 1 else self.space(k - 1).dim
            space = QuotientSpace(prev * self.algebra.dim,
                                  self._summand_echelon(k) if self.generators else [])
            self._verify_step(k, space)
            self._spaces[k] = space
        return self._spaces[k]

    def _slots(self, k: int) -> list[tuple[int, ...]]:
        """The slot-grade tuple of each class of T_k."""
        if k == 0:
            return [(g,) for g in self.grade_pos]
        prev, dim = self._slots(k - 1), self.algebra.dim
        return [prev[a // dim] + (self.grade_pos[a % dim],)
                for a in self.space(k).basis_ambient]

    def _summand_echelon(self, k: int) -> SummandEchelon:
        """T_k's relations by summands, each key eliminated at most once
        per chain and its rows placed at every summand with that key."""
        A = self.algebra
        dim, gens = A.dim, self.generators
        ngens = len(gens)
        blocks: dict[tuple, list[int]] = {}
        for c, slot in enumerate(self._slots(k - 1)):
            blocks.setdefault(slot, []).append(c)
        comps: dict[int, list[int]] = {}
        for y, h in enumerate(self.grade_pos):
            comps.setdefault(h, []).append(y)
        # class of T_(k-1) or basis vector -> its index in its block or component
        cloc = {c: i for members in blocks.values() for i, c in enumerate(members)}
        yloc = {y: i for comp in comps.values() for i, y in enumerate(comp)}
        # products[h][xi][yi]: generator xi times the basis vector comps[h][yi]
        products = {h: [[tuple((yloc[m], coeff) for m, coeff in
                               A.product_coords(x, y).items()) for y in comp]
                         for x in gens] for h, comp in comps.items()}
        placed, summands = [], []
        for members in blocks.values():
            # action[xi][ci]: -(class members[ci] times generator xi), local
            action = [[tuple((cloc[t], -coeff) for t, coeff in
                             self.right_action(k - 1, c, x).items())
                       for c in members] for x in gens]
            # sorted, since a row's stored values never depend on its entry order
            matrices = tuple(tuple(sorted((t, s.order, s.nums, s.den) for t, s in entries))
                             for act in action for entries in act)
            for h, comp in comps.items():
                entry = self._eliminated.get((matrices, h))
                if entry is None:
                    entry = self._eliminated[matrices, h] = \
                        _forward_rows(_summand_rows(action, products[h]))
                positions = [c * dim + y for c in members for y in comp]
                numbers = [(c * ngens + xi) * dim + y for c in members
                           for xi in range(ngens) for y in comp]
                placed += [(numbers[r], positions[p],
                            {positions[a]: v for a, v in row.items()})
                           for r, p, row in entry]
                summands.append((action, products[h], numbers, positions))
        placed.sort(key=itemgetter(0))
        return SummandEchelon({p: row for _, p, row in placed}, summands)

    def _verify_step(self, k: int, space: QuotientSpace):
        """Each balanced relation of T_k must map to zero under the step
        that applies the canonical map to the last two slots.  The step is
        linear, so it is checked on the rows of the forward echelon built
        with the space: they span the same space as the given relations.
        A nonzero image would indicate a bug, not a property of the input."""
        dim, order = self.algebra.dim, self.algebra.group.order
        moved: dict[int, Vec] = {}  # ambient position -> its image under the step
        for row in space._pivot_rows.values():
            image: Vec = {}
            for amb, c in row.items():
                if amb not in moved:
                    cprev, m = divmod(amb, dim)
                    moved[amb] = {t * order + self.grade_pos[m]: c2
                                  for t, c2 in self.right_action(k - 1, cprev, m).items()}
                for pos, c2 in moved[amb].items():
                    vec_add_at(image, pos, c, c2)
            if image:
                raise InternalConsistencyError(
                    f"tensor-power step {k} is not constant on a balanced relation")

    def right_action(self, k: int, class_idx: int, j: int) -> Vec:
        """Right multiplication by basis vector j on the last tensor slot."""
        A = self.algebra
        if k == 0:
            return A.product_coords(class_idx, j)
        space = self.space(k)
        cprev, m = divmod(space.basis_ambient[class_idx], A.dim)
        return space.project(A.product_coords(m, j), cprev * A.dim)


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
        return combination_text(
            (c, f"[{algebra.label(i)} (x) {algebra.label(j)}]")
            for (i, j), c in sorted(self.kernel_witness.items()))


def is_galois(algebra: GradedAlgebra,
              chain: RelativeChain | None = None) -> GaloisReport:
    """Decide bijectivity of the canonical map by exact rank.

    On failure the report carries a kernel vector of minimal support keyed
    by the (i, j) of its classes i (x) j, or the (i, g) of a codomain basis
    vector i (x) g outside the image, decoded from positions as in `beta_n`.
    A monomial bijective beta is decided by its row count; any other beta's
    columns are eliminated once, and the missing pivots give the cokernel.
    """
    chain = chain or RelativeChain(algebra)
    beta = beta_n(algebra, 1, chain=chain)
    if beta.is_monomial() and beta.is_bijective():
        return GaloisReport(True, beta.domain_dim, beta.codomain_dim, beta.domain_dim)
    image = beta.image_echelon()
    r = image.rank
    if r == beta.domain_dim == beta.codomain_dim:
        return GaloisReport(True, beta.domain_dim, beta.codomain_dim, r)
    kernel_witness = cokernel_witness = None
    if r < beta.domain_dim:
        best = min(beta.kernel(), key=lambda v: (len(v), sorted(v)))
        ambient = chain.space(1).basis_ambient
        kernel_witness = {divmod(ambient[q], algebra.dim): c
                          for q, c in best.items()}
    if r < beta.codomain_dim:
        missing = next(p for p in range(beta.codomain_dim)
                       if p not in image.pivot_rows)
        i, t = divmod(missing, algebra.group.order)
        cokernel_witness = (i, algebra.group.elements()[t])
    return GaloisReport(False, beta.domain_dim, beta.codomain_dim, r,
                        kernel_witness, cokernel_witness)


def beta_n(algebra: GradedAlgebra, n: int,
           chain: RelativeChain | None = None) -> LinearMap:
    """The n-fold iterate of the canonical map.

    Domain: the (n+1)-fold relative tensor power T_n; column q is its
    quotient basis class q.  Codomain: algebra (x) n copies of the group
    algebra, i (x) g_1 (x) ... (x) g_n at position
    i*|G|^n + idx(g_1)*|G|^(n-1) + ... + idx(g_n), idx = `GradingGroup.index`;
    a_0 (x) ... (x) a_n maps to a_0...a_n (x) |a_1...a_n| (x) ... (x) |a_n|.

    beta^1, ..., beta^n are built level by level from the identity beta^0.
    images[a] is beta^k of the T_k ambient position a = c*dim + m: beta^(k-1)
    of c*m, each position p moved to p*|G| + idx(grade(m)), with c*m
    expanded over T_(k-1)'s ambient positions cc*dim + y, y in
    product_coords(mm, m), (cc, mm) = divmod(basis_ambient[c], dim), and
    never projected onto its classes.  That is exact: the step out of
    T_(k-1) was checked to send each of its balanced relations to zero when
    it was built, so an ambient vector and its projection have one image.
    Levels below n keep every ambient position, level n its classes.  A
    level walks the class c of T_(k-1) outer and m inner, in ambient order,
    reading grade(m)'s index and mm*m's terms from rows[mm][m]; each distinct
    product of two stored values is formed once per call.  A column's first
    term at a position is stored as that product, nonzero as both factors
    are; a later term there is accumulated from its factors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_BETA_N:
        raise CapExceededError(
            f"beta iterate {n} exceeds the configured cap {MAX_BETA_N}")
    chain = chain or RelativeChain(algebra)
    dim, nG = algebra.dim, algebra.group.order

    mul = product_memo()
    rows = [[(chain.grade_pos[m], tuple(algebra.product_coords(mm, m).items()))
             for m in range(dim)] for mm in range(dim)]
    images: list[Vec] = [{i: Scalar.one()} for i in range(dim)]
    prev = range(dim)  # ambient position of each class of T_(k-1)
    for k in range(1, n + 1):
        space = chain.space(k)
        kept = space.basis_ambient if k == n else range(space.ambient_dim)
        prev_images, images, hi = images, [], 0
        for c, a in enumerate(prev):
            cc, mm = divmod(a, dim)
            lo, hi = hi, bisect_left(kept, (c + 1) * dim, hi)
            base, row, cdim = cc * dim, rows[mm], c * dim
            for amb in kept[lo:hi]:
                g, terms = row[amb - cdim]
                col: Vec = {}
                for y, cy in terms:
                    for p, x in prev_images[base + y].items():
                        q = p * nG + g
                        if q in col:
                            vec_add_at(col, q, cy, x)
                        else:
                            col[q] = mul(cy, x)
                images.append(col)
        prev = space.basis_ambient
    return LinearMap(dim * nG ** n, images)


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
