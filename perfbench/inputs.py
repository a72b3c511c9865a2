"""Seeded input generators for the benchmark workloads.

Every input is built through the public qgraded API (GradingGroup,
standard_factor, root_of_unity, Scalar, GradedAlgebra and the builders),
so constructing it runs the library's own structural validation.  The
expected verdicts come from how an input was constructed, never from the
program under test:

* the standard corpus declares each entry's verdict (expect_strong);
  a twisted group algebra stays strongly graded under any valid twist;
* group algebras kZ_m graded by a quotient Z_d are strongly graded, so
  beta and all its iterates are bijective with domain and codomain of
  dimension dim * |G|^n;
* k[x]/(x^m) graded by Z_d is not strongly graded (the unit is not a
  sum of products of positive-degree monomials, which are nilpotent);
* the corpus descriptors' verdicts follow from their family names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from qgraded import (GradedAlgebra, GradingGroup, Scalar,
                     build_twisted_group_algebra, root_of_unity,
                     standard_factor)
from qgraded.corpus import standard_corpus


@dataclass(frozen=True)
class Check:
    """One `qgraded check` call: a corpus file and its --expect flags."""

    path: Path
    expect: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.path.stem


@dataclass(frozen=True)
class Algebra:
    """A generated algebra with its expected verdict and beta sweep depth."""

    name: str
    algebra: GradedAlgebra
    strong: bool
    beta_max: int  # 0: no beta sweep, only the equivalence check


# -- check-corpus ----------------------------------------------------------

# family prefix -> expected strong-grading verdict; each family's verdict
# is a theorem about its construction (see the corpus module docstring)
CORPUS_FAMILIES = {
    "twisted-": True,
    "group-algebra-": True,
    "quotient-graded-": True,
    "trivially-graded-": True,
    "truncated-poly-": False,
    "b-symmetric-": False,
    "deleted-product-": False,
}

def corpus_checks(corpus_dir: Path, seed: int) -> list[Check]:
    """Every descriptor in the corpus directory, in seeded order."""
    paths = sorted(corpus_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no descriptors in {corpus_dir}")
    checks = []
    for path in paths:
        family = next((f for f in CORPUS_FAMILIES if path.stem.startswith(f)),
                      None)
        if family is None:
            raise ValueError(f"no known verdict for corpus file {path.name}")
        # the CLI carries an expectation on one side of the equivalence over
        # to the other, so not-strong alone also expects not-galois; every
        # descriptor with a factor is quantum commutative for it (even sigma
        # diagonals, trivial factors, b-commutative truncations), which is
        # the CLI's default expectation
        checks.append(Check(path, () if CORPUS_FAMILIES[family]
                            else ("not-strong",)))
    random.Random(seed).shuffle(checks)
    return checks


# -- beta-twisted ------------------------------------------------------------

BETA_TWISTED_DEPTH = 3


def _crossing_order(value: Scalar, n: int) -> int:
    """Multiplicative order of a root of unity of order dividing n."""
    return next(t for t in range(1, n + 1) if (value ** t).is_one())


def _redraw_twist(rng: random.Random, group: GradingGroup, default):
    """A random valid twist on Z_n^N whose crossing value b(xi_1, xi_0)
    has the same multiplicative order as the default twist's, so the
    redrawn algebra needs arithmetic in the same field (rational, or
    Q(zeta_n)) and costs the same to decide."""
    n, N = group.torsion[0], len(group.torsion)
    if N == 1:
        return standard_factor(group, [[rng.choice((0, 2))]], [[0]],
                               root_of_unity(n, rng.randrange(n)))
    target = _crossing_order(default.generator_value(1, 0), n)
    while True:
        s = rng.randrange(2) if n % 2 == 0 else 0
        w = rng.choice([x for x in range(-(n - 1), n) if x])
        q = root_of_unity(n, rng.randrange(n))
        b = standard_factor(group, [[0, s], [s, 0]], [[0, w], [-w, 0]], q)
        if _crossing_order(b.generator_value(1, 0), n) == target:
            return b


def twisted_inputs(seed: int) -> list[Algebra]:
    """The strongly graded entries of the standard corpus, with their
    verdicts; other seeds than 0 redraw the twist of every twisted group
    algebra."""
    rng = random.Random(seed)
    out = []
    for entry in standard_corpus():
        if not entry.expect_strong:
            continue
        name, algebra = entry.name, entry.algebra
        if seed != 0 and name.startswith("twisted-"):
            b = _redraw_twist(rng, algebra.group, entry.factor)
            algebra = build_twisted_group_algebra(algebra.group, b)
            N = algebra.group.ngens
            name += "[" + ",".join(str(b.generator_value(i, j))
                                   for i in range(N) for j in range(N)) + "]"
        out.append(Algebra(name, algebra, entry.expect_strong,
                           BETA_TWISTED_DEPTH))
    rng.shuffle(out)
    return out


# -- beta-dense ---------------------------------------------------------------

# (family, m, d, field order, beta depth, copies): kZ_m and k[x]/(x^m)
# graded by Z_d with components of dimension m/d >= 3, each copy after its
# own invertible change of basis inside every component over Q(zeta_order).
DENSE_SLOTS = (
    ("kZ", 6, 2, 1, 3, 6),
    ("kZ", 6, 2, 3, 2, 3),
    ("kZ", 6, 2, 4, 2, 3),
    ("kZ", 9, 3, 1, 2, 4),
    ("kZ", 9, 3, 4, 1, 2),
    ("kZ", 8, 2, 1, 2, 2),
    ("kZ", 12, 4, 1, 2, 1),
    ("trunc", 6, 2, 4, 0, 6),
    ("trunc", 8, 2, 1, 0, 6),
    ("trunc", 9, 3, 3, 0, 3),
    ("trunc", 8, 2, 4, 0, 2),
    ("trunc", 12, 3, 1, 0, 2),
)


def _is_monomial(s: Scalar, order: int) -> bool:
    """True when s is a rational multiple of a power of zeta_order."""
    return any((s * root_of_unity(order, -k)).is_rational()
               for k in range(order))


def _entry_pool(order: int) -> list[Scalar]:
    """Small nonzero field elements; in Q(zeta_3) and Q(zeta_4) only the
    non-monomial ones a + b*zeta, so no value has the c*zeta^k form."""
    if order == 1:
        return [Scalar.from_rational(v) for v in (-2, -1, 1, 2)]
    pool = []
    for a in (-2, -1, 1, 2):
        for b in (-1, 1):
            s = Scalar.cyclotomic(order, [a, b])
            if not _is_monomial(s, order):
                pool.append(s)
    return pool


def _triangular(master: random.Random, signs: random.Random, size: int,
                pool) -> list[list[Scalar]]:
    """Lower triangular D*P: every entry of the unitriangular P below the
    diagonal is drawn from the pool by the master generator, so each change
    of basis is equally dense, and the signs D = diag(+-1) come from the
    seed.  D only rescales the new basis vectors by +-1, which flips signs
    of structure constants without changing the size of any number the
    library computes, so every seed costs the same to decide."""
    d = [signs.choice((1, -1)) for _ in range(size)]
    return [[Scalar.from_rational(d[i]) if i == j else
             (master.choice(pool) * d[i] if j < i else Scalar.zero())
             for j in range(size)] for i in range(size)]


def _inverse_triangular(M: list[list[Scalar]]) -> list[list[Scalar]]:
    """Inverse of a lower triangular matrix with diagonal entries +-1."""
    size = len(M)
    inv = [[Scalar.zero()] * size for _ in range(size)]
    for i in range(size):
        inv[i][i] = M[i][i].inverse()
        for j in range(i):
            acc = Scalar.zero()
            for k in range(j, i):
                acc = acc + M[i][k] * inv[k][j]
            inv[i][j] = -(acc * inv[i][i])
    return inv


def _change_basis(group: GradingGroup, basis, product_index, unit_index: int,
                  draw) -> GradedAlgebra:
    """Algebra with basis f_a = sum_b P[a][b] e_b inside each component,
    where e_i e_j = e_{product_index(i, j)} (or 0 when that is None) and
    draw(size) returns P for a component of that size."""
    dim = len(basis)
    components: dict[tuple, list[int]] = {}
    for idx, (_label, grade) in enumerate(basis):
        components.setdefault(grade.coords, []).append(idx)
    to_e: dict[int, dict[int, Scalar]] = {}   # f_a in the e basis
    to_f: dict[int, dict[int, Scalar]] = {}   # e_b in the f basis
    for members in components.values():
        P = draw(len(members))
        inv = _inverse_triangular(P)
        for r, a in enumerate(members):
            to_e[a] = {members[c]: P[r][c] for c in range(r + 1)}
            to_f[a] = {members[c]: inv[r][c] for c in range(r + 1)}

    def add(vec, key, value):
        val = vec[key] + value if key in vec else value
        if val.is_zero():
            vec.pop(key, None)
        else:
            vec[key] = val

    products = {}
    for a in range(dim):
        for c in range(dim):
            in_e: dict[int, Scalar] = {}
            for b, x in to_e[a].items():
                for d, y in to_e[c].items():
                    k = product_index(b, d)
                    if k is not None:
                        add(in_e, k, x * y)
            in_f: dict[int, Scalar] = {}
            for k, z in in_e.items():
                for f, w in to_f[k].items():
                    add(in_f, f, z * w)
            if in_f:
                products[(a, c)] = in_f
    return GradedAlgebra(group, basis, products, dict(to_f[unit_index]))


def quotient_graded(m: int, d: int, draw) -> GradedAlgebra:
    """kZ_m graded by Z_d through reduction mod d, after the change of
    basis draw(size) in each component."""
    group = GradingGroup(0, (d,))
    basis = [(f"g^{i}", group.element((i % d,))) for i in range(m)]
    return _change_basis(group, basis, lambda i, j: (i + j) % m, 0, draw)


def truncated_graded(m: int, d: int, draw) -> GradedAlgebra:
    """k[x]/(x^m) graded by Z_d with deg x = 1, after a change of basis."""
    group = GradingGroup(0, (d,))
    basis = [(f"x^{i}", group.element((i % d,))) for i in range(m)]
    return _change_basis(group, basis,
                         lambda i, j: i + j if i + j < m else None, 0, draw)


def dense_inputs(seed: int) -> list[Algebra]:
    """kZ_m over Z_d (strongly graded) and k[x]/(x^m) over Z_d (not
    strongly graded), each after a seeded dense change of basis.

    The basis-change entries come from one fixed master draw; the seed
    picks the sign of every new basis vector and the order of the inputs,
    so the structure constants differ between seeds but the cost of
    deciding each input does not.
    """
    rng = random.Random(seed)
    master = random.Random(0)
    out = []
    for family, m, d, order, depth, copies in DENSE_SLOTS:
        pool = _entry_pool(order)

        def draw(size, pool=pool):
            return _triangular(master, rng, size, pool)

        field = "Q" if order == 1 else f"Q(zeta_{order})"
        for copy in range(copies):
            if family == "kZ":
                out.append(Algebra(f"kZ{m}-over-Z{d}/{field}#{copy}",
                                   quotient_graded(m, d, draw), True, depth))
            else:
                out.append(Algebra(f"x^{m}-over-Z{d}/{field}#{copy}",
                                   truncated_graded(m, d, draw), False, depth))
    rng.shuffle(out)
    return out

