"""Commutation factors: bicharacters G x G -> k\\{0} on a grading group.

A factor is generated from an integer symmetric matrix `sigma`, an integer
antisymmetric matrix `omega` and a nonzero scalar `q` via the generator
values b(xi_i, xi_j) = (-1)^sigma_ij * q^omega_ij, extended to all of
G x G bimultiplicatively: b(g, h) = (-1)^(g sigma h) * q^(g omega h).
These are exactly the coquasitriangular structures on the group algebra
kG for abelian G.
"""

from __future__ import annotations

import itertools

from .errors import GroupMismatchError
from .groups import GradingGroup, GroupElement
from .reports import CheckReport
from .scalars import Scalar


def _is_root_of_unity(q: Scalar) -> bool:
    """Kronecker's test (the field being abelian): den == 1 and q * conj(q) = 1."""
    n, k = q.order, len(q.nums)
    conj = Scalar.cyclotomic(n, [q.nums[-j % n] if -j % n < k else 0 for j in range(n)])
    return q.den == 1 and (q * conj).is_one()


def _exponent(entries, g, h) -> int:
    """g m h = sum of m_ij * g_i * h_j, for m given by its nonzero entries."""
    return sum(x * g[i] * h[j] for i, j, x in entries)


class CommutationFactor:
    """Bicharacter on a grading group, determined by (sigma, omega, q).

    Construction validates symmetry of sigma, antisymmetry of omega,
    q != 0, and the well-definedness condition b(xi_i, xi_j)^{n_i} = 1
    on every generator pair.  The powers of q it takes are memoised;
    sigma, omega and q are fixed at construction.
    """

    def __init__(self, group: GradingGroup, sigma, omega, q: Scalar):
        n = group.ngens
        sigma = tuple(tuple(int(x) % 2 for x in row) for row in sigma)
        omega = tuple(tuple(int(x) for x in row) for row in omega)
        if len(sigma) != n or any(len(r) != n for r in sigma):
            raise ValueError(f"sigma must be {n}x{n}")
        if len(omega) != n or any(len(r) != n for r in omega):
            raise ValueError(f"omega must be {n}x{n}")
        for i in range(n):
            for j in range(n):
                if sigma[i][j] != sigma[j][i]:
                    raise ValueError(f"sigma must be symmetric, differs at ({i},{j})")
                if omega[i][j] != -omega[j][i]:
                    raise ValueError(f"omega must be antisymmetric, differs at ({i},{j})")
        if not isinstance(q, Scalar):
            q = Scalar.from_rational(q)
        if q.is_zero():
            raise ValueError("q must be nonzero")
        self.group = group
        self.sigma = sigma
        self.omega = omega
        self.q = q
        # each matrix by its nonzero entries (i, j, m_ij)
        self._sigma_entries, self._omega_entries = (
            tuple((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x)
            for m in (sigma, omega))
        # the crossing cocycle's matrices: the strict lower triangles (i > j)
        self._sigma_lower, self._omega_lower = (
            tuple(e for e in entries if e[0] > e[1])
            for entries in (self._sigma_entries, self._omega_entries))
        self._powers: dict[int, Scalar] = {0: Scalar.one(), 1: q}
        # b(xi_i, xi_j)^n_i == 1, with no power above 2m for a value in
        # Q(zeta_m): a value that is no root of unity has no power 1, a root
        # of unity one whose order divides 2m; so a q that is no root of
        # unity is refused at an omega_ij != 0 before any power of it is taken
        rooted = not any(map(any, omega)) or _is_root_of_unity(q)
        for i, n_i in enumerate(group.torsion):
            for j in range(n):
                x = None if omega[i][j] and not rooted else self.generator_value(i, j)
                if x is None or not (x ** (n_i % (2 * x.order))).is_one():
                    raise ValueError(
                        f"factor is not well-defined on torsion coordinate {i} "
                        f"(modulus {n_i}): b(gen {i}, gen {j})^{n_i} != 1")

    def _value(self, s: int, w: int) -> Scalar:
        """(-1)^s * q^w, the one rule for b's values; a negative w takes
        its power of the one inverse of q."""
        power = self._powers.get(w)
        if power is None:
            if w < 0 and -1 not in self._powers:
                self._powers[-1] = self.q.inverse()
            power = self._powers[w] = self._powers[1 if w > 0 else -1] ** abs(w)
        return -power if s % 2 else power

    def generator_value(self, i: int, j: int) -> Scalar:
        """b on the (i, j) generator pair."""
        return self._value(self.sigma[i][j], self.omega[i][j])

    def evaluate(self, g: GroupElement, h: GroupElement) -> Scalar:
        """b(g, h), the bimultiplicative extension of the generator values."""
        if g.group != self.group or h.group != self.group:
            raise GroupMismatchError("elements do not belong to the factor's group")
        return self._value(_exponent(self._sigma_entries, g.coords, h.coords),
                           _exponent(self._omega_entries, g.coords, h.coords))

    def crossing_cocycle(self, g_coords, h_coords) -> Scalar:
        """The cocycle of the ordered monomials: b on the crossing generator
        pairs (i > j) only, that is the same rule on the lower triangles."""
        return self._value(_exponent(self._sigma_lower, g_coords, h_coords),
                           _exponent(self._omega_lower, g_coords, h_coords))

    def __repr__(self):
        return (f"CommutationFactor(group={self.group}, sigma={self.sigma}, "
                f"omega={self.omega}, q={self.q})")


def standard_factor(group: GradingGroup, sigma, omega, q) -> CommutationFactor:
    """Factor with generator values (-1)^sigma_ij * q^omega_ij."""
    return CommutationFactor(group, sigma, omega, q)


def trivial_factor(group: GradingGroup) -> CommutationFactor:
    n = group.ngens
    zero = [[0] * n for _ in range(n)]
    return CommutationFactor(group, zero, zero, Scalar.one())


def check_cqt_axioms(b: CommutationFactor) -> CheckReport:
    """Verify the coquasitriangularity laws of a factor on element triples.

    The commutation identity compares b(h,k)*(kh) with (hk)*b(h,k) inside
    kG; on group-likes the scalar cancels and it reduces to k + h = h + k,
    which is what the report checks.  The two bimultiplicativity laws run over
    the triples of a sample, the binary laws (commutation identity,
    pointwise convolution invertibility) over all its pairs.  The sample
    is `GradingGroup.sample`.

    On the whole group the right law is proved (`CheckReport.check`) on
    the triples with l in {0} and the generators, the left law on those with
    k there: the l that hold for all h, k are closed under +, as
    b(h, k+l+l') = b(h, k+l) b(h,l') = b(h,k) b(h,l) b(h,l') = b(h,k) b(h,l+l'),
    so they are the whole group.  Otherwise all triples run in (h, k, l) order.

    The cube runs on ids, positions in the sample with sums outside it after
    it.  Each b(x, y) with x or y in the sample is evaluated once
    and interned by its stored form, products are memoised on pairs of value
    ids, and differing ids are confirmed by Scalar equality (one form per order).
    """
    els = b.group.sample()
    n, ids = len(els), {g: i for i, g in enumerate(els)}
    add = [[ids.setdefault(h + k, len(ids)) for k in els] for h in els]
    pts = list(ids)
    vals, vid, prod = [], {}, {}  # value id -> Scalar, stored form -> id, products

    def intern(s: Scalar) -> int:
        i = vid.setdefault((s.order, s.nums, s.den), len(vals))
        if i == len(vals):
            vals.append(s)
        return i

    bt = [[intern(b.evaluate(x, y)) if i < n or j < n else None
           for j, y in enumerate(pts)] for i, x in enumerate(pts)]

    def fails(lhs: int, u: int, v: int) -> bool:  # value lhs != value u * value v
        p = prod.get((u, v))
        if p is None:
            p = prod[u, v] = intern(vals[u] * vals[v])
        return p != lhs and vals[p] != vals[lhs]

    def right(ls):
        return (f"({els[h]}, {els[k]}, {els[l]})"
                for h, k, l in itertools.product(range(n), range(n), ls)
                if fails(bt[h][add[k][l]], bt[h][k], bt[h][l]))

    def left(ks):
        return (f"({els[h]}, {els[k]}, {els[l]})"
                for h, k, l in itertools.product(range(n), ks, range(n))
                if fails(bt[add[h][k]][l], bt[h][l], bt[k][l]))

    proved = b.group.is_whole(els)
    ends = [ids[g] for g in [b.group.identity()] + b.group.generators()]
    report = CheckReport()
    report.check("cqt.commutation-identity",
                 (f"({els[h]}, {els[k]})" for h, k in itertools.product(range(n), repeat=2)
                  if add[k][h] != add[h][k]),
                 note="on group-likes this reduces to commutativity of the grading group")
    report.check("cqt.bimultiplicative-right", right(range(n)),
                 note="b(h, k+l) = b(h,k) b(h,l)", proof=right(ends) if proved else None)
    report.check("cqt.bimultiplicative-left", left(range(n)),
                 note="b(h+k, l) = b(h,l) b(k,l)", proof=left(ends) if proved else None)
    report.check("cqt.convolution-invertible",
                 (f"({els[h]}, {els[k]})" for h, k in itertools.product(range(n), repeat=2)
                  if vals[bt[h][k]].is_zero()),
                 note="all values nonzero; q restricted to exact cyclotomic scalars")
    return report
