"""Exact sparse linear algebra over scalars.

Vectors are dicts mapping column index to a nonzero Scalar.  Every
accumulation into a sparse vector goes through `vec_add_at(dst, key, a, b)`,
dst[key] += a*b (or += a without b), which works in place: it mutates only
the dict it is given, and that dict must belong to the caller
(`vec_add_scaled` likewise mutates and returns `dst`, never `src`).  A
caller passes a product's factors, so that an update to an existing entry
is one `Scalar.add_product`: one normalisation and one new object whenever
the fields allow.  A loop whose factors repeat stores a key's first term
directly, as the product from a `scalars.product_memo` made for that loop
(nonzero, as both factors are), and passes each later term as factors.  A
caller negates a scale once per scaled vector, never once per entry.  The
primitive takes any hashable key, so other modules use it for tuple- and
group-keyed tensors too.

Elimination keeps a forward echelon (each pivot row normalized, leading
at its pivot), which decides rank and span membership incrementally; a
single backward pass (`finalize`, through `rref`) upgrades it to the unique
fully reduced form for a kernel or at a quotient's first projection.
Pivots are the smallest columns, so every result is deterministic.  A map
whose columns each hold at most one entry (a monomial map) is ranked
without elimination: columns on one row are parallel and columns on
different rows independent, so its rank is the number of distinct rows hit.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .scalars import Scalar

Vec = dict[int, Scalar]


def vec_add_at(dst: dict, key: Hashable, a: Scalar, b: Scalar | None = None):
    """dst[key] += a*b, or += a when b is None, in place, dropping the
    entry if it cancels."""
    prev = dst.get(key)
    if b is not None:
        value = a * b if prev is None else prev.add_product(a, b)
    else:
        value = a if prev is None else prev + a
    if value.is_zero():
        dst.pop(key, None)
    else:
        dst[key] = value


def vec_add_scaled(dst: Vec, src: Vec, c: Scalar) -> Vec:
    """dst += c*src in place, zero entries dropped; returns dst."""
    for k, x in src.items():
        vec_add_at(dst, k, c, x)
    return dst


def _eliminate(row: Vec, prow: Vec, col: int):
    """row -= row[col] * prow for prow[col] == 1: the entry at col is popped."""
    minus_x = -row.pop(col)
    for k, y in prow.items():
        if k != col:
            vec_add_at(row, k, minus_x, y)


class Echelon:
    """Incremental row echelon form with smallest-column pivots."""

    def __init__(self):
        self.pivot_rows: dict[int, Vec] = {}  # pivot column -> row, row[pivot] == 1
        self._reduced = True  # vacuously, until a row survives below another pivot

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: Vec) -> Vec:
        """Forward-eliminate a vector; the residue is zero iff the vector
        lies in the row space.  The argument is copied before the first
        elimination step, so it stays unchanged and may be the residue."""
        owned = False
        while row:
            lead = min(row)
            prow = self.pivot_rows.get(lead)
            if prow is None:
                return row
            if not owned:
                row, owned = dict(row), True
            _eliminate(row, prow, lead)
        return row

    def contains(self, row: Vec) -> bool:
        return not self.reduce(row)

    def add(self, row: Vec) -> bool:
        """Insert a vector; returns True if it enlarged the span.  The
        stored pivot row is always a new dict, never the caller's."""
        row = self.reduce(row)
        if not row:
            return False
        pivot = min(row)
        if len(row) == 1:
            # a lone entry normalizes to exactly {pivot: 1}, so no inverse
            # is needed
            row = {pivot: Scalar.one()}
        else:
            inv = row[pivot].inverse()
            row = {k: Scalar.one() if k == pivot else inv * x
                   for k, x in row.items()}
            self._reduced = False
        self.pivot_rows[pivot] = row
        return True

    def finalize(self):
        """Backward pass: eliminate every pivot column from other rows,
        giving the fully reduced form required by kernel and projection."""
        if self._reduced:
            return
        for p in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[p]
            for c in sorted(k for k in row if k != p and k in self.pivot_rows):
                if c in row:
                    _eliminate(row, self.pivot_rows[c], c)
        self._reduced = True


def echelon(rows: Iterable[Vec]) -> Echelon:
    """Forward echelon of the given rows."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech


def rref(rows: Iterable[Vec]) -> Echelon:
    """Fully reduced echelon of the given rows."""
    ech = echelon(rows)
    ech.finalize()
    return ech


def kernel_basis(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Basis of {x : Mx = 0} for the matrix whose rows are given."""
    ech = rref(rows)
    # one vector per free column f: f first, then -prow[f] at each pivot p in
    # pivot-row order, filled by one pass over the rows' entries
    out: dict[int, Vec] = {f: {f: Scalar.one()} for f in range(ncols)
                           if f not in ech.pivot_rows}
    for p, prow in ech.pivot_rows.items():
        for c, x in prow.items():
            if c != p:
                out[c][p] = -x
    return list(out.values())


class LinearMap:
    """Exact linear map k^domain_dim -> k^codomain_dim by its sparse columns."""

    def __init__(self, codomain_dim: int, columns: list[Vec]):
        self.codomain_dim = codomain_dim
        self.columns = columns

    @property
    def domain_dim(self) -> int:
        return len(self.columns)

    def rows(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.codomain_dim)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                out[i][j] = c
        return out

    def is_monomial(self) -> bool:
        """Whether every column holds at most one entry."""
        return max(map(len, self.columns), default=0) <= 1

    def rank(self) -> int:
        """A monomial map has rank the number of distinct rows its columns
        hit; any other is eliminated."""
        if not self.is_monomial():
            return self.image_echelon().rank
        return len(set().union(*self.columns))

    def kernel(self) -> list[Vec]:
        return kernel_basis(self.rows(), self.domain_dim)

    def image_echelon(self) -> Echelon:
        """Forward echelon of the columns: its rank is the map's rank and
        its missing pivots are codomain vectors outside the image."""
        return echelon(self.columns)

    def is_bijective(self) -> bool:
        return (self.domain_dim == self.codomain_dim
                and self.rank() == self.domain_dim)
