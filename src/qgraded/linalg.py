"""Exact sparse linear algebra over scalars.

Vectors are dicts mapping column index to a nonzero Scalar.  Elimination
keeps a forward echelon (each pivot row normalized, leading at its
pivot), which decides rank and span membership incrementally; a single
backward pass (`finalize`) upgrades it to fully reduced form when kernels
or quotient projections are needed.  Pivots are the smallest columns, so
every result is deterministic.
"""

from __future__ import annotations

from typing import Iterable

from .scalars import Scalar

Vec = dict[int, Scalar]


def vec_is_zero(v: Vec) -> bool:
    return not v


def vec_scale(v: Vec, c: Scalar) -> Vec:
    if c.is_zero():
        return {}
    return {k: c * x for k, x in v.items()}


def vec_add_scaled(dst: Vec, src: Vec, c: Scalar) -> Vec:
    """dst + c*src as a new dict with zero entries dropped."""
    out = dict(dst)
    for k, x in src.items():
        val = out.get(k)
        val = c * x if val is None else val + c * x
        if val.is_zero():
            out.pop(k, None)
        else:
            out[k] = val
    return out


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
        lies in the row space."""
        row = dict(row)
        while row:
            lead = min(row)
            prow = self.pivot_rows.get(lead)
            if prow is None:
                return row
            row = vec_add_scaled(row, prow, -row[lead])
        return row

    def contains(self, row: Vec) -> bool:
        return vec_is_zero(self.reduce(row))

    def add(self, row: Vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        row = self.reduce(row)
        if vec_is_zero(row):
            return False
        pivot = min(row)
        inv = row[pivot].inverse()
        row = vec_scale(row, inv)
        row[pivot] = Scalar.one()
        self.pivot_rows[pivot] = row
        if len(row) > 1:
            self._reduced = False
        return True

    def finalize(self):
        """Backward pass: eliminate every pivot column from other rows,
        giving the fully reduced form required by kernel and projection."""
        if self._reduced:
            return
        for p in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[p]
            for c in sorted(k for k in row if k != p and k in self.pivot_rows):
                x = row.get(c)
                if x is not None and not x.is_zero():
                    row = vec_add_scaled(row, self.pivot_rows[c], -x)
            self.pivot_rows[p] = row
        self._reduced = True


def rref(rows: Iterable[Vec]) -> Echelon:
    """Fully reduced echelon of the given rows."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    ech.finalize()
    return ech


def rank(rows: Iterable[Vec]) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def kernel_basis(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Basis of {x : Mx = 0} for the matrix whose rows are given."""
    ech = rref(rows)
    free = [c for c in range(ncols) if c not in ech.pivot_rows]
    out = []
    for f in free:
        v: Vec = {f: Scalar.one()}
        for p, prow in ech.pivot_rows.items():
            c = prow.get(f)
            if c is not None:
                v[p] = -c
        out.append(v)
    return out


class LinearMap:
    """Exact linear map between labeled finite-dimensional spaces."""

    def __init__(self, domain_labels: list, codomain_labels: list,
                 columns: list[Vec]):
        assert len(columns) == len(domain_labels)
        self.domain_labels = domain_labels
        self.codomain_labels = codomain_labels
        self.columns = columns

    @property
    def domain_dim(self) -> int:
        return len(self.domain_labels)

    @property
    def codomain_dim(self) -> int:
        return len(self.codomain_labels)

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for j, c in vec.items():
            out = vec_add_scaled(out, self.columns[j], c)
        return out

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self o inner."""
        assert inner.codomain_dim == self.domain_dim
        cols = [self.apply(col) for col in inner.columns]
        return LinearMap(inner.domain_labels, self.codomain_labels, cols)

    def rows(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.codomain_dim)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                out[i][j] = c
        return out

    def rank(self) -> int:
        return rank(self.columns)

    def kernel(self) -> list[Vec]:
        return kernel_basis(self.rows(), self.domain_dim)

    def image_echelon(self) -> Echelon:
        ech = Echelon()
        for col in self.columns:
            ech.add(col)
        return ech

    def is_bijective(self) -> bool:
        return (self.domain_dim == self.codomain_dim
                and self.rank() == self.domain_dim)

    def equal_matrix(self, other: "LinearMap") -> bool:
        return self.columns == other.columns
