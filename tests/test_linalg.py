import copy
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from qgraded import linalg
from qgraded.algebras import build_truncated_poly
from qgraded.galois import canonical_map
from qgraded.linalg import (Echelon, LinearMap, echelon, kernel_basis, rref,
                            vec_add_scaled)
from qgraded.scalars import Scalar, root_of_unity


def vec(**kw):
    return {int(k[1:]): Scalar.from_rational(v) for k, v in kw.items()}


def s(x):
    return Scalar.from_rational(x)


def test_rank_of_simple_matrix():
    rows = [vec(c0=1, c1=2), vec(c1=1), vec(c0=1, c1=3)]
    assert echelon(rows).rank == 2


def test_rref_is_fully_reduced():
    rows = [vec(c0=1, c1=2, c2=3), vec(c1=1, c2=1)]
    ech = rref(rows)
    for p, row in ech.pivot_rows.items():
        for c in row:
            assert c == p or c not in ech.pivot_rows


def test_kernel_vectors_annihilate():
    rows = [vec(c0=1, c1=2, c2=3), vec(c0=2, c1=4, c2=7)]
    kernel = kernel_basis(rows, 3)
    assert len(kernel) == 1
    for row in rows:
        total = Scalar.zero()
        for c, x in kernel[0].items():
            total = total + row.get(c, Scalar.zero()) * x
        assert total.is_zero()


def test_rank_nullity():
    rows = [vec(c0=1, c2=1), vec(c1=1, c3=2), vec(c0=1, c1=1, c2=1, c3=2)]
    assert echelon(rows).rank + len(kernel_basis(rows, 5)) == 5


def test_contains_membership():
    ech = Echelon()
    ech.add(vec(c0=1, c1=1))
    ech.add(vec(c1=1, c2=1))
    assert ech.contains(vec(c0=1, c2=-1))
    assert not ech.contains(vec(c0=1, c2=1))


def test_add_stores_a_lone_entry_as_one_without_inverting(monkeypatch):
    inverses = []
    inverse = Scalar.inverse

    def counting(self):
        inverses.append(self)
        return inverse(self)

    monkeypatch.setattr(Scalar, "inverse", counting)
    ech = Echelon()
    assert ech.add({3: Scalar.cyclotomic(3, [2, 1])})
    assert ech.pivot_rows == {3: {3: Scalar.one()}}
    assert inverses == []
    # several entries: one inverse, and the pivot entry keeps its place
    assert ech.add({5: s(1), 1: s(2), 4: s(3)})
    assert list(ech.pivot_rows[1].items()) == [(5, s(Fraction(1, 2))),
                                               (1, s(1)), (4, s(Fraction(3, 2)))]
    assert len(inverses) == 1


def test_add_reports_rank_growth():
    ech = Echelon()
    assert ech.add(vec(c0=1))
    assert not ech.add(vec(c0=5))
    assert ech.add(vec(c1=1))
    assert ech.rank == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-4, max_value=4,
                                      max_denominator=5),
                         min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_agrees_with_dense_fraction_elimination(raw):
    rows = [{i: Scalar.from_rational(x) for i, x in enumerate(r) if x != 0}
            for r in raw]
    # dense oracle over plain Fractions
    dense = [list(map(Fraction, r)) for r in raw]
    r = 0
    for col in range(4):
        piv = next((i for i in range(r, len(dense)) if dense[i][col] != 0), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        for i in range(len(dense)):
            if i != r and dense[i][col] != 0:
                f = dense[i][col] / dense[r][col]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        r += 1
    assert echelon(rows).rank == r
    # every kernel vector annihilates every row
    for v in kernel_basis(rows, 4):
        for row in rows:
            total = Scalar.zero()
            for c, x in v.items():
                total = total + row.get(c, Scalar.zero()) * x
            assert total.is_zero()


@st.composite
def cyclotomic_matrices(draw):
    """Up to 4 drawn rows of 4 entries in Q(zeta_n), n in {3, 4, 8}, plus a
    combination of two of them, so that some matrices are rank deficient."""
    n = draw(st.sampled_from([3, 4, 8]))
    entry = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
        lambda coeffs: Scalar.cyclotomic(n, coeffs))
    rows = draw(st.lists(st.lists(entry, min_size=4, max_size=4),
                         min_size=1, max_size=4))
    a, b = draw(entry), draw(entry)
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows) - 1))
    return rows + [[a * x + b * y for x, y in zip(rows[i], rows[j])]]


def _dense_rank(dense: list[list[Scalar]]) -> int:
    """Rank by dense Gauss-Jordan elimination in Scalar arithmetic."""
    dense = [list(r) for r in dense]
    r = 0
    for col in range(len(dense[0])):
        piv = next((i for i in range(r, len(dense))
                    if not dense[i][col].is_zero()), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = dense[r][col].inverse()
        for i in range(len(dense)):
            if i != r and not dense[i][col].is_zero():
                f = dense[i][col] * inv
                dense[i] = [x - f * y for x, y in zip(dense[i], dense[r])]
        r += 1
    return r


_I = root_of_unity(4)


def _scanned_kernel(pivot_rows, ncols):
    """The kernel vectors, keys in order, by scanning every pivot row for
    each free column f: f first, then -row[f] at each pivot in row order."""
    return [[(f, Scalar.one())] + [(p, -row[f]) for p, row in pivot_rows.items() if f in row]
            for f in range(ncols) if f not in pivot_rows]



@settings(max_examples=40, deadline=None)
@given(cyclotomic_matrices())
# rank 1 over Q(i) (row 2 is i * row 1), rank 2 over any real field
@example([[Scalar.one(), _I], [_I, Scalar.from_rational(-1)]])
def test_rank_over_cyclotomic_fields_agrees_with_dense_elimination(dense):
    rows = [{i: x for i, x in enumerate(r) if not x.is_zero()} for r in dense]
    assert echelon(rows).rank == _dense_rank(dense)
    kernel = kernel_basis(rows, len(dense[0]))
    for v in kernel:
        for row in rows:
            total = Scalar.zero()
            for c, x in v.items():
                total = total + row.get(c, Scalar.zero()) * x
            assert total.is_zero()
    assert [list(v.items()) for v in kernel] == _scanned_kernel(rref(rows).pivot_rows,
                                                                len(dense[0]))


def test_linear_map_bijectivity():
    good = LinearMap(2, [vec(c1=1), vec(c0=2)])
    assert good.is_bijective()
    bad = LinearMap(2, [vec(c0=1), vec(c0=2)])
    assert not bad.is_bijective()
    assert bad.rank() == 1
    kernel = bad.kernel()
    assert len(kernel) == 1


def _monomial_map(rng):
    """A map with at most one entry per column: empty columns, several
    columns on one row and rows hit by none, with rational, zeta_3 and
    zeta_4 values."""
    values = [s(1), s(-2), s(Fraction(3, 5)), root_of_unity(3),
              Scalar.cyclotomic(3, [2, 1]), root_of_unity(4),
              Scalar.cyclotomic(4, [1, -1])]
    rows = rng.randint(1, 8)
    columns = [{} if rng.random() < 0.2 else
               {rng.randrange(rows): rng.choice(values)}
               for _ in range(rng.randint(0, 10))]
    return LinearMap(rows, columns)


def test_rank_of_a_monomial_map_counts_the_rows_it_hits():
    rng = random.Random(20260)
    maps = [_monomial_map(rng) for _ in range(300)]
    for bmap in maps:
        assert bmap.rank() == bmap.image_echelon().rank
    # the draw covers the cases where counting columns or entries is wrong
    assert any(bmap.rank() < sum(map(len, bmap.columns)) for bmap in maps)
    assert any({} in bmap.columns for bmap in maps)
    assert any(bmap.is_bijective() for bmap in maps)


def test_rank_counts_without_elimination_only_on_monomial_maps(monkeypatch):
    adds = []
    add = Echelon.add

    def counting(self, row):
        adds.append(row)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting)
    z3 = root_of_unity(3)
    assert LinearMap(3, [{2: z3}, {0: s(2)}, {2: s(1)}, {}]).rank() == 2
    assert adds == []
    # one two-entry column: three rows are hit, but the rank is 2
    assert LinearMap(3, [{0: s(1), 1: z3}, {2: z3}, {2: s(1)}]).rank() == 2
    assert len(adds) == 3


def test_vec_add_scaled_drops_zeros():
    dst = vec(c0=1, c1=2)
    src = vec(c0=1, c2=3)
    out = vec_add_scaled(dst, src, s(-1))
    assert out is dst  # mutated in place and returned
    assert dst == vec(c1=2, c2=-3)  # the cancelled key is gone
    assert src == vec(c0=1, c2=3)
    # cyclotomic entries cancel through the fused update as well, one of
    # them only after zeta_3^3 folds to the rational 1
    z3 = root_of_unity(3)
    dst = {0: z3, 1: s(1), 2: s(5)}
    out = vec_add_scaled(dst, {0: z3 ** 2, 1: z3}, -(z3 ** 2))
    assert out is dst and dst == {2: s(5)}


def test_reduce_leaves_its_argument_unchanged():
    ech = Echelon()
    ech.add(vec(c0=1, c1=1))
    row = vec(c0=2, c1=1, c2=1)
    residue = ech.reduce(row)
    assert residue == vec(c1=-1, c2=1)
    assert row == vec(c0=2, c1=1, c2=1)


# sparse rows over five columns, many with a single entry: those reduce
# without any elimination step and take the lone-pivot path of `add`
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4)
                    .filter(bool).map(Scalar.from_rational),
                    min_size=0, max_size=3),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(sparse_rows)
@example([vec(c2=1), vec(c2=3), vec(c0=1, c2=2), {}])
def test_elimination_never_changes_or_stores_its_input_rows(rows):
    before = copy.deepcopy(rows)
    ids = {id(r) for r in rows}
    built = [echelon(rows), rref(rows)]
    ech = Echelon()
    for row in rows:
        ech.contains(row)
        ech.add(row)
        ech.contains(row)
    built.append(ech)
    assert rows == before
    for e in built:
        assert not ids & {id(p) for p in e.pivot_rows.values()}


class _CountingRow(dict):
    """A pivot row that counts the entries it is asked for, one by one."""

    def __init__(self, row, counter):
        super().__init__(row)
        self.counter = counter

    def get(self, *args):
        self.counter[0] += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.counter[0] += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.counter[0] += 1
        return super().__contains__(key)

    def items(self):
        for item in super().items():
            self.counter[0] += 1
            yield item


def test_kernel_reads_each_pivot_row_entry_about_once(monkeypatch):
    # beta of k[x]/(x^64) over Z_64: every free column's vector used to scan
    # every pivot row, (free columns) x (pivot rows) lookups in all
    beta = canonical_map(build_truncated_poly(64))
    counter, rows = [0], {}

    def counted_rref(given):
        ech = rref(given)
        ech.pivot_rows = {p: _CountingRow(row, counter) for p, row in ech.pivot_rows.items()}
        rows.update(ech.pivot_rows)
        return ech

    monkeypatch.setattr(linalg, "rref", counted_rref)
    kernel = beta.kernel()
    nnz = sum(len(row) for row in rows.values())
    free = beta.domain_dim - len(rows)
    assert len(kernel) == free and free * len(rows) > 100 * nnz
    assert counter[0] <= 2 * nnz
    assert [list(v.items()) for v in kernel] == _scanned_kernel(rows, beta.domain_dim)
