"""Matrices over the exact scalar ring, and the signed monomials among them.

``Matrix`` is the exact matrix type.  It keeps its nonempty rows only,
as a {row: {column: Scalar}} dict of their nonzero entries, rows and
columns in increasing order, with the number of rows beside it.  Sums,
products, negation, transposition and comparison cost O(nnz) at any
dimension and never scan a zero, and entries that cancel are dropped, so
equal matrices have equal rows.  The dense ``rows`` view is built on
demand for elimination and the tests.  JSON holds the nonzero entries
only: {"shape": [nrows, ncols], "entries": [[i, j, value], ...]}.
The dimension cap (``max_dimension``) bounds only what lists dim-many
entries: a Monomial's rows and the shape of a JSON matrix.

Two subclasses are kept as their structure, and their rows are derived
only when someone reads them:

* A spinor index is a bitcode, so every basis operator of the chiral
  construction (gammas, metrics, kappa, Gamma, C and blades) is a signed
  monomial: each row holds at most one nonzero, a unit i**p * sqrt2**e.
  Under Jordan-Wigner each is a masked Pauli string i**p * sqrt2**e *
  X**x Z**z P(m, v): two bitcodes, a projector onto the indices whose
  bits in m read v, and a phase.  A ``Monomial`` is that Matrix, stored
  as those words.  Its negation, transpose, conjugate, scaling
  by a unit, comparison and product with another Monomial are a few
  integer operations whatever the dimension, and its nonzero entries
  are listed from the words.  Its rows are built on each read and never
  kept, so a cache of operators holds words only.
* A column times a row, each with two nonzeros or more, is kept as its
  factors: an ``OuterProduct`` u v, whose rows are the product's, built
  on first read.  Negation and nonzero scaling act on v, transposition
  and ``sandwich`` on both factors ((A u*) (v* B)), a product with a
  Matrix or an operator on one ((u v) M = u (v M), M (u v) = (M u) v,
  u v u' v' = u (v u') v'), the trace is v u, and two of them compare
  by the row and the column through a nonzero entry, so each costs
  O(dim) or the nonzeros of the other operand instead of dim**2
  entries.

The arithmetic has three kernels, none of which multiplies two Scalars:

* ``sandwich`` computes A @ m @ B, or A @ conj(m) @ B, for monomials A
  and B (either may be absent) in one pass over m's nonzeros: each entry
  is moved to its place and multiplied once by the product of its units,
  with the conjugation folded in (``Scalar.times_unit``); for e = 0 that
  only permutes and negates the numerators, and an entry whose unit is 1
  is shared.  A product of a Monomial with any other Matrix,
  ``Matrix.conj`` and ``symmetry.conjugate`` (C psi*, C m* C^dagger)
  all run on it;
* ``_times_row`` multiplies one Scalar into a row by the
  Q(i, sqrt2) product formula on raw numerators, one normalised Scalar
  per entry.  ``Matrix.scale`` by a non-unit and every product row with
  a single term per entry (each row of an outer product) run on it;
* in the remaining products every term's numerators come from the same
  formula, scaled to one common denominator per output row, and are
  summed per output entry; each nonzero sum becomes one Scalar,
  normalised once.

Every entry is an exact Scalar; float work, such as a rotor at an angle
outside the quarter turns, runs on numpy arrays.  ``to_numpy`` gives a
Matrix's array, and a Monomial multiplies an array on either side by
index (``Monomial @ array``, ``array @ Monomial``), moving its rows or
columns and scaling them by the units, with no dense copy of its own.
Any other Matrix times an array, on either side, is a TypeError.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from math import lcm

from .scalars import ONE, ZERO, Scalar, _coerce, _normalised, unit


DEFAULT_MAX_DIM = 256

_MINUS_ONE = -ONE


def max_dimension():
    """Matrix dimension cap; override with the SGA_MAX_DIM environment variable.

    Unset or empty gives the default; anything but an integer of at least 1
    is a ValueError that names the variable.
    """
    value = os.environ.get("SGA_MAX_DIM")
    if not value:
        return DEFAULT_MAX_DIM
    try:
        if int(value) >= 1:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"SGA_MAX_DIM must be an integer of at least 1, not {value!r:.30}")


def _unit_exponents(s):
    """(p, e) with nonzero s = i**p * sqrt2**e, or None if s is no such unit."""
    parts = (s.a, s.b, s.c, s.d)
    nonzero = [k for k, n in enumerate(parts) if n]
    if len(nonzero) != 1:
        return None
    [k] = nonzero
    n, q = abs(parts[k]), s.q
    if n & (n - 1) or q & (q - 1):  # not both powers of two
        return None
    return (k >> 1) + (2 if parts[k] < 0 else 0), 2 * (n.bit_length() - q.bit_length()) + (k & 1)


def _canonical(acc):
    """A row dict with its zero entries dropped and its columns in increasing order."""
    if len(acc) == 1:
        [s] = acc.values()
        return {} if s.is_zero() else acc
    return {j: acc[j] for j in sorted(acc) if not acc[j].is_zero()}


class Matrix:
    __slots__ = ("sparse_rows", "nrows", "ncols")
    # numpy defers every operator to this class, so array @ Matrix calls __rmatmul__, which
    # only a Monomial has: it acts on the array by index, and any other Matrix is a TypeError
    __array_ufunc__ = None

    def __init__(self, rows, nrows=None, ncols=None):
        """A matrix from dense rows of Scalars, or Matrix(rows, nrows, ncols) from sparse rows.

        Sparse ``rows`` is a {row: {column: Scalar}} dict of the nonempty
        rows and their nonzero entries only, rows and columns in increasing
        order, kept as it is.  Either way the rows are read-only from then on.
        """
        if nrows is None:
            dense = [tuple(r) for r in rows]
            nrows, ncols = len(dense), len(dense[0]) if dense else 0
            for r in dense:
                if len(r) != ncols:
                    raise ValueError("ragged matrix rows")
            rows = {i: row for i, r in enumerate(dense)
                    if (row := {j: s for j, s in enumerate(r) if not s.is_zero()})}
        self.sparse_rows = rows
        self.nrows = nrows
        self.ncols = ncols

    # -- constructors --------------------------------------------------
    # each builds a plain Matrix, also when a subclass inherits it

    @classmethod
    def zeros(cls, nrows, ncols=None):
        return Matrix({}, nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, n):
        return Matrix.diagonal([ONE] * n)

    @classmethod
    def diagonal(cls, entries):
        return Matrix({i: {i: s} for i, s in enumerate(entries) if not s.is_zero()}, len(entries), len(entries))

    @classmethod
    def column(cls, entries):
        """The len(entries) x 1 matrix of `entries`, its nonzero ones written straight into sparse rows."""
        entries = list(entries)
        return Matrix({i: {0: s} for i, s in enumerate(entries) if not s.is_zero()}, len(entries), 1)

    @classmethod
    def row_vector(cls, entries):
        """The 1 x len(entries) matrix of `entries`, its nonzero ones written straight into a sparse row."""
        entries = list(entries)
        row = {j: s for j, s in enumerate(entries) if not s.is_zero()}
        return Matrix({0: row} if row else {}, 1, len(entries))

    @classmethod
    def unit_column(cls, dim, index):
        if not 0 <= index < dim:
            raise IndexError("unit column index out of range")
        return Matrix({index: {0: ONE}}, dim, 1)

    @classmethod
    def from_items(cls, nrows, ncols, items):
        """The matrix whose (i, j) entry is the sum of the values given for it in (i, j, value) items."""
        rows = {}
        for i, j, v in items:
            row = rows.get(i)
            if row is None:
                rows[i] = {j: v}
            else:
                row[j] = row[j] + v if j in row else v
        out = {i: row for i in sorted(rows) if 0 <= i < nrows and (row := _canonical(rows[i]))}
        return Matrix(out, nrows, ncols)

    # -- shape ----------------------------------------------------------

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def dim(self):
        if not self.is_square:
            raise ValueError("dim of a non-square matrix")
        return self.nrows

    @property
    def rows(self):
        """Dense read-only view: a tuple of row tuples, zeros included."""
        rows, cols = self.sparse_rows, range(self.ncols)
        return tuple(tuple(rows[i].get(j, ZERO) for j in cols) if i in rows else (ZERO,) * self.ncols
                     for i in range(self.nrows))

    def __getitem__(self, key):
        i, j = key
        if not -self.nrows <= i < self.nrows:
            raise IndexError("matrix row index out of range")
        if not -self.ncols <= j < self.ncols:
            raise IndexError("matrix column index out of range")
        return self.sparse_rows.get(i % self.nrows, {}).get(j % self.ncols, ZERO)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other when `negate`, in one pass over the union of their rows."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"matrix shape mismatch in {'subtraction' if negate else 'addition'}")
        rows_a, rows_b, rows = self.sparse_rows, other.sparse_rows, {}
        for i in sorted(rows_a.keys() | rows_b.keys()):
            ra, rb = rows_a.get(i), rows_b.get(i)
            if rb is not None and negate:
                rb = {j: -t for j, t in rb.items()}
            if ra is None or rb is None:
                rows[i] = ra or rb
                continue
            acc = dict(ra)
            for j, t in rb.items():
                acc[j] = acc[j] + t if j in acc else t
            if row := _canonical(acc):
                rows[i] = row
        return Matrix(rows, self.nrows, self.ncols)

    def __neg__(self):
        return Matrix({i: {j: -s for j, s in r.items()} for i, r in self.sparse_rows.items()},
                      self.nrows, self.ncols)

    def scale(self, s):
        """This matrix times s: a Scalar, an int or a Fraction."""
        s = _coerce(s)
        if s is NotImplemented:
            raise TypeError("a matrix scales by a Scalar, an int or a Fraction")
        if s == ONE:
            return self
        if s == _MINUS_ONE:
            return -self
        if s.is_zero():
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix({i: _times_row(s, _numerators(r)) for i, r in self.sparse_rows.items()},
                      self.nrows, self.ncols)

    def __mul__(self, s):
        return NotImplemented if _coerce(s) is NotImplemented else self.scale(s)

    __rmul__ = __mul__

    def __matmul__(self, other):
        try:
            nrows = other.nrows
        except AttributeError:  # not a matrix: Python tries other.__rmatmul__, else raises TypeError
            return NotImplemented
        if self.ncols != nrows:
            raise ValueError("matrix shape mismatch in product")
        if self.ncols == 1 and _keeps_factors(self, other):
            return OuterProduct(self, other)
        return Matrix(_exact_product(self.sparse_rows, other.sparse_rows), self.nrows, other.ncols)

    def transpose(self):
        cols = defaultdict(dict)
        for i, row in self.sparse_rows.items():
            for j, s in row.items():
                cols[j][i] = s
        return Matrix({j: cols[j] for j in sorted(cols)}, self.ncols, self.nrows)

    def conj(self):
        """Entrywise complex conjugation with respect to i."""
        return sandwich(None, self, conj=True)

    def dagger(self):
        return self.conj().transpose()

    def trace(self):
        t = ZERO
        for i, row in self.sparse_rows.items():
            if i in row:
                t = t + row[i]
        return t

    def inverse(self):
        """Exact inverse by Gaussian elimination over the scalar field."""
        n = self.dim
        aug = [list(row) + [ONE if j == i else ZERO for j in range(n)]
               for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = aug[col][col].inverse()
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(n):
                if r != col and not aug[r][col].is_zero():
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Matrix([row[n:] for row in aug])

    def determinant(self):
        """Exact determinant by Gaussian elimination with pivoting."""
        n = self.dim
        work = [list(r) for r in self.rows]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            p = work[col][col]
            det = det * p
            inv_p = p.inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    f = work[r][col] * inv_p
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return det

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.sparse_rows

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        """The hash of (nrows, ncols, nnz, first nonzero (i, j, value) or None), which equal matrices share."""
        rows, first = self.sparse_rows, None
        if rows:
            i, row = next(iter(rows.items()))
            first = (i, *next(iter(row.items())))
        return hash((self.nrows, self.ncols, sum(map(len, rows.values())), first))

    def is_identity(self):
        rows = self.sparse_rows
        return self.is_square and len(rows) == self.nrows and all(
            len(row) == 1 and row.get(i) == ONE for i, row in rows.items())

    def scalar_multiple_of_identity(self):
        """Return s if the matrix equals s*identity, else None."""
        rows = self.sparse_rows
        if not self.is_square or len(rows) not in (0, self.nrows):
            return None
        s = rows[0].get(0) if rows else ZERO  # row 0 comes first, so a None is never compared
        for i, row in rows.items():
            if len(row) != 1 or i not in row or row[i] != s:
                return None
        return s

    def nonzero_items(self):
        """(i, j, value) of every nonzero entry, row by row, columns increasing."""
        for i, row in self.sparse_rows.items():
            for j, s in row.items():
                yield i, j, s

    # -- conversions -------------------------------------------------------

    def to_numpy(self):
        import numpy as np

        out = np.zeros((self.nrows, self.ncols), dtype=complex)
        for i, j, s in self.nonzero_items():
            out[i, j] = s.to_complex()
        return out

    def to_json(self):
        """{"shape": [nrows, ncols], "entries": [[i, j, value], ...]}.

        ``entries`` lists the nonzero entries row by row, columns increasing,
        each value a JSON scalar; a zero matrix has no entries.
        """
        return {
            "shape": [self.nrows, self.ncols],
            "entries": [[i, j, s.to_json()] for i, j, s in self.nonzero_items()],
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a JSON matrix; ValueError if it is malformed.

        Three forms are read: the sparse {"shape", "entries"} object that
        ``to_json`` writes, a dense list of rows of JSON scalars, and an
        {"entries": dense rows} object.  Sparse input is built from its
        entries alone; an (i, j) given twice is an error, not a sum, and
        neither side of its shape may exceed ``max_dimension()``.
        """
        if isinstance(obj, dict):
            if "shape" in obj:
                return Matrix._from_sparse_json(obj["shape"], obj.get("entries"))
            if "entries" not in obj:
                raise ValueError("matrix JSON object needs a 'shape' or an 'entries' key")
            obj = obj["entries"]
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError("matrix JSON must be a list of rows")
        return Matrix([[Scalar.from_json(x) for x in row] for row in obj])

    @staticmethod
    def _from_sparse_json(shape, entries):
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError("matrix JSON 'shape' must be two non-negative ints")
        cap = max_dimension()
        if max(shape) > cap:
            # input validation: bound the shape like any operator listed entry by entry
            raise ValueError(f"matrix JSON shape {shape} exceeds the dimension cap {cap}; "
                             "raise SGA_MAX_DIM to override")
        if not isinstance(entries, list):
            raise ValueError("matrix JSON 'entries' must be a list")
        nrows, ncols = shape
        rows = {}
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ValueError(f"matrix JSON entry is not an [i, j, value] triple: {entry!r:.60}")
            i, j, value = entry
            if not (type(i) is int and 0 <= i < nrows and type(j) is int and 0 <= j < ncols):
                raise ValueError(f"matrix JSON entry index ({i!r:.20}, {j!r:.20}) is not in shape {shape}")
            row = rows.setdefault(i, {})
            if j in row:
                raise ValueError(f"matrix JSON entry ({i}, {j}) is given twice")
            row[j] = Scalar.from_json(value)
        return Matrix({i: row for i in sorted(rows) if (row := _canonical(rows[i]))}, nrows, ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class OuterProduct(Matrix):
    """The rank-one matrix u @ v of a column u and a row v, kept as its two factors.

    Its rows are those of the product, built on first read and kept, so
    its values, hash, JSON and sums are those of the product Matrix.  A
    negation, nonzero scaling, transpose or sandwich acts on the factors,
    a product with a Matrix or an operator multiplies one factor, the
    trace is v @ u, and two of them compare by one row and one column.
    """

    __slots__ = ("u", "v", "_rows")

    def __init__(self, u, v):
        self.u, self.v = u, v
        self.nrows, self.ncols = u.nrows, v.ncols
        self._rows = None

    @property
    def sparse_rows(self):
        if self._rows is None:
            self._rows = _exact_product(self.u.sparse_rows, self.v.sparse_rows)
        return self._rows

    def __neg__(self):
        return OuterProduct(self.u, -self.v)

    def scale(self, s):
        t = _coerce(s)
        if t is NotImplemented or t.is_zero():
            return Matrix.scale(self, s)
        return OuterProduct(self.u, self.v.scale(t))

    def transpose(self):
        return OuterProduct(self.v.transpose(), self.u.transpose())

    def __matmul__(self, other):
        return self.u @ (self.v @ other)  # for another OuterProduct, v @ other is (v @ u') @ v'

    def __rmatmul__(self, other):
        return (other @ self.u) @ self.v

    def trace(self):
        if self.nrows != self.ncols:
            return Matrix.trace(self)
        return (self.v @ self.u)[0, 0]

    def is_zero(self):
        return self.u.is_zero() or self.v.is_zero()

    def __eq__(self, other):
        """Two rank-one matrices are equal when they agree on the row and the column through a nonzero entry of one."""
        if type(other) is not OuterProduct:
            return Matrix.__eq__(self, other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.u == other.u:  # u (v - v') is zero only if v = v'
            return self.v == other.v
        if self.v == other.v:
            return False
        col, ocol = _column(self.u), _column(other.u)
        row, orow = self.v.sparse_rows[0], other.v.sparse_rows[0]
        i, j = next(iter(col)), next(iter(row))
        if i not in ocol or j not in orow:
            return False
        return _same_products(col[i], row, ocol[i], orow) and _same_products(row[j], col, orow[j], ocol)

    __hash__ = Matrix.__hash__

    def __reduce__(self):  # copy and pickle the factors: the rows slot is read-only here
        return OuterProduct, (self.u, self.v)


def _keeps_factors(column, row):
    """True when the product column @ row is kept as an OuterProduct: two nonzeros or more each."""
    return len(row.sparse_rows.get(0, ())) > 1 and len(column.sparse_rows) > 1


def _column(m):
    """{i: entry} of the nonzero entries of a one-column matrix."""
    return {i: r[0] for i, r in m.sparse_rows.items()}


def sandwich(left, m, right=None, conj=False):
    """left @ m @ right in one pass over m's nonzeros, with m conjugated entrywise first when `conj`.

    `left` and `right` are Monomials, or None for an absent side.  Row j
    of m moves to row j ^ left.x when j & left.m == left.v (the filter
    the right side applies to the columns), column k to column
    k ^ right.x, and each entry is multiplied once, by the product of its
    two units with the conjugation folded in (``times_unit``): one
    Scalar, or the entry itself when that unit is 1 and m is not
    conjugated.  A Monomial m gives the Monomial of the word product.
    """
    if (left is not None and left.nrows != m.nrows) or (right is not None and right.nrows != m.ncols):
        raise ValueError("matrix shape mismatch in product")
    if isinstance(m, Monomial):
        if conj:
            m = m.conj()
        if left is not None:
            m = left @ m
        return m if right is None else m @ right
    if type(m) is OuterProduct:  # (A u*) (v* B)
        return OuterProduct(sandwich(left, m.u, None, conj), sandwich(None, m.v, right, conj))
    rows, out = m.sparse_rows, {}
    if left is None:
        el, sources = 0, ((i, row, 0) for i, row in rows.items())
    else:
        xl, zl, ml, vl, pl0, el = left.x, left.z, left.m, left.v, left.p, left.e
        sources = ((j ^ xl, row, pl0 ^ 2 * ((j & zl).bit_count() & 1))
                   for j, row in rows.items() if j & ml == vl)
    if right is None:
        for i, src, pl in sources:
            if pl or el:
                src = {k: s.times_unit(pl, el, conj) for k, s in src.items()}
            elif conj:
                src = {k: s.conjugate() for k, s in src.items()}
            out[i] = src  # with the unit 1 and no conjugation, the row is shared
    else:
        x, z, mask, pr0, er = right.x, right.z, right.m, right.p, right.e
        kept = right.v ^ (x & mask)  # row k of `right` is nonempty when k & mask == kept
        e = el + er
        for i, src, pl in sources:
            acc = {}
            for k, s in src.items():
                if k & mask != kept:
                    continue
                j = k ^ x
                pr = pr0 + 2 * (j & z).bit_count()
                if (pl + pr) & 3 or e or conj:
                    s = s.times_unit(pl + pr, e, conj)
                acc[j] = s
            if acc:
                out[i] = {j: acc[j] for j in sorted(acc)} if x and len(acc) > 1 else acc
    if left is not None and left.x and len(out) > 1:  # the left X flip moved the rows out of order
        out = {i: out[i] for i in sorted(out)}
    return Matrix(out, m.nrows, m.ncols if right is None else right.ncols)


def _numerators(row):
    """(j, a, b, c, d, q) of each entry of `row`, read once for every factor it meets."""
    return [(j, t.a, t.b, t.c, t.d, t.q) for j, t in row.items()]


def _same_products(s, row, t, other):
    """True when s * row == t * other for nonzero s and t, on raw product numerators cross-multiplied: no gcd."""
    return row.keys() == other.keys() and all(
        _raw_product(s, x, t.q * other[j].q) == _raw_product(t, other[j], s.q * x.q) for j, x in row.items())


def _raw_product(s, t, m):
    """m times the numerators of s * t over s.q * t.q, by the Q(i, sqrt2) product formula."""
    a1, b1, c1, d1, a2, b2, c2, d2 = s.a, s.b, s.c, s.d, t.a, t.b, t.c, t.d
    return ((a1 * a2 + 2 * (b1 * b2 - d1 * d2) - c1 * c2) * m, (a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2) * m,
            (a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)) * m, (a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2) * m)


def _times_row(s, terms):
    """The row {j: s * t} of nonzero s times the entries t of a row, given by their `_numerators`.

    Each entry comes from the Q(i, sqrt2) product formula on the raw
    numerators over s.q * t.q and is normalised once, so no Scalar is
    multiplied; as s is nonzero, no entry is zero.
    """
    a1, b1, c1, d1, q1 = s.a, s.b, s.c, s.d, s.q
    tb1, td1 = 2 * b1, 2 * d1  # sqrt2 * sqrt2 = 2
    return {j: _normalised(a1 * a2 + tb1 * b2 - c1 * c2 - td1 * d2,
                           a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                           a1 * c2 + tb1 * d2 + c1 * a2 + td1 * b2,
                           a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2, q1 * q2)
            for j, a2, b2, c2, d2, q2 in terms}


def _exact_product(left, right):
    """The rows of the product of two matrices, given as their rows.

    A `left` row with one entry s gives s times a row of `right`
    (``_times_row``), whose numerators are read once for every such s.
    For the other rows the entries of `right` are rescaled once to
    numerators over the lcm of its denominators, those of each `left` row
    to numerators over the lcm of that row's, so every term of an output
    row shares one denominator.  Per output entry the terms' numerators,
    from the Q(i, sqrt2) product formula, are summed as ints and the sum
    becomes one Scalar, normalised once.
    """
    numerators, scaled, out = {}, None, {}
    for i, row in left.items():
        if len(row) == 1:  # one term per entry, and no product of nonzeros is zero
            [(k, s)] = row.items()
            if k not in right:
                continue
            if k not in numerators:
                numerators[k] = _numerators(right[k])
            out[i] = _times_row(s, numerators[k])
            continue
        if scaled is None:
            q_right = lcm(*{s.q for r in right.values() for s in r.values()})
            scaled = {
                k: [(j, s.a * (m := q_right // s.q), s.b * m, s.c * m, s.d * m) for j, s in r.items()]
                for k, r in right.items()
            }
        q_row = lcm(*{s.q for s in row.values()})
        acc = {}
        for k, s in row.items():
            terms = scaled.get(k)
            if terms is None:
                continue
            m = q_row // s.q
            a1, b1, c1, d1 = s.a * m, s.b * m, s.c * m, s.d * m
            tb1, td1 = 2 * b1, 2 * d1
            for j, a2, b2, c2, d2 in terms:
                a = a1 * a2 + tb1 * b2 - c1 * c2 - td1 * d2
                b = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
                c = a1 * c2 + tb1 * d2 + c1 * a2 + td1 * b2
                d = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
                t = acc.get(j)
                if t is None:
                    acc[j] = [a, b, c, d]
                else:
                    t[0] += a
                    t[1] += b
                    t[2] += c
                    t[3] += d
        den = q_row * q_right
        if sums := {j: _normalised(*t, den) for j in sorted(acc) if any(t := acc[j])}:
            out[i] = sums
    return out


class Monomial(Matrix):
    """The square Matrix i**p * sqrt2**e * X**x Z**z P(m, v) on indices of n bits, kept as its words.

    Column j goes to row j ^ x with the unit i**(p + 2|j & z|) * sqrt2**e
    when j & m == v, and is empty otherwise; |.| counts bits.  The words
    are canonical (z & m == 0, v a submask of m, 0 <= p < 4), so equal
    operators have equal words.  The zero operator, which a product of
    nilpotent generators reaches, has v = -1 and every other word 0.

    Its values and JSON are those of its rows, which are derived from the
    words on each read and not kept, and its hash, Matrix's rule, is read
    off the words.  Listing its nonzero entries and comparing it with any
    Matrix walk the words, and a product with a Matrix that is not a
    Monomial is one ``sandwich`` pass.
    A product with a numpy array of one or two axes, on either side, is
    the complex array of the same product with ``to_numpy()``, made by
    moving the array's rows or columns by the word and scaling each by
    its unit.

    The words are validated at the public constructor only.  A word
    operation (product, transpose, scaling by a unit, conjugation,
    negation) builds its result with ``_word``, which canonicalises z and
    p but checks nothing, since valid words give valid words.  The words
    are never assigned after construction, so operators can be shared.
    """

    __slots__ = ("n", "x", "z", "m", "v", "p", "e")

    def __init__(self, n, x=0, z=0, m=0, v=0, p=0, e=0):
        if n < 0 or (x | z | m | v) >> n or v & ~m:
            raise ValueError("monomial words must lie in the n index bits, with v a submask of m")
        self.n, self.x, self.z, self.m, self.v = n, x, z & ~m, m, v
        self.p = (p + 2 * (z & v).bit_count()) & 3
        self.e = e
        self.nrows = self.ncols = 1 << n

    @classmethod
    def identity(cls, n):
        return cls(n)

    @classmethod
    def zero(cls, n):
        return _word(n, 0, 0, 0, -1, 0, 0)

    def row_items(self):
        """(i, j, q) of every nonempty row i, i increasing: its column j and the phase q of its unit.

        Row i is nonempty when i & m == v ^ (x & m); the bits outside m run
        over their submasks.  This is where the words become dim-many
        entries, so a dimension above ``max_dimension()`` is a ValueError
        here and nowhere else in the operator algebra.
        """
        if self.v < 0:
            return
        if self.nrows > (cap := max_dimension()):
            raise ValueError(f"matrix dimension {self.nrows} exceeds cap {cap}; raise SGA_MAX_DIM to override")
        x, z, p = self.x, self.z, self.p
        free = ~self.m & (self.nrows - 1)
        base = self.v ^ (x & self.m)
        f = 0
        while True:
            j = (base | f) ^ x
            yield base | f, j, p ^ 2 * ((j & z).bit_count() & 1)
            if f == free:
                return
            f = (f - free) & free

    def _units(self):
        """{q: i**q * sqrt2**e} for the two phases q that Z**z gives the rows."""
        return {q: unit(q, self.e) for q in (self.p, self.p ^ 2)}

    @property
    def sparse_rows(self):
        units = self._units()
        return {i: {j: units[q]} for i, j, q in self.row_items()}

    def nonzero_items(self):
        units = self._units()
        for i, j, q in self.row_items():
            yield i, j, units[q]

    def is_zero(self):
        return self.v < 0

    def is_identity(self):
        return self._words() == (self.n, 0, 0, 0, 0, 0, 0)

    def __matmul__(self, other):
        """The product self @ other: column j goes through other, then through self."""
        if type(other) is not Monomial:
            if isinstance(other, Matrix):
                return sandwich(self, other)
            return self._act_on_array(other, True)
        n = self.n
        if n != other.n:
            raise ValueError("matrix shape mismatch in product")
        if self.v < 0 or other.v < 0:
            return Monomial.zero(n)
        x2, m1, m2 = other.x, self.m, other.m
        v1 = (self.v ^ x2) & m1  # self keeps the image of column j when j & m1 == v1
        if (v1 ^ other.v) & m1 & m2:
            return Monomial.zero(n)
        return _word(n, self.x ^ x2, self.z ^ other.z, m1 | m2, v1 | other.v,
                     self.p + other.p + 2 * (x2 & self.z).bit_count(), self.e + other.e)

    def __rmatmul__(self, other):
        if isinstance(other, Matrix):
            return sandwich(None, other, self)
        return self._act_on_array(other, False)

    def _act_on_array(self, a, left):
        """self @ a if `left`, else a @ self, for a numpy array `a` of one or two axes; NotImplemented for any other operand.

        Column j of the operator holds one entry, its unit in row j ^ x,
        when j & m == v.  So row i of self @ a is row i ^ x of `a` times
        the unit of column i ^ x, and column j of a @ self is column j ^ x
        of `a` times the unit of column j; rows and columns without an
        entry read zero.  No dim x dim array is built and no BLAS product
        runs, and the result is the complex array of the same product with
        ``to_numpy()``.  The array already holds dim entries, so the
        dimension cap does not apply.
        """
        np = sys.modules.get("numpy")  # an ndarray means numpy is loaded, so it is never imported here
        if np is None or not isinstance(a, np.ndarray):
            return NotImplemented
        if a.ndim not in (1, 2) or a.shape[0 if left else -1] != self.nrows:
            raise ValueError("matrix shape mismatch in product")
        x, z, m, v = self.x, self.z, self.m, self.v
        u = unit(self.p, self.e).to_complex()
        units = (u, -u)  # Z**z negates the unit of column j when j & z has an odd number of bits
        index = range(self.nrows)
        flipped = [k ^ x for k in index]
        values = np.array([units[(j & z).bit_count() & 1] if j & m == v else 0j
                           for j in (flipped if left else index)])
        if left:
            return a.take(flipped, 0) * (values[:, None] if a.ndim == 2 else values)
        return a.take(flipped, -1) * values

    def times_unit(self, p, e=0):
        """This operator times the unit i**p * sqrt2**e."""
        if self.v < 0:
            return self
        return _word(self.n, self.x, self.z, self.m, self.v, self.p + p, self.e + e)

    def scale(self, s):
        """This operator times s; a unit i**p * sqrt2**e gives a Monomial."""
        t = _coerce(s)
        if t is not NotImplemented and (u := _unit_exponents(t)) is not None:
            return self.times_unit(*u)
        return Matrix.scale(self, s)

    def __neg__(self):
        return self.times_unit(2)  # times i**2 = -1

    def transpose(self):
        if self.v < 0:
            return self
        x = self.x
        return _word(self.n, x, self.z, self.m, self.v ^ (x & self.m),
                     self.p + 2 * (x & self.z).bit_count(), self.e)

    def conj(self):
        """The entrywise complex conjugate: the phase negated."""
        return self.times_unit(-2 * self.p)

    def sign_against(self, other):
        """1 if this operator equals `other`, -1 if it equals -other, else 0.

        Against a Monomial this reads the words: every word but the phase
        must agree, and the phases then differ by 0 or 2.
        """
        if type(other) is not Monomial:
            if self == other:
                return 1
            return -1 if self == -other else 0
        if (self.n, self.x, self.z, self.m, self.v, self.e) != (other.n, other.x, other.z, other.m, other.v, other.e):
            return 0
        return (1, 0, -1, 0)[(self.p - other.p) & 3]

    def square_sign(self):
        """1 if this operator squares to the identity, -1 if to minus the identity, else 0.

        The square has the words x = z = 0, the mask m, or none when
        x & m != 0, and e doubled, so it is +-1 only for m == e == 0; its
        phase is then i**(2p + 2|x & z|).
        """
        if self.v < 0 or self.m or self.e:
            return 0
        return -1 if (self.p + (self.x & self.z).bit_count()) & 1 else 1

    def _words(self):
        return self.n, self.x, self.z, self.m, self.v, self.p, self.e

    def __eq__(self, other):
        if type(other) is Monomial:
            return self._words() == other._words()
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.nrows != self.nrows or other.ncols != self.ncols:
            return False
        if self.v < 0:
            return other.is_zero()
        # other must have as many nonempty rows, each the row the words give
        x, z, mask, p = self.x, self.z, self.m, self.p
        kept, units = self.v ^ (x & mask), self._units()
        rows = other.sparse_rows
        if len(rows) != self.nrows >> mask.bit_count():
            return False
        for i, row in rows.items():
            j = i ^ x
            if i & mask != kept or len(row) != 1 or j not in row:
                return False
            s, u = row[j], units[p ^ 2 * ((j & z).bit_count() & 1)]
            if s is not u and s != u:
                return False
        return True

    def __hash__(self):
        """Matrix's hash read off the words: 2**(n - |m|) nonzeros, the first in row v ^ (x & m); no row is listed."""
        if self.v < 0:
            return hash((self.nrows, self.ncols, 0, None))
        i = self.v ^ (self.x & self.m)
        j = i ^ self.x
        first = (i, j, unit(self.p ^ 2 * ((j & self.z).bit_count() & 1), self.e))
        return hash((self.nrows, self.ncols, 1 << (self.n - self.m.bit_count()), first))

    def __reduce__(self):  # copy and pickle the words: the rows are derived, not stored
        if self.v < 0:
            return Monomial.zero, (self.n,)
        return Monomial, self._words()

    def __repr__(self):
        return "Monomial(n={}, x={}, z={}, m={}, v={}, p={}, e={})".format(*self._words())


def _word(n, x, z, m, v, p, e):
    """The Monomial of these words, z and p canonicalised as the constructor does, with no validation.

    For the results of word operations, whose words are valid because
    their operands' were; words from a caller go through ``Monomial``.
    """
    out = object.__new__(Monomial)
    out.n, out.x, out.z, out.m, out.v = n, x, z & ~m, m, v
    out.p = (p + 2 * (z & v).bit_count()) & 3
    out.e = e
    out.nrows = out.ncols = 1 << n
    return out


def commutator(a, b):
    return a @ b - b @ a


def anticommutator(a, b):
    return a @ b + b @ a
