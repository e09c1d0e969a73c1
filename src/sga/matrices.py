"""Matrices over the exact scalar ring, stored by their nonzero entries.

Every basis matrix of the chiral construction (gammas, metrics, kappa,
Gamma, C and blades) is a signed partial permutation: a spinor index is a
bitcode, and each row holds at most one nonzero.  A Matrix therefore keeps
each row as a {column: Scalar} dict of its nonzero entries only, in
increasing column order.  Sums, products, negation, transposition and
comparison cost O(nnz) and never scan a zero, and entries that cancel are
dropped, so equal matrices have equal rows.  The dense ``rows`` view is
built on demand for elimination, numpy and JSON.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar, approx_equal


def _canonical(acc):
    """A row dict with its zero entries dropped and its columns in increasing order."""
    return {j: acc[j] for j in sorted(acc) if not acc[j].is_zero()}


class Matrix:
    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """A matrix from dense rows of Scalars.

        With ``ncols`` given, ``rows`` are {column: Scalar} dicts that hold
        only nonzero entries, in increasing column order, and are kept as
        they are.  Either way the rows are read-only from then on.
        """
        if ncols is None:
            dense = [tuple(r) for r in rows]
            ncols = len(dense[0]) if dense else 0
            for r in dense:
                if len(r) != ncols:
                    raise ValueError("ragged matrix rows")
            rows = [{j: s for j, s in enumerate(r) if not s.is_zero()} for r in dense]
        self.sparse_rows = tuple(rows)
        self.nrows = len(self.sparse_rows)
        self.ncols = ncols

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, nrows, ncols=None):
        return cls([{}] * nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, n):
        return cls.diagonal([ONE] * n)

    @classmethod
    def diagonal(cls, entries):
        return cls([{} if s.is_zero() else {i: s} for i, s in enumerate(entries)], len(entries))

    @classmethod
    def column(cls, entries):
        return cls([[s] for s in entries])

    @classmethod
    def row_vector(cls, entries):
        return cls([list(entries)])

    @classmethod
    def unit_column(cls, dim, index):
        rows = [{}] * dim
        rows[index] = {0: ONE}
        return cls(rows, 1)

    @classmethod
    def from_items(cls, nrows, ncols, items):
        """The matrix whose (i, j) entry is the sum of the values given for it in (i, j, value) items."""
        rows = [{} for _ in range(nrows)]
        for i, j, v in items:
            row = rows[i]
            row[j] = row[j] + v if j in row else v
        return cls([_canonical(r) for r in rows], ncols)

    @classmethod
    def block2(cls, tl, tr, bl, br, half):
        """Assemble a 2x2 block matrix; None blocks are zero, each half x half."""
        for m in (tl, tr, bl, br):
            if m is not None and (m.nrows != half or m.ncols != half):
                raise ValueError("block shape does not match the half size")

        def band(left, right):
            for i in range(half):
                row = left.sparse_rows[i] if left is not None else {}
                if right is not None and right.sparse_rows[i]:
                    row = dict(row)
                    row.update((j + half, s) for j, s in right.sparse_rows[i].items())
                yield row

        return cls([*band(tl, tr), *band(bl, br)], 2 * half)

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
        out = []
        for r in self.sparse_rows:
            dense = [ZERO] * self.ncols
            for j, s in r.items():
                dense[j] = s
            out.append(tuple(dense))
        return tuple(out)

    def __getitem__(self, key):
        i, j = key
        if not -self.ncols <= j < self.ncols:
            raise IndexError("matrix column index out of range")
        return self.sparse_rows[i].get(j % self.ncols, ZERO)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape mismatch in addition")
        rows = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            if not rb or not ra:
                rows.append(ra or rb)
                continue
            acc = dict(ra)
            for j, t in rb.items():
                acc[j] = acc[j] + t if j in acc else t
            rows.append(_canonical(acc))
        return Matrix(rows, self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([{j: -s for j, s in r.items()} for r in self.sparse_rows], self.ncols)

    def scale(self, s):
        if not isinstance(s, Scalar):
            s = Scalar(s) if isinstance(s, int) else Scalar(_float=complex(s))
        if s.is_exact and s == ONE:
            return self
        return Matrix(
            [{j: v for j, x in r.items() if not (v := s * x).is_zero()} for r in self.sparse_rows],
            self.ncols,
        )

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in product")
        right = other.sparse_rows
        out = []
        for row in self.sparse_rows:
            acc = {}
            for k, s in row.items():
                for j, t in right[k].items():
                    acc[j] = acc[j] + s * t if j in acc else s * t
            out.append(_canonical(acc))
        return Matrix(out, other.ncols)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.sparse_rows):
            for j, s in row.items():
                cols[j][i] = s
        return Matrix(cols, self.nrows)

    def conj(self):
        """Entrywise complex conjugation with respect to i."""
        return Matrix(
            [{j: s.conjugate() for j, s in r.items()} for r in self.sparse_rows], self.ncols
        )

    def dagger(self):
        return self.conj().transpose()

    def trace(self):
        t = ZERO
        for i, row in enumerate(self.sparse_rows[: self.ncols]):
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
        return not any(self.sparse_rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r.items()) for r in self.sparse_rows)))

    def approx_equal(self, other, tol=1e-12):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            approx_equal(ra.get(j, ZERO), rb.get(j, ZERO), tol)
            for ra, rb in zip(self.sparse_rows, other.sparse_rows)
            for j in ra.keys() | rb.keys()
        )

    def is_identity(self):
        return self.is_square and self == Matrix.identity(self.nrows)

    def scalar_multiple_of_identity(self):
        """Return s if the matrix equals s*identity, else None."""
        if not self.is_square:
            return None
        s = self[0, 0]
        if s.is_zero():
            return s if self.is_zero() else None
        for i, row in enumerate(self.sparse_rows):
            if len(row) != 1 or i not in row or row[i] != s:
                return None
        return s

    def nonzero_items(self):
        """(i, j, value) of every nonzero entry, row by row, columns increasing."""
        for i, row in enumerate(self.sparse_rows):
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
        """Dense list of rows of JSON scalars; zero entries share one JSON object."""
        zero = ZERO.to_json()
        return [
            [r[j].to_json() if j in r else zero for j in range(self.ncols)]
            for r in self.sparse_rows
        ]

    @classmethod
    def from_json(cls, obj):
        """Parse a dense list of rows of JSON scalars; ValueError if malformed."""
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError("matrix JSON must be a list of rows")
        return cls([[Scalar.from_json(x) for x in row] for row in obj])

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def block_diag(m, bottom):
    """diag(m, bottom) for two equal-shaped square matrices."""
    return Matrix.block2(m, None, None, bottom, m.dim)


def anti_block(top_right, bottom_left):
    """Antidiagonal block matrix [[0, tr], [bl, 0]]."""
    return Matrix.block2(None, top_right, bottom_left, None, top_right.dim)


def commutator(a, b):
    return a @ b - b @ a


def anticommutator(a, b):
    return a @ b + b @ a
