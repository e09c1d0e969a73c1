"""Matrices over the exact scalar ring, and the signed monomials among them.

A spinor index is a bitcode, so every basis operator of the chiral
construction (gammas, metrics, kappa, Gamma, C and blades) is a signed
monomial: each row holds at most one nonzero, a unit i**p * sqrt2**e.
``Monomial`` stores such an operator as three flat int tuples, the column
of each row (-1 for an empty row), p mod 4 and e, so a product is one
gather and two integer adds per row and never touches a Scalar.

``Matrix`` is the general exact type, for user input, random matrices,
products with spinors and JSON.  It keeps each row as a {column: Scalar}
dict of its nonzero entries only, in increasing column order.  Sums,
products, negation, transposition and comparison cost O(nnz) and never
scan a zero, and entries that cancel are dropped, so equal matrices have
equal rows.  The dense ``rows`` view is built on demand for elimination
and the tests.  JSON holds the nonzero entries only: {"shape": [nrows,
ncols], "entries": [[i, j, value], ...]}.
"""

from __future__ import annotations

import os

from .scalars import ONE, ZERO, Scalar, approx_equal, unit


DEFAULT_MAX_DIM = 256


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


def _canonical(acc):
    """A row dict with its zero entries dropped and its columns in increasing order."""
    if not acc:
        return acc
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
        rows = {}
        for i, j, v in items:
            row = rows.setdefault(i, {})
            row[j] = row[j] + v if j in row else v
        return cls([_canonical(rows[i]) if i in rows else {} for i in range(nrows)], ncols)

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
                return cls._from_sparse_json(obj["shape"], obj.get("entries"))
            if "entries" not in obj:
                raise ValueError("matrix JSON object needs a 'shape' or an 'entries' key")
            obj = obj["entries"]
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValueError("matrix JSON must be a list of rows")
        return cls([[Scalar.from_json(x) for x in row] for row in obj])

    @classmethod
    def _from_sparse_json(cls, shape, entries):
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError("matrix JSON 'shape' must be two non-negative ints")
        cap = max_dimension()
        if max(shape) > cap:
            # the shape alone sizes the row tuple, so bound it before allocating
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
        return cls([_canonical(rows[i]) if i in rows else {} for i in range(nrows)], ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class Monomial:
    """A square signed-monomial matrix (a signed partial permutation).

    Row i holds i**phases[i] * sqrt2**exps[i] in column cols[i], or
    nothing when cols[i] is -1 (its phase and exponent are then 0); no
    two rows share a column, so products and transposes are monomials too.
    Immutable; equal operators have equal tuples.
    """

    __slots__ = ("cols", "phases", "exps", "_entries", "_units")

    def __init__(self, cols, phases, exps):
        cols = tuple(cols)
        used = [j for j in cols if j >= 0]
        if len(set(used)) != len(used) or (used and max(used) >= len(cols)):
            raise ValueError("monomial columns must be distinct and inside the matrix")
        self.cols = cols
        self.phases = tuple(p & 3 if j >= 0 else 0 for j, p in zip(cols, phases))
        self.exps = tuple(e if j >= 0 else 0 for j, e in zip(cols, exps))
        self._entries = self._units = None

    @classmethod
    def _of(cls, cols, phases, exps):
        """A monomial from tuples that are already valid and normalised."""
        m = cls.__new__(cls)
        m.cols, m.phases, m.exps = cols, phases, exps
        m._entries = m._units = None
        return m

    @property
    def entries(self):
        """(i, j, p, e) of every nonempty row, i increasing; listed once, on first use."""
        if self._entries is None:
            self._entries = tuple(
                (i, j, p, e)
                for i, (j, p, e) in enumerate(zip(self.cols, self.phases, self.exps))
                if j >= 0
            )
        return self._entries

    @property
    def units(self):
        """The distinct (p, e) of the nonempty rows."""
        if self._units is None:
            self._units = frozenset((p, e) for _, _, p, e in self.entries)
        return self._units

    @classmethod
    def identity(cls, dim):
        return cls(range(dim), (0,) * dim, (0,) * dim)

    @property
    def dim(self):
        return len(self.cols)

    def __matmul__(self, other):
        """The product self @ other: row i of self picks row cols[i] of other."""
        if self.dim != other.dim:
            raise ValueError("monomial dimension mismatch in product")
        cols, phases, exps = other.cols, other.phases, other.exps
        out_cols, out_phases, out_exps = [], [], []
        for k, p, e in zip(self.cols, self.phases, self.exps):
            j = cols[k] if k >= 0 else -1
            if j < 0:
                out_cols.append(-1)
                out_phases.append(0)
                out_exps.append(0)
            else:
                out_cols.append(j)
                out_phases.append((p + phases[k]) & 3)
                out_exps.append(e + exps[k])
        return Monomial._of(tuple(out_cols), tuple(out_phases), tuple(out_exps))

    def scale(self, p, e=0):
        """This operator times the unit i**p * sqrt2**e."""
        return Monomial(self.cols, [q + p for q in self.phases], [f + e for f in self.exps])

    def transpose(self):
        dim = self.dim
        cols, phases, exps = [-1] * dim, [0] * dim, [0] * dim
        for i, (j, p, e) in enumerate(zip(self.cols, self.phases, self.exps)):
            if j >= 0:
                cols[j], phases[j], exps[j] = i, p, e
        return Monomial(cols, phases, exps)

    def to_matrix(self):
        return Matrix(
            [{j: unit(p, e)} if j >= 0 else {}
             for j, p, e in zip(self.cols, self.phases, self.exps)],
            self.dim,
        )

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (self.cols, self.phases, self.exps) == (other.cols, other.phases, other.exps)

    def __hash__(self):
        return hash((self.cols, self.phases, self.exps))

    def __repr__(self):
        return f"Monomial({self.dim}x{self.dim})"


def commutator(a, b):
    return a @ b - b @ a


def anticommutator(a, b):
    return a @ b + b @ a
