"""The four element species and their multiplication grid.

An element is a scalar, a column spinor, a row spinor, or a multivector,
bound to one representation.  ``GRID`` is the one statement of the grid:
it maps each (left, right) species pair whose product is defined to the
species of that product.  Row . column is the inner product, a scalar;
column . row is the outer product, a multivector kept as its two factors;
a scalar on either side keeps the other species.

An exact outer product whose factors have two nonzeros or more each is a
``matrices.OuterProduct``: it conjugates, scales, multiplies and compares
through its column and row in O(dim), and builds its dim**2 entries only
when they are read.  Products of two columns or two rows are excluded; they raise
ForbiddenProduct unless the caller asks for the literal reading, in which
case they collapse to the zero formal sum.  Mixed-species sums are kept
as FormalSum wrappers rather than being forced into a single species.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcodes import Bitcode
from .matrices import Matrix
from .scalars import Scalar

SCALAR = "scalar"
COLUMN = "column"
ROW = "row"
MULTIVECTOR = "multivector"
SPECIES = (SCALAR, COLUMN, ROW, MULTIVECTOR)

# (left, right) -> species of the product.  A pair not listed is excluded:
# column . column and row . row by the exclusion principle, column . mv and
# mv . row because their shapes do not chain.
GRID = {
    **{(SCALAR, s): s for s in SPECIES},
    **{(s, SCALAR): s for s in SPECIES},
    (ROW, COLUMN): SCALAR,
    (COLUMN, ROW): MULTIVECTOR,
    (MULTIVECTOR, MULTIVECTOR): MULTIVECTOR,
    (MULTIVECTOR, COLUMN): COLUMN,
    (ROW, MULTIVECTOR): ROW,
}


class ForbiddenProduct(Exception):
    """Raised for a species pair outside GRID: column*column, row*row, column*mv, mv*row."""


@dataclass(frozen=True)
class Element:
    species: str
    payload: object  # Scalar or Matrix
    rep: object

    def __post_init__(self):
        dim = self.rep.dim
        p = self.payload
        if self.species == SCALAR:
            if not isinstance(p, Scalar):
                raise TypeError("scalar element needs a Scalar payload")
        elif self.species == COLUMN:
            if not (isinstance(p, Matrix) and p.nrows == dim and p.ncols == 1):
                raise ValueError("column payload must be dim x 1")
        elif self.species == ROW:
            if not (isinstance(p, Matrix) and p.nrows == 1 and p.ncols == dim):
                raise ValueError("row payload must be 1 x dim")
        elif self.species == MULTIVECTOR:
            if not (isinstance(p, Matrix) and p.nrows == dim and p.ncols == dim):
                raise ValueError("multivector payload must be dim x dim")
        else:
            raise ValueError(f"unknown species {self.species!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, rep, value):
        if isinstance(value, int):
            value = Scalar(value)
        return cls(SCALAR, value, rep)

    @classmethod
    def column(cls, rep, matrix):
        return cls(COLUMN, matrix, rep)

    @classmethod
    def row(cls, rep, matrix):
        return cls(ROW, matrix, rep)

    @classmethod
    def multivector(cls, rep, matrix):
        return cls(MULTIVECTOR, matrix, rep)

    @classmethod
    def basis_spinor(cls, rep, bits):
        if isinstance(bits, str):
            bits = Bitcode.from_string(bits)
        return cls.column(rep, rep.basis_spinor(bits))

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, FormalSum):
            return FormalSum((self,)) + other
        if not isinstance(other, Element):
            return NotImplemented
        if other.rep is not self.rep:
            raise ValueError("elements bound to different representations")
        if other.species != self.species:
            return FormalSum((self, other)).collapse()
        return Element(self.species, self.payload + other.payload, self.rep)

    def __neg__(self):
        return self.scale(Scalar(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if self.species == SCALAR:
            return Element(SCALAR, self.payload * s, self.rep)
        return Element(self.species, self.payload.scale(s), self.rep)

    def is_zero(self):
        return self.payload.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.species == other.species
            and self.rep is other.rep
            and self.payload == other.payload
        )


@dataclass(frozen=True)
class FormalSum:
    """A formal sum of elements of possibly different species."""

    terms: tuple

    def collapse(self):
        """Combine same-species terms, drop zeros, and order the rest by SPECIES."""
        by_species = {}
        rep = self.terms[0].rep if self.terms else None
        for t in self.terms:
            if t.rep is not rep:
                raise ValueError("elements bound to different representations")
            if t.species in by_species:
                by_species[t.species] = by_species[t.species] + t
            else:
                by_species[t.species] = t
        kept = tuple(by_species[s] for s in SPECIES
                     if s in by_species and not by_species[s].is_zero())
        if len(kept) == 1:
            return kept[0]
        return FormalSum(kept)

    def __add__(self, other):
        if isinstance(other, Element):
            other = FormalSum((other,))
        elif not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum(self.terms + other.terms).collapse()

    def __neg__(self):
        return self.scale(Scalar(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return FormalSum(tuple(t.scale(s) for t in self.terms)).collapse()

    def is_zero(self):
        return all(t.is_zero() for t in self.terms)

    @classmethod
    def zero(cls):
        return cls(())


def multiply(x, y, forbidden_as_zero=False):
    """Product of two elements under the species grid."""
    if isinstance(x, FormalSum) or isinstance(y, FormalSum):
        return _multiply_sums(x, y, forbidden_as_zero)
    if x.rep is not y.rep:
        raise ValueError("elements bound to different representations")
    a, b = x.species, y.species
    species = GRID.get((a, b))
    if species is None:
        if a == b and forbidden_as_zero:
            return FormalSum.zero()
        raise ForbiddenProduct(f"product {a} * {b} is excluded")
    if a == SCALAR:
        return y.scale(x.payload)
    if b == SCALAR:
        return x.scale(y.payload)
    product = x.payload @ y.payload
    return Element(species, product[0, 0] if species == SCALAR else product, x.rep)


def _multiply_sums(x, y, forbidden_as_zero):
    xs = x.terms if isinstance(x, FormalSum) else (x,)
    ys = y.terms if isinstance(y, FormalSum) else (y,)
    terms = []
    for xi in xs:
        for yj in ys:
            p = multiply(xi, yj, forbidden_as_zero=forbidden_as_zero)
            if isinstance(p, FormalSum):
                terms.extend(p.terms)
            else:
                terms.append(p)
    return FormalSum(tuple(terms)).collapse()


def simplify_chain(elements, forbidden_as_zero=False):
    """Left-to-right reduction of a product chain.

    The associativity of the grid makes the result equal to the full
    matrix-product evaluation; an illegal adjacency raises at the point
    it is first met.
    """
    if not elements:
        raise ValueError("empty chain")
    out = elements[0]
    for e in elements[1:]:
        out = multiply(out, e, forbidden_as_zero=forbidden_as_zero)
    return out


# -- metric-dressed operations ---------------------------------------------


def row_of(rep, psi):
    """Row spinor psi-transpose times the spinor metric."""
    m = psi.payload if isinstance(psi, Element) else psi
    if m.nrows != rep.dim or m.ncols != 1:
        raise ValueError("row_of expects a column spinor of the representation")
    return Element.row(rep, m.transpose() @ rep.eps)


def scalar_product(rep, psi, chi):
    """The invariant bilinear pairing of two column spinors."""
    return multiply(row_of(rep, psi), _as_column(rep, chi)).payload


def outer_product(rep, chi, psi):
    """Column times metric-dressed row: transforms as a multivector."""
    return multiply(_as_column(rep, chi), row_of(rep, psi))


def _as_column(rep, x):
    if isinstance(x, Element):
        return x
    return Element.column(rep, x)


def raise_index(rep, psi):
    """Raised spinor: premultiply by the inverse-transposed metric.

    The metric is real orthogonal, so this is just the metric itself; a
    basis spinor is sent to (sign) times the flipped-bitcode spinor.
    """
    m = psi.payload if isinstance(psi, Element) else psi
    out = rep.eps @ m
    return Element.column(rep, out) if isinstance(psi, Element) else out

def lower_index(rep, psi):
    m = psi.payload if isinstance(psi, Element) else psi
    out = rep.eps.transpose() @ m
    return Element.column(rep, out) if isinstance(psi, Element) else out


def symmetrized_outer(rep, a, b):
    """{a, b} with the right factor dressed as a row."""
    return outer_product(rep, a, b).payload + outer_product(rep, b, a).payload


def antisymmetrized_outer(rep, a, b):
    """[a, b] with the right factor dressed as a row."""
    return outer_product(rep, a, b).payload - outer_product(rep, b, a).payload
