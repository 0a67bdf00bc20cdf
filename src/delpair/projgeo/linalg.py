"""Exact fields (rationals and prime fields) and small linear algebra.

Projective points are canonicalized with first nonzero coordinate 1; linear
subspaces keep their reduced row echelon basis as the canonical
representative.  Everything is exact: Fractions over the rationals, plain
Python ints modulo p over prime fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ..report import is_prime


class Rationals:
    """Field object for exact rational arithmetic."""

    name = "QQ"

    def of(self, x) -> Fraction:
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def __repr__(self) -> str:
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p prime; elements are ints in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return self.name


QQ = Rationals()


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows, pivots = len(mat), []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != field.zero), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != field.zero:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows: list[list], field) -> int:
    return len(rref(rows, field)[0])


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, fraction-free (Bareiss).

    After each pivot step the entries below it are minors of the matrix, so
    the division by the previous pivot is exact and entries stay ints.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    r, prev = 0, 1
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[c]
        for i in range(r + 1, nrows):
            f = mat[i][c]
            mat[i] = [(p * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def kernel_basis(rows: list[list], field, ncols: int) -> list[list]:
    """Basis of the right kernel of the matrix."""
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, c in zip(red, pivots):
            vec[c] = field.neg(r[f])
        basis.append(vec)
    return basis


def normalize_projective(coords: tuple, field) -> tuple:
    """Scale so the first nonzero coordinate is 1."""
    vals = tuple(field.of(x) for x in coords)
    lead = next((x for x in vals if x != field.zero), None)
    if lead is None:
        raise ValueError("projective point needs a nonzero coordinate")
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in vals)


@dataclass(frozen=True)
class ProjPoint:
    """A point of projective space over an exact field, canonicalized."""

    field: object
    coords: tuple

    @staticmethod
    def make(coords, field=QQ) -> "ProjPoint":
        return ProjPoint(field, normalize_projective(tuple(coords), field))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def primitive_int_coords(self) -> tuple[int, ...]:
        """Integer coprime representative (rational points only)."""
        return primitive_int_covector(self.coords)

    def to_witness(self) -> list:
        return list(self.primitive_int_coords())

    def __repr__(self) -> str:
        return f"ProjPoint({self.field.name}, {self.coords})"


@dataclass(frozen=True)
class LinearSubspace:
    """Row span of a reduced full-rank matrix over an exact field."""

    field: object
    basis: tuple[tuple, ...]

    @staticmethod
    def span(vectors, field=QQ) -> "LinearSubspace":
        rows = [[field.of(x) for x in v] for v in vectors]
        red, _ = rref(rows, field)
        if not red:
            raise ValueError("span of zero vectors")
        return LinearSubspace(field, tuple(tuple(r) for r in red))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])

    @property
    def projective_dim(self) -> int:
        return self.rank - 1

    def contains(self, point: ProjPoint) -> bool:
        rows = [list(b) for b in self.basis] + [list(point.coords)]
        return rank(rows, self.field) == self.rank

    def combination(self, coeffs) -> tuple:
        out = [self.field.zero] * self.ambient_dim
        for c, row in zip(coeffs, self.basis):
            c = self.field.of(c)
            if c != self.field.zero:
                out = [self.field.add(o, self.field.mul(c, x)) for o, x in zip(out, row)]
        return tuple(out)


def projective_points(field: PrimeField, dim: int):
    """All points of P^{dim-1}(F_p) as canonical coordinate tuples."""
    p = field.p
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        tail = dim - lead - 1
        idx = [0] * tail
        while True:
            yield prefix + tuple(idx)
            for k in range(tail - 1, -1, -1):
                idx[k] += 1
                if idx[k] < p:
                    break
                idx[k] = 0
            else:
                break
            continue


def primitive_int_covector(fracs) -> tuple[int, ...]:
    """Clear denominators and common factors from a rational covector."""
    fracs = [Fraction(f) for f in fracs]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("zero covector")
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
