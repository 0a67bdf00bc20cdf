"""The Grassmannian of planes in a 5-space under its Plücker embedding.

Coordinates x_ij (1 <= i < j <= 5) are ordered lexicographically.  The image
is cut out by the five coordinates of w ^ w: for every 4-subset
S = {a < b < c < d} the quadric Q_S(x) = 2 (x_ab x_cd - x_ac x_bd + x_ad x_bc).
The distinguished line is ell = {[e1 ^ (t e2 + s e3)]}; the affine cell is
{x_45 != 0} on the variety and its complement is the boundary divisor.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .linalg import (
    QQ,
    LinearSubspace,
    PrimeField,
    ProjPoint,
    kernel_basis,
    normalize_projective,
    prime_field,
    primitive_int_covector,
    projective_points,
    rank,
    rref,
)

PAIRS: tuple[tuple[int, int], ...] = tuple(itertools.combinations(range(1, 6), 2))
PAIR_INDEX = {pq: k for k, pq in enumerate(PAIRS)}
QUAD_SETS: tuple[tuple[int, ...], ...] = tuple(
    tuple(sorted(set(range(1, 6)) - {m})) for m in range(1, 6)
)


class CertificationError(RuntimeError):
    """A rational locus description disagreed with a prime-field enumeration."""


class SectionUnsupportedError(RuntimeError):
    """The section is not a union of lines and points our solver handles."""


@dataclass(frozen=True)
class BiVector:
    """Element of the second exterior power of the rank-5 module."""

    field: object
    coords: tuple

    @staticmethod
    def make(coords, field=QQ) -> "BiVector":
        coords = tuple(field.of(x) for x in coords)
        if len(coords) != 10:
            raise ValueError("a bivector has 10 coordinates")
        return BiVector(field, coords)

    @staticmethod
    def basis(i: int, j: int, field=QQ) -> "BiVector":
        coords = [field.zero] * 10
        coords[PAIR_INDEX[(i, j)]] = field.one
        return BiVector(field, tuple(coords))

    @staticmethod
    def wedge(u, v, field=QQ) -> "BiVector":
        """u ^ v for 5-vectors u, v."""
        u = [field.of(x) for x in u]
        v = [field.of(x) for x in v]
        coords = tuple(
            field.sub(field.mul(u[i - 1], v[j - 1]), field.mul(u[j - 1], v[i - 1]))
            for (i, j) in PAIRS
        )
        return BiVector(field, coords)

    def coord(self, i: int, j: int):
        return self.coords[PAIR_INDEX[(i, j)]]

    def matrix(self) -> list[list]:
        """The associated alternating 5x5 matrix.

        The diagonal is the int 0, which equals the zero of every field here,
        so a bivector with int coordinates gives an int matrix.
        """
        f = self.field
        A = [[0] * 5 for _ in range(5)]
        for (i, j), k in PAIR_INDEX.items():
            A[i - 1][j - 1] = self.coords[k]
            A[j - 1][i - 1] = f.neg(self.coords[k])
        return A


def plucker_quadrics(omega: BiVector) -> tuple:
    """The five coordinates of omega ^ omega; all zero iff decomposable."""
    f = omega.field

    def x(i, j):
        return omega.coord(i, j)

    out = []
    for (a, b, c, d) in QUAD_SETS:
        v = f.sub(f.mul(x(a, b), x(c, d)), f.mul(x(a, c), x(b, d)))
        v = f.add(v, f.mul(x(a, d), x(b, c)))
        out.append(f.add(v, v))
    return tuple(out)


def quadric_polarization(x: tuple, y: tuple, field) -> tuple:
    """B_S(x, y) = Q_S(x + y) - Q_S(x) - Q_S(y), computed directly."""

    def term(u, v, i, j, k, l):
        return field.mul(u[PAIR_INDEX[(i, j)]], v[PAIR_INDEX[(k, l)]])

    out = []
    for (a, b, c, d) in QUAD_SETS:
        v = field.zero
        for (u, w) in ((x, y), (y, x)):
            v = field.add(v, term(u, w, a, b, c, d))
            v = field.sub(v, term(u, w, a, c, b, d))
            v = field.add(v, term(u, w, a, d, b, c))
        out.append(field.add(v, v))
    return tuple(out)


def grassmannian_membership(omega: BiVector) -> bool:
    return not any(plucker_quadrics(omega))


def q_orbit_membership(omega: BiVector) -> bool:
    """True on the affine cell {x_45 != 0}; requires a point of the variety."""
    if not grassmannian_membership(omega):
        raise ValueError("point is not on the Grassmannian")
    return bool(omega.coord(4, 5))


def plane_spanned_by(omega: BiVector) -> tuple[tuple, tuple]:
    """Two spanning vectors of the 2-plane of a decomposable bivector."""
    if not grassmannian_membership(omega):
        raise ValueError("bivector is not decomposable")
    A = omega.matrix()
    cols = [[A[i][j] for i in range(5)] for j in range(5)]
    red, _ = rref(cols, omega.field)
    if len(red) != 2:
        raise ValueError("decomposable bivector of unexpected rank")
    return tuple(red[0]), tuple(red[1])


# ---------------------------------------------------------------------------
# The fixed line ell and its spans
# ---------------------------------------------------------------------------

def ell_generators(field=QQ) -> tuple[BiVector, BiVector]:
    """e1 ^ e2 and e1 ^ e3, spanning the line ell on the variety."""
    return BiVector.basis(1, 2, field), BiVector.basis(1, 3, field)


def span_with_ell(b: BiVector) -> LinearSubspace:
    g1, g2 = ell_generators(b.field)
    return LinearSubspace.span([b.coords, g1.coords, g2.coords], b.field)


# ---------------------------------------------------------------------------
# Plane sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionLine:
    """A line of the section: its plane-coordinate form and an ambient span."""

    plane_form: tuple[int, int, int]
    span: tuple[ProjPoint, ProjPoint]


@dataclass(frozen=True)
class SectionDescription:
    lines: tuple[SectionLine, ...]
    isolated_points: tuple[ProjPoint, ...]
    isolated_plane_coords: tuple[tuple[int, ...], ...]
    certified_over: tuple[str, ...]
    full_plane: bool = False

    def shape(self) -> tuple[int, int]:
        return (len(self.lines), len(self.isolated_points))


def _restricted_forms(plane: LinearSubspace) -> list[dict]:
    """The Plücker quadrics restricted to plane coordinates (u, v, w)."""
    if plane.ambient_dim != 10:
        raise ValueError(f"plane lives in dimension {plane.ambient_dim}, expected 10")
    if plane.projective_dim != 2:
        raise ValueError("plane must have projective dimension exactly 2")
    f = plane.field
    b0, b1, b2 = plane.basis
    diag = [plucker_quadrics(BiVector.make(b, f)) for b in (b0, b1, b2)]
    cross = {
        (0, 1): quadric_polarization(b0, b1, f),
        (0, 2): quadric_polarization(b0, b2, f),
        (1, 2): quadric_polarization(b1, b2, f),
    }
    forms = []
    for k in range(len(QUAD_SETS)):
        forms.append({
            (2, 0, 0): diag[0][k], (0, 2, 0): diag[1][k], (0, 0, 2): diag[2][k],
            (1, 1, 0): cross[(0, 1)][k], (1, 0, 1): cross[(0, 2)][k],
            (0, 1, 1): cross[(1, 2)][k],
        })
    return forms


def _form_text(form: dict) -> str:
    """A restricted form as a polynomial in u, v, w."""
    terms = []
    for exps, c in sorted(form.items(), reverse=True):
        if c:
            mono = "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip("uvw", exps) if e)
            terms.append(f"{c}*{mono}")
    return " + ".join(terms).replace("+ -", "- ")


def _rational_sqrt(x: Fraction) -> "Fraction | None":
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(n, d) if (n * n, d * d) == (x.numerator, x.denominator) else None


def _linear_factors(form: dict) -> set[tuple[int, int, int]]:
    """The linear factors of a nonzero ternary quadratic form over Q.

    Let M be the symmetric matrix of the form (cross terms halved).  At rank 1
    the form is a multiple of L^2 for any nonzero row L.  At rank 2 the form
    is L1 L2 over Q iff -m_i, for m_i = adj(M)_ii the principal 2x2 minor at
    an index i with k_i != 0 (k spanning ker M), is a square s^2; then
    n = (2s / k_i) k is +-(L1 x L2), and M - [n]_x / 2 is the rank-1 matrix
    L1 L2^T, whose nonzero columns are multiples of L1 and nonzero rows of L2.
    """
    h = {e: Fraction(c) / (1 if 2 in e else 2) for e, c in form.items()}
    M = [[h[2, 0, 0], h[1, 1, 0], h[1, 0, 1]],
         [h[1, 1, 0], h[0, 2, 0], h[0, 1, 1]],
         [h[1, 0, 1], h[0, 1, 1], h[0, 0, 2]]]
    red, _ = rref(M, QQ)
    if len(red) == 1:
        return {primitive_int_covector(red[0])}
    if len(red) == 2:
        k = kernel_basis(red, QQ, 3)[0]
        i = next(i for i in range(3) if k[i])
        j, l = (x for x in range(3) if x != i)
        s = _rational_sqrt(M[j][l] ** 2 - M[j][j] * M[l][l])
        if s is not None:
            half_n = [s / k[i] * x for x in k]
            a, b, c = half_n
            cross = [[0, -c, b], [c, 0, -a], [-b, a, 0]]
            R = [[M[r][c] - cross[r][c] for c in range(3)] for r in range(3)]
            row = next(r for r in R if any(r))
            col = next(c for c in zip(*R) if any(c))
            return {primitive_int_covector(row), primitive_int_covector(col)}
    raise SectionUnsupportedError(
        f"restricted form {_form_text(form)} is not a product of rational lines")


def _solve_linear_locus(covectors: list[tuple]):
    """Common zero locus of rational linear forms on the projective plane.

    Returns ("line", covector), ("point", coords) or ("empty", None).
    """
    red, _ = rref([[QQ.of(x) for x in c] for c in covectors], QQ)
    if len(red) == 1:
        return ("line", primitive_int_covector(red[0]))
    if len(red) == 2:
        vec = kernel_basis(red, QQ, 3)[0]
        return ("point", normalize_projective(tuple(vec), QQ))
    return ("empty", None)


def _on_line(point: tuple, cov: tuple, field) -> bool:
    total = field.zero
    for c, x in zip(cov, point):
        total = field.add(total, field.mul(field.of(c), x))
    return total == field.zero


def plane_section(plane: LinearSubspace,
                  primes: tuple[int, ...] = (5, 7)) -> SectionDescription:
    """Exact common zero locus of the Plücker quadrics on a rational plane.

    Each nonzero restricted ternary form is split into rational lines, and
    the locus is the union, over every choice of one line per form, of the
    common zeros of the chosen lines: the lines among them, and the points
    on none of those lines.  Completeness is certified by exhaustive
    enumeration over the given prime fields, and any disagreement is a hard
    failure.
    """
    if plane.field is not QQ:
        raise ValueError(f"plane_section takes a rational plane, not one over {plane.field}")
    forms = [f for f in _restricted_forms(plane) if any(f.values())]
    full_plane = not forms
    lines: set[tuple[int, int, int]] = set()
    points: set[tuple] = set()
    if forms:
        for choice in itertools.product(*map(_linear_factors, forms)):
            kind, payload = _solve_linear_locus(list(choice))
            if kind == "line":
                lines.add(payload)
            elif kind == "point":
                points.add(payload)
    lines = sorted(lines)
    points = sorted(pt for pt in points if not any(_on_line(pt, c, QQ) for c in lines))

    desc = _describe(plane, lines, points, full_plane)
    _validate_by_substitution(plane, desc)
    certified = []
    for p in primes:
        if p == 2:
            raise ValueError("characteristic 2 degenerates the Plücker quadrics")
        _certify(plane, desc, prime_field(p))
        certified.append(prime_field(p).name)
    return SectionDescription(desc.lines, desc.isolated_points,
                              desc.isolated_plane_coords,
                              tuple(["QQ"] + certified), desc.full_plane)


def _describe(plane: LinearSubspace, lines, points, full_plane) -> SectionDescription:
    line_objs = []
    for cov in lines:
        k = kernel_basis([[QQ.of(c) for c in cov]], QQ, 3)
        p0 = ProjPoint.make(plane.combination(k[0]), plane.field)
        p1 = ProjPoint.make(plane.combination(k[1]), plane.field)
        line_objs.append(SectionLine(cov, (p0, p1)))
    pts = tuple(ProjPoint.make(plane.combination(p), plane.field) for p in points)
    plane_coords = tuple(primitive_int_covector(p) for p in points)
    return SectionDescription(tuple(line_objs), pts, plane_coords, (), full_plane)


def _validate_by_substitution(plane: LinearSubspace, desc: SectionDescription) -> None:
    """Re-check every reported component on the variety and in the plane.

    A quadric vanishing at three distinct points of a line vanishes on it.
    """
    f = plane.field
    for line in desc.lines:
        k = kernel_basis([[f.of(c) for c in line.plane_form]], f, 3)
        for coeffs in (k[0], k[1], [f.add(a, b) for a, b in zip(k[0], k[1])]):
            if not grassmannian_membership(BiVector.make(plane.combination(coeffs), f)):
                raise AssertionError(f"reported line {line.plane_form} leaves the variety")
    for pt in desc.isolated_points:
        if not grassmannian_membership(BiVector.make(pt.coords, f)):
            raise AssertionError(f"reported point {pt} is off the variety")
        if not plane.contains(pt):
            raise AssertionError(f"reported point {pt} is off the plane")


def _finite_locus(plane: LinearSubspace, field: PrimeField) -> set[tuple]:
    locus = set()
    for coeffs in projective_points(field, 3):
        coords = plane.combination(coeffs)
        if any(coords) and grassmannian_membership(BiVector.make(coords, field)):
            locus.add(coeffs)
    return locus


def _certify(plane: LinearSubspace, desc: SectionDescription, field: PrimeField) -> None:
    """Compare the rational description with an exhaustive mod-p enumeration."""
    rows = [ProjPoint.make(b, QQ).primitive_int_coords() for b in plane.basis]
    red = [[field.of(x) for x in r] for r in rows]
    if rank(red, field) != 3:
        raise CertificationError(f"plane degenerates modulo {field.p}")
    mod_plane = LinearSubspace.span(red, field)
    computed = _finite_locus(mod_plane, field)
    described = set()
    for coeffs in projective_points(field, 3):
        if desc.full_plane:
            described.add(coeffs)
            continue
        on = any(_on_line(coeffs, line.plane_form, field) for line in desc.lines)
        if not on:
            for pt in desc.isolated_plane_coords:
                if normalize_projective(pt, field) == coeffs:
                    on = True
                    break
        if on:
            described.add(coeffs)
    if computed != described:
        raise CertificationError(
            f"rational locus and F_{field.p} enumeration disagree: "
            f"{sorted(computed - described)[:3]} vs {sorted(described - computed)[:3]}"
        )


# ---------------------------------------------------------------------------
# Collinearity with the fixed line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollinearityWitness:
    """A pencil parameter and common vector putting b on a line meeting ell."""

    param: "tuple | str"          # (t, s) or "all"
    common_vector: tuple


def _pencil_minors(u, v, field) -> tuple[tuple, tuple]:
    """The maximal minors of [u; v; e1; e2] and [u; v; e1; e3], by dropped column.

    Laplace expansion along the two unit rows leaves the signed Plücker
    coordinates of u ^ v: (0, 0, x45, x35, x34) and (0, x45, 0, -x25, -x24).
    """
    f = field

    def x(i, j):
        return f.sub(f.mul(u[i - 1], v[j - 1]), f.mul(u[j - 1], v[i - 1]))

    x45 = x(4, 5)
    return ((f.zero, f.zero, x45, x(3, 5), x(3, 4)),
            (f.zero, x45, f.zero, f.neg(x(2, 5)), f.neg(x(2, 4))))


def collinearity_scan(b: BiVector) -> "CollinearityWitness | None":
    """Find [t:s] with W_b meeting <e1, t e2 + s e3>, as exact linear algebra.

    The five maximal minors of the 4x5 matrix stacking W_b = <u, v>, e1 and
    the pencil vector t e2 + s e3 are the linear forms t m2 + s m3, where
    m2 = (0, 0, x45, x35, x34) and m3 = (0, x45, 0, -x25, -x24) are signed
    Plücker coordinates of u ^ v; a witness exists iff they have a common
    projective zero.
    """
    field = b.field
    u, v = plane_spanned_by(b)
    e1 = [field.one] + [field.zero] * 4
    e2 = [field.zero, field.one] + [field.zero] * 3
    e3 = [field.zero] * 2 + [field.one] + [field.zero] * 2
    m2, m3 = _pencil_minors(u, v, field)
    nz = [(a, c) for a, c in zip(m2, m3) if a != field.zero or c != field.zero]
    if not nz:
        param = "all"
        ts = (field.one, field.zero)
    else:
        if rank([list(r) for r in nz], field) == 2:
            return None
        a, c = nz[0]
        ts = (field.neg(c), a)     # a t + c s = 0
        param = ts
    w = [field.add(field.mul(ts[0], x2), field.mul(ts[1], x3))
         for x2, x3 in zip(e2, e3)]
    cols = [list(u), list(v), e1, w]
    matrix = [[cols[c][r] for c in range(4)] for r in range(5)]
    ker = kernel_basis(matrix, field, 4)
    if not ker:
        raise AssertionError("witness parameter without a common vector")
    a0, b0 = ker[0][0], ker[0][1]
    common = tuple(field.add(field.mul(a0, x), field.mul(b0, y))
                   for x, y in zip(u, v))
    return CollinearityWitness(param, common)


# ---------------------------------------------------------------------------
# Exhaustive survey of the boundary divisor
# ---------------------------------------------------------------------------

def _echelon_cells(p: int):
    """Coordinate value ranges of the reduced-echelon bases (u, v) of every
    Schubert cell of 2-subspaces of a 5-space over F_p.

    Pivots sit at u[i] = v[j] = 1 (i < j); u vanishes before i and at j, v
    before j.  Every 2-subspace has exactly one such basis, so the product
    of the ranges, summed over the cells, runs over G(2,5)(F_p) once.
    """
    full, zero, one = range(p), (0,), (1,)
    for i, j in itertools.combinations(range(5), 2):
        us = [zero if c < i or c == j else one if c == i else full for c in range(5)]
        vs = [zero if c < j else one if c == j else full for c in range(5)]
        yield us, vs


def _polarization_rank(x: tuple, p: int) -> int:
    """Rank of the rows (B_S(b, e1^e2), B_S(b, e1^e3)) over the five quadrics S.

    Halved, the rows are (0, 0), (0, x45), (x45, 0), (x35, -x25) and
    (x34, -x24); the survey calls this only on x45 = 0, where the last two
    rows carry the rank.
    """
    x24, x25, x34, x35, x45 = x[5:]
    if x45 or (x25 * x34 - x24 * x35) % p:
        return 2
    return 1 if x24 or x25 or x34 or x35 else 0


def _pencil_parameter(x: tuple, p: int) -> "tuple | None":
    """[t:s] annihilating the signed minors of [u; v; e1; e2] and [u; v; e1; e3].

    Those minors are m2 = (0, 0, x45, x35, x34) and m3 = (0, x45, 0, -x25,
    -x24); every nonzero pair (a, c) of (m2, m3) asks a t + c s = 0.  Returns
    None when two of those conditions are independent, and (1, 0) when there
    is none at all.
    """
    x24, x25, x34, x35, x45 = x[5:]
    rows = [(a, c) for a, c in ((0, x45), (x45, 0), (x35, -x25 % p), (x34, -x24 % p))
            if a or c]
    if not rows:
        return (1, 0)
    a, c = rows[0]
    if any((a * c2 - c * a2) % p for a2, c2 in rows[1:]):
        return None
    return (-c % p, a)


@dataclass(frozen=True)
class SurveyReport:
    """Classification of every boundary point against the fixed line."""

    prime: int
    grassmannian_points: int
    affine_cell_points: int
    dee_points: int
    surveyed: int
    exact_section_count: int
    extra_component_count: int
    full_plane_count: int
    no_witness_count: int
    witness_without_extra: int
    excluded_line_meeting: int       # reading 1: b on a variety line meeting ell
    excluded_axis_point: int         # reading 2: the axis vector e1 lies in W_b

    @property
    def exists_exact_b(self) -> bool:
        return self.exact_section_count > 0

    def to_witness(self) -> dict:
        return {
            "prime": self.prime,
            "grassmannian_points": self.grassmannian_points,
            "affine_cell_points": self.affine_cell_points,
            "dee_points": self.dee_points,
            "surveyed": self.surveyed,
            "exact_section_count": self.exact_section_count,
            "extra_component_count": self.extra_component_count,
            "full_plane_count": self.full_plane_count,
            "no_witness_count": self.no_witness_count,
            "witness_without_extra": self.witness_without_extra,
            "excluded_line_meeting": self.excluded_line_meeting,
            "excluded_axis_point": self.excluded_axis_point,
            "exists_exact_b": self.exists_exact_b,
        }


def dee_exhaustive_survey(p: int) -> SurveyReport:
    """Classify the plane section span<b, ell> for every boundary point b.

    G(2,5)(F_p) is enumerated through the reduced-echelon cells in plain ints
    mod p.  Within a cell, u and (v4, v5) fix x45 = u4 v5 - u5 v4 for the
    whole block of free (v1, v2, v3) values, so an affine block is counted
    by its size without visiting its points; the point counts are summed
    over these blocks, never taken from p^6 or the Gaussian binomial.  Each
    b = u ^ v on the divisor {x45 = 0} away from ell is read through the
    seven coordinates x14, x15, x23, x24, x25, x34, x35.  Its restricted
    quadrics come from polarization: halved, the rows (B_S(b, e1^e2),
    B_S(b, e1^e3)) that can be nonzero are (x35, -x25) and (x34, -x24), and
    the extra locus on u != 0 is read off their rank.  The collinearity
    parameter [t:s] is read from the signed Plücker minors (0, 0, x45, x35,
    x34) of [u; v; e1; e2] and (0, x45, 0, -x25, -x24) of [u; v; e1; e3].
    Both depend only on the class (x24, x25, x34, x35), so they come from a
    table of at most p^4 entries filled on first use.  For every point a
    common vector of W_b and <e1, t e2 + s e3> is then solved from u and v
    alone and checked, and the implication "witness => extra component" is
    asserted pointwise.
    """
    if p == 2:
        raise ValueError("characteristic 2 degenerates the Plücker quadrics")
    prime_field(p)     # rejects a p that is not prime

    total = affine = dee = surveyed = 0
    exact = extra = fullplane = nowitness = 0
    witness_without_extra = 0
    excl_meeting = excl_axis = 0
    classes: dict[tuple, tuple] = {}    # (x24, x25, x34, x35) -> (rank, [t:s])

    for us, vs in _echelon_cells(p):
        r1, r2, r3, r4, r5 = vs
        block = len(r1) * len(r2) * len(r3)
        for u1, u2, u3, u4, u5 in itertools.product(*us):
            for v4, v5 in itertools.product(r4, r5):
                total += block
                if (u4 * v5 - u5 * v4) % p:
                    affine += block
                    continue
                dee += block
                for v1 in r1:
                    x14 = (u1 * v4 - u4 * v1) % p
                    x15 = (u1 * v5 - u5 * v1) % p
                    for v2 in r2:
                        x24 = (u2 * v4 - u4 * v2) % p
                        x25 = (u2 * v5 - u5 * v2) % p
                        for v3 in r3:
                            x23 = (u2 * v3 - u3 * v2) % p
                            x34 = (u3 * v4 - u4 * v3) % p
                            x35 = (u3 * v5 - u5 * v3) % p
                            if not (x14 or x15 or x23 or x24 or x25 or x34 or x35):
                                continue           # b lies on ell
                            surveyed += 1

                            key = (x24, x25, x34, x35)
                            cls = classes.get(key)
                            if cls is None:
                                x = (0, 0, 0, 0, 0, x24, x25, x34, x35, 0)
                                cls = classes[key] = (_polarization_rank(x, p),
                                                      _pencil_parameter(x, p))
                            r, param = cls
                            if r == 2:
                                exact += 1
                            elif r == 1:
                                extra += 1
                            else:
                                extra += 1
                                fullplane += 1

                            if param is None:
                                nowitness += 1
                            else:
                                # alpha u + beta v lies in <e1, t e2 + s e3> iff
                                # w4 = w5 = 0 and (w2, w3) ~ (t, s); the first
                                # nonzero condition fixes [alpha : beta]
                                t, s = param
                                if u4 or v4:
                                    alpha, beta = v4, -u4
                                elif u5 or v5:
                                    alpha, beta = v5, -u5
                                else:
                                    c1 = (u2 * s - u3 * t) % p
                                    c2 = (v2 * s - v3 * t) % p
                                    alpha, beta = (c2, -c1) if c1 or c2 else (1, 0)
                                w2 = (alpha * u2 + beta * v2) % p
                                w3 = (alpha * u3 + beta * v3) % p
                                w4 = (alpha * u4 + beta * v4) % p
                                w5 = (alpha * u5 + beta * v5) % p
                                if (not ((alpha * u1 + beta * v1) % p or w2 or w3 or w4 or w5)
                                        or w4 or w5 or (w2 * s - w3 * t) % p):
                                    raise AssertionError(
                                        f"witness parameter [{t}:{s}] without a common vector")
                                excl_meeting += 1
                                if r == 2:
                                    witness_without_extra += 1
                            if not (x23 or x24 or x25 or x34 or x35):
                                excl_axis += 1     # only x1j: e1 lies in W_b

    if witness_without_extra:
        raise AssertionError(
            "collinearity witness without extra section component "
            f"({witness_without_extra} boundary points)"
        )
    return SurveyReport(
        prime=p,
        grassmannian_points=total,
        affine_cell_points=affine,
        dee_points=dee,
        surveyed=surveyed,
        exact_section_count=exact,
        extra_component_count=extra,
        full_plane_count=fullplane,
        no_witness_count=nowitness,
        witness_without_extra=witness_without_extra,
        excluded_line_meeting=excl_meeting,
        excluded_axis_point=excl_axis,
    )


# ---------------------------------------------------------------------------
# Bivector literals
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+)?\s*e(?P<i>[1-5])\s*\^\s*e(?P<j>[1-5])"
)


def parse_bivector(text: str, field=QQ) -> BiVector:
    """Parse integer combinations of basis bivectors, e.g. "e2^e4 - 3 e1^e5"."""
    coords = [field.zero] * 10
    pos = 0
    seen = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse bivector literal at {text[pos:]!r}")
            break
        sign = -1 if m.group("sign") == "-" else 1
        coef = int(m.group("coef") or 1) * sign
        i, j = int(m.group("i")), int(m.group("j"))
        if i == j:
            raise ValueError("e_i ^ e_i is zero")
        if i > j:
            i, j = j, i
            coef = -coef
        k = PAIR_INDEX[(i, j)]
        coords[k] = field.add(coords[k], field.of(coef))
        seen = True
        pos = m.end()
    if not seen:
        raise ValueError(f"empty bivector literal {text!r}")
    return BiVector(field, tuple(coords))
