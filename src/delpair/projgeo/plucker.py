"""The Grassmannian of planes in a 5-space under its Plücker embedding.

A bivector is the tuple of its ten integer coordinates x_ij (1 <= i < j <= 5),
ordered lexicographically as in PAIRS.  The image is cut out
by the five coordinates of w ^ w: for every 4-subset S = {a < b < c < d}
the quadric Q_S(x) = 2 (x_ab x_cd - x_ac x_bd + x_ad x_bc).  The
distinguished line is ell = {[e1 ^ (t e2 + s e3)]}; the affine cell is
{x_45 != 0} on the variety and its complement is the boundary divisor.
"""
from __future__ import annotations

import itertools
from math import gcd

from ..frozen import Frozen
from ..report import FAIL, PASS, CertificationError, CheckReport, require_odd_prime
from .linalg import canonical_mod, primitive_int_covector, projective_points

PAIRS: tuple[tuple[int, int], ...] = tuple(itertools.combinations(range(1, 6), 2))
PAIR_INDEX = {pq: k for k, pq in enumerate(PAIRS)}
# (k, i, j): coordinate k of PAIRS sits at the 0-based matrix slot (i, j), i < j.
_SLOTS = tuple((k, i - 1, j - 1) for k, (i, j) in enumerate(PAIRS))
QUAD_SETS: tuple[tuple[int, ...], ...] = tuple(
    tuple(sorted(set(range(1, 6)) - {m})) for m in range(1, 6)
)


def wedge(u, v) -> tuple:
    """The bivector u ^ v of two 5-vectors."""
    return tuple(u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1] for i, j in PAIRS)


def alternating_matrix(x) -> list[list]:
    """The alternating 5x5 matrix with the coordinates of x above its diagonal."""
    A = [[0] * 5 for _ in range(5)]
    for k, i, j in _SLOTS:
        A[i][j] = x[k]
        A[j][i] = -x[k]
    return A


def plucker_quadrics(x) -> tuple:
    """The five coordinates of x ^ x, in QUAD_SETS order; all zero iff decomposable."""
    x12, x13, x14, x15, x23, x24, x25, x34, x35, x45 = x
    return (2 * (x23 * x45 - x24 * x35 + x25 * x34),
            2 * (x13 * x45 - x14 * x35 + x15 * x34),
            2 * (x12 * x45 - x14 * x25 + x15 * x24),
            2 * (x12 * x35 - x13 * x25 + x15 * x23),
            2 * (x12 * x34 - x13 * x24 + x14 * x23))


def grassmannian_membership(x) -> bool:
    return not any(plucker_quadrics(x))


def q_orbit_membership(x) -> bool:
    """True on the affine cell {x_45 != 0}; requires a point of the variety."""
    if not grassmannian_membership(x):
        raise ValueError("point is not on the Grassmannian")
    return bool(x[9])                   # x45


def plane_spanned_by(x) -> tuple[tuple, tuple]:
    """Two integer vectors spanning the 2-plane of a decomposable bivector:
    with x_ij its lex-first nonzero coordinate, column j and row i of its
    alternating matrix, x_ij times that matrix's two reduced row echelon rows.
    """
    if not grassmannian_membership(x):
        raise ValueError("bivector is not decomposable")
    slot = next((slot for slot in _SLOTS if x[slot[0]]), None)
    if slot is None:
        raise ValueError("decomposable bivector of unexpected rank")
    _, i, j = slot
    A = alternating_matrix(x)
    return tuple(row[j] for row in A), tuple(A[i])


# ---------------------------------------------------------------------------
# The fixed line ell and its spans
# ---------------------------------------------------------------------------

def ell_generators() -> tuple[tuple, tuple]:
    """e1 ^ e2 and e1 ^ e3, spanning the line ell on the variety."""
    return (1,) + (0,) * 9, (0, 1) + (0,) * 8


def ell_plane(b: tuple) -> list[list[int]]:
    """The integer basis (e1^e2, e1^e3, c) of span(b, ell), c being b without
    its x12 and x13 entries; it is reduced row echelon once c is divided by
    its first nonzero entry.  Raises ValueError when b lies on ell."""
    c = [0, 0, *b[2:]]
    if not any(c):
        raise ValueError("plane must have projective dimension exactly 2")
    return [list(g) for g in ell_generators()] + [c]


def ell_rows(x: tuple) -> tuple[tuple, ...]:
    """The halved rows (B_S(x, e1^e2), B_S(x, e1^e3)) / 2, in QUAD_SETS order.

    For x = u ^ v they are also the signed maximal minors of [u; v; e1; e2]
    and [u; v; e1; e3], by dropped column (Laplace expansion along the two
    unit rows).
    """
    x24, x25, x34, x35, x45 = x[5:]
    return ((0, 0), (0, x45), (x45, 0), (x35, -x25), (x34, -x24))


# ---------------------------------------------------------------------------
# Plane sections
# ---------------------------------------------------------------------------

class SectionDescription(Frozen, fields=("lines", "isolated_points", "isolated_plane_coords",
                                         "certified_over", "full_plane")):
    """Lines, as covectors in plane coordinates relative to the reduced row
    echelon basis of the plane, and isolated points, in those coordinates
    and as primitive integer points."""

    def shape(self) -> tuple[int, int]:
        return (len(self.lines), len(self.isolated_points))


def _combination(coeffs, basis) -> list:
    """sum_k coeffs[k] basis[k], skipping zero coefficients."""
    out = [0] * len(basis[0])
    for c, row in zip(coeffs, basis):
        if c:
            out = [o + c * x for o, x in zip(out, row)]
    return out


def _line_value(cov, point):
    """The linear form cov at point: zero iff the point lies on the line."""
    return sum(c * x for c, x in zip(cov, point))


def _cross(f, g) -> tuple:
    """The kernel of two independent 3-covectors, or 0 on two dependent ones."""
    return (f[1] * g[2] - f[2] * g[1], f[2] * g[0] - f[0] * g[2], f[0] * g[1] - f[1] * g[0])


def plane_section(b: tuple, primes: tuple[int, ...] = (5, 7)) -> SectionDescription:
    """Exact common zero locus of the Plücker quadrics on the plane span(b, ell).

    With (e1^e2, e1^e3, c) the integer basis of ``ell_plane`` and lead the
    first nonzero entry of c, every Q_S vanishes on ell, so by polarization

        Q_S(u e12 + v e13 + w c) = w L_S,  L_S = B_S(c, e12) u + B_S(c, e13) v + Q_S(c) w,

    the coefficients of u and v being twice the rows of ``ell_rows(c)``.  The
    section is ell = {w = 0} and the common zeros of the L_S, read off their
    rank by cross products: the plane at rank 0, a second line at rank 1,
    the kernel point at rank 2 (off ell), ell alone at rank 3.  Reported in
    the reduced basis (e1^e2, e1^e3, c / lead), a line (a, s, q) becomes
    (a lead, s lead, q) and a point (u, v, w) becomes (u, v, lead w).  They
    are substituted back and certified by enumeration over the given prime
    fields; any disagreement is a hard failure.
    """
    basis = ell_plane(b)
    c = basis[2]
    lead = next(x for x in c if x)
    forms = [(2 * a, 2 * s, q) for (a, s), q in zip(ell_rows(c), plucker_quadrics(c))
             if a or s or q]
    full_plane = not forms
    lines: set[tuple[int, int, int]] = set() if full_plane else {(0, 0, 1)}    # ell: w = 0
    points = []
    if forms:
        kernel = next((k for k in (_cross(forms[0], f) for f in forms[1:]) if any(k)), None)
        if kernel is None:                                      # rank 1
            a, s, q = forms[0]
            lines.add(primitive_int_covector((a * lead, s * lead, q)))
        elif not any(_line_value(f, kernel) for f in forms) and kernel[2]:    # rank 2
            points = [kernel]
    lines = tuple(sorted(lines))
    isolated = tuple(primitive_int_covector(_combination(pt, basis)) for pt in points)
    plane_coords = tuple(primitive_int_covector((u, v, lead * w)) for u, v, w in points)

    _validate_by_substitution(basis, lines, isolated)
    for p in primes:
        require_odd_prime(p)
        _certify(basis, lines, plane_coords, full_plane, p)
    return SectionDescription(lines, isolated, plane_coords,
                              ("QQ",) + tuple(f"F{p}" for p in primes), full_plane)


def _validate_by_substitution(basis, lines, isolated_points) -> None:
    """Re-check every reported component on the variety and in the plane.

    A line is tested at three points (u, v, w), lead u e12 + lead v e13 + w c:
    a quadric vanishing at three points of a line vanishes on it.  A point
    is in the plane iff, without x12 and x13, it is c up to scale.
    """
    c = basis[2]
    k = next(k for k, x in enumerate(c) if x)
    lead = c[k]
    for cov in lines:
        i = next(i for i, x in enumerate(cov) if x)
        k0, k1 = ([cov[i] * (m == f) - cov[f] * (m == i) for m in range(3)]
                  for f in range(3) if f != i)
        for u, v, w in (k0, k1, [a + b for a, b in zip(k0, k1)]):
            if not grassmannian_membership(_combination((lead * u, lead * v, w), basis)):
                raise AssertionError(f"reported line {cov} leaves the variety")
    for pt in isolated_points:
        if not grassmannian_membership(pt):
            raise AssertionError(f"reported point {pt} is off the variety")
        if any(x * lead - pt[k] * y for x, y in zip(pt[2:], c[2:])):
            raise AssertionError(f"reported point {pt} is off the plane")


def _finite_locus(basis: list[list[int]], p: int) -> set[tuple]:
    """The points [u:v:w] of P^2(F_p) where u b0 + v b1 + w b2 is on the variety.

    Each quadric restricted to the plane is the ternary form
    Q(b0) u^2 + Q(b1) v^2 + Q(b2) w^2 + B(b0, b1) uv + B(b0, b2) uw + B(b1, b2) vw,
    with the cross coefficient B(bi, bj) = Q(bi + bj) - Q(bi) - Q(bj) read
    from the quadrics at the three rows and their three pairwise sums.  The
    forms that vanish mod p are dropped, and each point is tested on the
    six coefficients of the others.
    """
    b0, b1, b2 = basis
    q0, q1, q2, q01, q02, q12 = map(plucker_quadrics, (
        b0, b1, b2, [x + y for x, y in zip(b0, b1)], [x + y for x, y in zip(b0, b2)],
        [x + y for x, y in zip(b1, b2)]))
    forms = {coeffs for coeffs in (
        (a % p, b % p, c % p, (ab - a - b) % p, (ac - a - c) % p, (bc - b - c) % p)
        for a, b, c, ab, ac, bc in zip(q0, q1, q2, q01, q02, q12)) if any(coeffs)}
    return {(u, v, w) for u, v, w in projective_points(p, 3)
            if not any(((uu * u + uv * v + uw * w) * u + (vv * v + vw * w) * v + ww * w * w) % p
                       for uu, vv, ww, uv, uw, vw in forms)}


def _certify(basis, lines, plane_coords, full_plane: bool, p: int) -> None:
    """Compare the rational locus in plane coordinates with a mod-p enumeration.

    The basis is (e1^e2, e1^e3, c) with c zero in its first two places, so
    the reduced row echelon form mod p of its primitive rows keeps e1^e2 and
    e1^e3 and makes c primitive, then canonical mod p: a primitive c is
    never 0 mod p.
    """
    computed = _finite_locus(
        [basis[0], basis[1], canonical_mod(primitive_int_covector(basis[2]), p)], p)
    isolated = {canonical_mod(pt, p) for pt in plane_coords}
    described = {(u, v, w) for u, v, w in projective_points(p, 3)
                 if full_plane or (u, v, w) in isolated
                 or any((a * u + s * v + q * w) % p == 0 for a, s, q in lines)}
    if computed != described:
        raise CertificationError(
            f"rational locus and F_{p} enumeration disagree: "
            f"{sorted(computed - described)[:3]} vs {sorted(described - computed)[:3]}"
        )


# ---------------------------------------------------------------------------
# Collinearity with the fixed line
# ---------------------------------------------------------------------------

class CollinearityWitness(Frozen, fields=("param", "common_vector")):
    """A pencil parameter (t, s), or "all", and a common vector putting b on
    a line meeting ell, each entry an exact rational written as a string."""


def _ratio(n: int, m: int) -> str:
    """The rational n / m as "n/m" in lowest terms over a positive denominator,
    or as "n" when that denominator is 1."""
    g = gcd(n, m) if m > 0 else -gcd(n, m)
    return f"{n // g}" if m == g else f"{n // g}/{m // g}"


def collinearity_scan(b: tuple) -> "CollinearityWitness | None":
    """Find [t:s] with W_b meeting <e1, t e2 + s e3>, in closed form.

    The reduced row echelon basis u, v of W_b has u ^ v = b / d, d the
    lex-first nonzero coordinate of b, so the maximal minors of
    [u; v; e1; t e2 + s e3] are (a t + c s) / d over the rows (a, c) of
    ``ell_rows(b)``; the first nonzero row gives [t:s] = [-c/d : a/d].  The
    common vector is -e1 when e1 is in W_b (all x_jk with 2 <= j < k are 0),
    else -y for y = (c0, t, s, 0, 0) in W_b, (y ^ b)_1jk = 0 solved for c0 at
    the first nonzero x_jk, and written as the integer z = den x_jk y.
    """
    plane_spanned_by(b)                 # refuses b off the variety and b = 0
    nz = [(a, c) for a, c in ell_rows(b) if a or c]
    if not nz:
        param, (t, s), den = "all", (1, 0), 1
    else:
        a, c = nz[0]
        if any(a * c2 - c * a2 for a2, c2 in nz[1:]):
            return None            # two independent conditions a t + c s = 0
        den = next(x for x in b if x)
        t, s = -c, a
        param = (_ratio(t, den), _ratio(s, den))
    x = dict(zip(PAIRS, b))
    jk = next((jk for jk in PAIRS[4:] if x[jk]), None)      # pairs 2 <= j < k
    if jk is None:
        return CollinearityWitness(param, ("-1", "0", "0", "0", "0"))
    j, k = jk
    pencil = (0, t, s, 0, 0)
    z = (pencil[j - 1] * x[1, k] - pencil[k - 1] * x[1, j], t * x[jk], s * x[jk], 0, 0)
    if any(z[i - 1] * x[m, n] - z[m - 1] * x[i, n] + z[n - 1] * x[i, m]
           for i, m, n in itertools.combinations(range(1, 6), 3)):
        raise AssertionError("witness parameter without a common vector")
    return CollinearityWitness(param, tuple(_ratio(-v, den * x[jk]) for v in z))


def section_reports(point: str, omega: tuple, primes: tuple[int, ...]) -> list[CheckReport]:
    sec = plane_section(omega, primes)
    return [CheckReport("plucker.section", f"span(<{point}>, ell)", PASS, witnesses=[{
        "lines": sec.lines, "isolated_points": sec.isolated_points,
        "full_plane": sec.full_plane, "certified_over": sec.certified_over}])]


def collinear_reports(point: str, omega: tuple) -> list[CheckReport]:
    wit = collinearity_scan(omega)
    witness = None if wit is None else {"param": wit.param, "common_vector": wit.common_vector}
    return [CheckReport("plucker.collinear", point, PASS, witnesses=[{"witness": witness}])]


def plucker_suite(primes: tuple[int, ...]) -> list[CheckReport]:
    """The ``plucker`` row of run-all: ell on the variety, two plane sections
    and the boundary survey at each prime, with its closed-form counts."""
    out = []
    g1, g2 = ell_generators()
    samples = [g1, g2, tuple(a + b for a, b in zip(g1, g2)),
               tuple(a + 7 * b for a, b in zip(g1, g2))]
    on = all(grassmannian_membership(s) for s in samples)
    out.append(CheckReport("plucker.line_on_variety", "ell", PASS if on else FAIL,
                           witnesses=[{"sampled_points": len(samples)}],
                           notes="degree-2 forms vanishing at 3 points of a line vanish on it"))

    for literal, expected in (("e4^e5", (1, 1)), ("e2^e4", (2, 0))):
        sec = plane_section(parse_bivector(literal), primes)
        status = PASS if sec.shape() == expected else FAIL
        out.append(CheckReport(
            "plucker.section", f"span(<{literal}>, ell)", status,
            witnesses=[{
                "lines": len(sec.lines), "isolated_points": len(sec.isolated_points),
                "certified_over": list(sec.certified_over),
                "locus_lines": [list(cov) for cov in sec.lines],
                "locus_points": [list(pt) for pt in sec.isolated_points],
            }]))

    reports = []
    for p in primes:
        rep = dee_exhaustive_survey(p)
        reports.append(rep)
        internal_ok = (rep.witness_without_extra == 0
                       and rep.affine_cell_points == p ** 6
                       and rep.grassmannian_points == _gaussian_binomial(p)
                       and rep.surveyed == rep.dee_points - (p + 1)
                       and rep.full_plane_count == p * p * (p + 2)
                       and rep.excluded_axis_point == p * p * (p + 1))
        out.append(CheckReport(
            "plucker.survey", f"F{p}", PASS if internal_ok else FAIL,
            witnesses=[rep.to_witness()],
            notes="tabulates section shapes over the boundary divisor; the "
                  "point-plus-line claim is reported, not assumed"))
    agree = len({r.exists_exact_b for r in reports}) <= 1
    out.append(CheckReport(
        "plucker.survey_agreement", ",".join(f"F{p}" for p in primes),
        PASS if agree else FAIL,
        witnesses=[{f"F{r.prime}": r.exists_exact_b for r in reports}]))
    return out


def _gaussian_binomial(p: int) -> int:
    return (p ** 5 - 1) * (p ** 4 - 1) // ((p ** 2 - 1) * (p - 1))


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


class SurveyReport(Frozen, fields=(
        "prime", "grassmannian_points", "affine_cell_points", "dee_points", "surveyed",
        "exact_section_count", "extra_component_count", "full_plane_count",
        "no_witness_count", "witness_without_extra",
        "excluded_line_meeting",        # reading 1: b on a variety line meeting ell
        "excluded_axis_point")):        # reading 2: the axis vector e1 lies in W_b
    """Classification of every boundary point against the fixed line."""

    @property
    def exists_exact_b(self) -> bool:
        return self.exact_section_count > 0

    def to_witness(self) -> dict:
        return {**{name: getattr(self, name) for name in self._fields},
                "exists_exact_b": self.exists_exact_b}


def _survey_class(x24: int, x25: int, x34: int, x35: int, p: int) -> tuple:
    """(rank, t, s) of the boundary class (x24, x25, x34, x35) mod p; t = s =
    None where no pencil parameter exists.

    On x45 = 0 the nonzero rows of ``ell_rows(x)`` are among (x35, -x25) and
    (x34, -x24), so the rank mod p is 2 iff x25 x34 - x24 x35 is not 0 mod p,
    and then no [t:s] solves both conditions a t + c s = 0.  Otherwise the
    first nonzero row (a, c) gives [t:s] = [-c : a], and with no nonzero row
    every [t:s] does, (1, 0) first.
    """
    if (x25 * x34 - x24 * x35) % p:
        return (2, None, None)
    if x25 or x35:
        return (1, x25 % p, x35)
    if x24 or x34:
        return (1, x24 % p, x34)
    return (0, 1, 0)


def dee_exhaustive_survey(p: int) -> SurveyReport:
    """Classify the plane section span<b, ell> for every boundary point b.

    G(2,5)(F_p) is enumerated through the reduced-echelon cells in plain ints
    mod p.  Within a cell, each quadruple (u4, u5, v4, v5) fixes
    x45 = u4 v5 - u5 v4 for the whole block of free (u1, u2, u3, v1, v2, v3)
    values, so an affine quadruple's block is counted by its size without
    visiting its points; the point counts are summed over these blocks,
    never taken from p^6 or the Gaussian binomial.  A boundary point
    b = u ^ v away from ell is read through the seven coordinates x14, x15,
    x23, x24, x25, x34, x35.  Its restricted quadrics and its collinearity
    parameter [t:s] are both read from the rows ``ell_rows(b)``: the extra
    locus on u != 0 from their rank, [t:s] from their common zero.  On
    x45 = 0 those rows depend only on the class (x24, x25, x34, x35), so
    rank and parameter come from a table of p^4 entries, indexed by the
    base-p digits of the class and filled on first use, and the section and
    witness counts are sums over classes of the points in each class.

    Each boundary block is walked once, over weighted points (u3, v3, n)
    for every head (u1, v1, u2, v2): n points of one class that pass or
    fail the witness check together.  A block lists all its points with
    n = 1, except in the big cell (u = (1, 0, u3, u4, u5),
    v = (0, 1, v3, v4, v5)) at a nonzero quadruple.  There x45 = 0 makes
    (u4, u5) and (v4, v5) proportional, so (u3, v3) -> (x34, x35) =
    u3 (v4, v5) - v3 (u4, u5) has rank 1, with p fibres of p points along
    the kernel spanned by (-beta, alpha) below, and the block lists one
    point of each fibre, on a line through 0 off the kernel, with n = p.
    This is exact: no point of a nonzero quadruple lies on ell, whose
    points have u4 = u5 = v4 = v5 = 0; the class and every input of the
    witness check are constant along the kernel, since
    w3 = alpha u3 + beta v3 is x34 (x35 when u4 = v4 = 0) and w1, w2, w4,
    w5 do not involve (u3, v3); and x23 = -u3, the one coordinate that
    varies, matters only on the zero class, whose fibre is the kernel
    (u4 = u5 = 0, so u3 = 0): its representative (0, 0) and all p of its
    points are axis points.

    A common vector alpha u + beta v of W_b and <e1, t e2 + s e3> is checked
    at every listed point whose class has a witness: [alpha : beta] is
    (v4, -u4), or (v5, -u5) when u4 = v4 = 0, solved once per quadruple
    unless the quadruple is all zero, when it reads [t:s] and is solved per
    point.  The implication "witness => extra component" is asserted over
    all the counts.
    """
    require_odd_prime(p)

    total = affine = dee = surveyed = excl_axis = 0
    pp = p * p
    # (rank, t, s) by the base-p digits of (x24, x25, x34, x35), filled on
    # first use, and the number of surveyed points in each class
    classes: list = [None] * (pp * pp)
    hits = [0] * (pp * pp)
    # one point of each big-cell fibre, on a line through 0 off the kernel
    along_u = [(u3, 0, p) for u3 in range(p)]
    along_v = [(0, v3, p) for v3 in range(p)]

    for us, vs in _echelon_cells(p):
        heads = list(itertools.product(us[0], vs[0], us[1], vs[1]))
        block = len(heads) * len(us[2]) * len(vs[2])
        points = [(u3, v3, 1) for u3 in us[2] for v3 in vs[2]]
        fibred = len(us[2]) == len(vs[2]) == p
        for u4, u5, v4, v5 in itertools.product(us[3], us[4], vs[3], vs[4]):
            total += block
            if (u4 * v5 - u5 * v4) % p:
                affine += block
                continue
            dee += block
            # alpha u + beta v lies in <e1, t e2 + s e3> iff w4 = w5 = 0 and
            # (w2, w3) ~ (t, s); the first nonzero condition fixes
            # [alpha : beta], from the quadruple unless it is all zero
            if u4 or v4 or u5 or v5:
                alpha, beta = (v4, -u4) if u4 or v4 else (v5, -u5)
                w45 = (alpha * u4 + beta * v4) % p or (alpha * u5 + beta * v5) % p
                reps = (along_u if alpha else along_v) if fibred else points
            else:
                alpha = beta = w45 = None
                reps = points
            for u1, v1, u2, v2 in heads:
                # x145 is nonzero iff x14 or x15 is, high iff x24 or x25 is
                x145 = (u1 * v4 - u4 * v1) % p or (u1 * v5 - u5 * v1) % p
                x24 = (u2 * v4 - u4 * v2) % p
                x25 = (u2 * v5 - u5 * v2) % p
                high = (x24 * p + x25) * pp
                for u3, v3, n in reps:
                    x23 = (u2 * v3 - u3 * v2) % p
                    x34 = (u3 * v4 - u4 * v3) % p
                    x35 = (u3 * v5 - u5 * v3) % p
                    if not (x145 or x23 or high or x34 or x35):
                        continue           # b lies on ell
                    surveyed += n
                    if not (x23 or high or x34 or x35):
                        excl_axis += n     # only x1j: e1 lies in W_b
                    key = high + x34 * p + x35
                    cls = classes[key]
                    if cls is None:
                        cls = classes[key] = _survey_class(x24, x25, x34, x35, p)
                    hits[key] += n
                    _, t, s = cls
                    if t is None:
                        continue
                    if alpha is None:
                        c1 = (u2 * s - u3 * t) % p
                        c2 = (v2 * s - v3 * t) % p
                        a, b = (c2, -c1) if c1 or c2 else (1, 0)
                        w45 = (a * u4 + b * v4) % p or (a * u5 + b * v5) % p
                    else:
                        a, b = alpha, beta
                    w2 = (a * u2 + b * v2) % p
                    w3 = (a * u3 + b * v3) % p
                    if (w45 or (w2 * s - w3 * t) % p
                            or not (w2 or w3 or (a * u1 + b * v1) % p)):
                        raise AssertionError(
                            f"witness parameter [{t}:{s}] without a common vector")

    exact = extra = fullplane = nowitness = witness_without_extra = excl_meeting = 0
    for cls, n in zip(classes, hits):
        if not n:
            continue
        r, t, _ = cls
        if r == 2:
            exact += n
        else:
            extra += n
            if r == 0:
                fullplane += n
        if t is None:
            nowitness += n
        else:
            excl_meeting += n
            if r == 2:
                witness_without_extra += n
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

_BASIS = {f"e{i}": i for i in range(1, 6)}


def _skip_space(text: str, k: int) -> int:
    while text[k:k + 1].isspace():
        k += 1
    return k


def _read_term(text: str, pos: int) -> "tuple | None":
    """The term "[+ or -][digits]e<i>^e<j>" at pos as (sign, digits, i, j, end),
    or None; sign and digits may be "", and ``str.isspace`` space may precede
    each part.  Digits are what ``str.isdecimal`` takes."""
    k = _skip_space(text, pos)
    sign = text[k] if text[k:k + 1] in ("+", "-") else ""
    start = k = _skip_space(text, k + len(sign))
    while text[k:k + 1].isdecimal():
        k += 1
    digits, k = text[start:k], _skip_space(text, k)
    i, k = _BASIS.get(text[k:k + 2]), _skip_space(text, k + 2)
    if i is None or text[k:k + 1] != "^":
        return None
    k = _skip_space(text, k + 1)
    j = _BASIS.get(text[k:k + 2])
    return None if j is None else (sign, digits, i, j, k + 2)


def parse_bivector(text: str) -> tuple:
    """Parse integer combinations of basis bivectors, e.g. "e2^e4 - 3 e1^e5".

    Every term after the first needs its own + or - sign, and a literal
    whose terms cancel is refused.
    """
    coords = [0] * 10
    pos = 0
    seen = False
    while pos < len(text):
        term = _read_term(text, pos)
        if term is None:
            if text[pos:].strip():
                raise ValueError(f"cannot parse bivector literal at {text[pos:]!r}")
            break
        sign, digits, i, j, end = term
        if seen and not sign:
            raise ValueError(f"bivector literal needs + or - before {text[pos:].strip()!r}")
        coef = int(digits or 1) * (-1 if sign == "-" else 1)
        if i == j:
            raise ValueError("e_i ^ e_i is zero")
        if i > j:
            i, j = j, i
            coef = -coef
        coords[PAIR_INDEX[(i, j)]] += coef
        seen = True
        pos = end
    if not seen:
        raise ValueError(f"empty bivector literal {text!r}")
    if not any(coords):
        raise ValueError(f"bivector literal {text!r} is zero")
    return tuple(coords)
