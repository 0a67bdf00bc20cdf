"""The Segre embedding of a line times a plane, and its fitting checks.

Coordinates z_ij = a_i b_j (i in {0,1}, j in {0,1,2}) are flattened in the
order z_00, z_01, z_02, z_10, z_11, z_12; the image is cut out by the three
2x2 minors z0 z4 - z1 z3, z0 z5 - z2 z3 and z1 z5 - z2 z4 of the coordinate
matrix.  Lines of the image have a bidegree: (1,0)-lines sweep the first
factor over a fixed plane point, (0,1)-lines fix the first factor and sweep
a line of the plane.

A plane spanned by a line of the image and a point of the image off it is
cut in closed form.  The polar form of a minor M = z_a z_b - z_c z_d is
B(u, v) = u_a v_b + v_a u_b - u_c v_d - v_c u_d, and
M(sum c_i P_i) = sum c_i^2 M(P_i) + sum_{i<j} c_i c_j B(P_i, P_j) over any
commutative ring: nothing is halved, so the identity holds at q = 2 too.
"""
from __future__ import annotations

import itertools

from ..frozen import Frozen
from ..report import FAIL, PASS, CheckReport, require_prime
from .linalg import canonical_mod, projective_points


def segre_point(a: tuple, b: tuple, q: int) -> tuple:
    """Canonical image mod q of (a, b) in the ambient projective 5-space."""
    return canonical_mod([ai * bj for ai in a for bj in b], q)


def _on_segre(z: tuple, q: int) -> bool:
    """Whether the three minors vanish mod q at z."""
    return not ((z[0] * z[4] - z[1] * z[3]) % q or (z[0] * z[5] - z[2] * z[3]) % q
                or (z[1] * z[5] - z[2] * z[4]) % q)


def _polar(u: tuple, v: tuple) -> tuple[int, int, int]:
    """The polar forms of the three minors at (u, v), in the order of ``_on_segre``."""
    return (u[0] * v[4] + v[0] * u[4] - u[1] * v[3] - v[1] * u[3],
            u[0] * v[5] + v[0] * u[5] - u[2] * v[3] - v[2] * u[3],
            u[1] * v[5] + v[1] * u[5] - u[2] * v[4] - v[2] * u[4])


class SegreLine(Frozen, fields=("P0", "P1", "q")):
    """The line through P0 and P1, checked to lie on the Segre variety mod q.

    Construction raises ValueError unless the minors vanish at P0 and P1 and
    their polar forms vanish at (P0, P1), which together put the whole line on
    the variety, and P0, P1 are distinct points.  ``points`` holds its q + 1
    points, canonical mod q; (P0, P1, q) determine them, so equality and
    hashing see only those three.
    """

    def __init__(self, P0: tuple, P1: tuple, q: int) -> None:
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "q", q)
        if not (_on_segre(P0, q) and _on_segre(P1, q)) or any(b % q for b in _polar(P0, P1)):
            raise ValueError("points do not span a line of the Segre variety")
        combos = [[(c0 * x + c1 * y) % q for x, y in zip(P0, P1)]
                  for c0, c1 in projective_points(q, 2)]
        if not all(any(z) for z in combos):
            raise ValueError("span is not a line")
        object.__setattr__(self, "points", frozenset(canonical_mod(z, q) for z in combos))

    def section_with(self, P2: tuple) -> frozenset:
        """The Segre points, canonical mod q, on the plane spanned by the line and P2.

        P2 must be a point of the variety off the line; otherwise ValueError.
        On c0 P0 + c1 P1 + c2 P2 the k-th minor equals
        c2 (B_k(P0, P2) c0 + B_k(P1, P2) c1), so the section is the line plus
        the common zeros in (c0, c1) of three linear forms, read off the rank
        mod q of their 3x2 matrix: rank 2 adds P2 alone; rank 1 adds the line
        through P2 and K = y P0 - x P1, where (x, y) is a nonzero row; rank 0
        gives the whole plane.
        """
        P0, P1, q = self.P0, self.P1, self.q
        pt = canonical_mod(P2, q)
        if not _on_segre(pt, q):
            raise ValueError("point is not on the Segre variety")
        if pt in self.points:
            raise ValueError("span is not a plane")
        rows = [(x % q, y % q) for x, y in zip(_polar(P0, pt), _polar(P1, pt))]
        (x0, y0), (x1, y1), (x2, y2) = rows
        if (x0 * y1 - y0 * x1) % q or (x0 * y2 - y0 * x2) % q or (x1 * y2 - y1 * x2) % q:
            return self.points | {pt}
        x, y = next((r for r in rows if any(r)), (0, 0))
        if x or y:
            # K is a point of the line; the other points of the new one are P2 + t K
            K = [y * u - x * v for u, v in zip(P0, P1)]
            extra = ([w + t * k for w, k in zip(pt, K)] for t in range(1, q))
        else:
            extra = ([c0 * u + c1 * v + c2 * w for u, v, w in zip(P0, P1, pt)]
                     for c0, c1, c2 in projective_points(q, 3))
        return self.points.union([pt], (canonical_mod(z, q) for z in extra))


def _line_points(cov: tuple, plane_pts: list[tuple], q: int) -> list[tuple]:
    """The points of plane_pts on the line with covector cov."""
    return [pt for pt in plane_pts if sum(c * x for c, x in zip(cov, pt)) % q == 0]


def _join_points(y: tuple, b: tuple, plane_pts: list[tuple], q: int) -> list[tuple]:
    """Points of the plane line through two distinct plane points."""
    cov = (y[1] * b[2] - y[2] * b[1], y[2] * b[0] - y[0] * b[2], y[0] * b[1] - y[1] * b[0])
    return _line_points(canonical_mod(cov, q), plane_pts, q)


# -- configuration orbit under the product of the two linear groups ----------

def _gl_generators(n: int, q: int):
    """Generators g of GL_n(F_q), each with its inverse, as (g, g^-1).

    I + E_ij (i != j) has inverse I - E_ij; for q > 2, diag(2, 1, ..., 1)
    has inverse diag((q + 1) / 2, 1, ..., 1).
    """

    def unit_plus(i: int, j: int, c: int) -> tuple:
        """The identity matrix with c added at (i, j)."""
        return tuple(tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n))
                     for a in range(n))

    for i in range(n):
        for j in range(n):
            if i != j:
                yield unit_plus(i, j, 1), unit_plus(i, j, -1)
    if q > 2:
        yield unit_plus(0, 0, 1), unit_plus(0, 0, (q - 1) // 2)


def _permutation(m: tuple, pts: list, q: int) -> dict:
    """The move x -> m x of the canonical points pts, as a table."""
    return {x: canonical_mod([sum(a * b for a, b in zip(row, x)) for row in m], q) for x in pts}


def _orbit(seed: tuple, moves: list) -> set:
    """The orbit of a pair under the permutation pairs (t0, t1): (u, v) -> (t0[u], t1[v])."""
    orbit, layer = {seed}, {seed}
    while layer:
        layer = {(t0[u], t1[v]) for t0, t1 in moves for u, v in layer} - orbit
        orbit |= layer
    return orbit


# -- the fitting report -------------------------------------------------------

def segre_fitting_report(q: int) -> CheckReport:
    """Exhaustive base-case checks for the fitting of a point plus a line.

    (a) a (1,0)-line plus an off-line point spans a plane whose section
        contains the joining (0,1)-curve, so no exact point-plus-line section
        exists with a (1,0)-line;
    (b) a (0,1)-line {x} x L plus a point (a, b) with a != x and b off L
        meets the variety in exactly the line and the point;
    (c) the valid configurations of (b) form a single orbit under the product
        of the projective linear groups of the two factors.

    Every section in (a) and (b) is that of a Segre line plus a Segre point
    off it, so ``SegreLine.section_with`` gives it in closed form from the
    polar forms of the minors.  The line's hypotheses are checked once per
    line, the point's for every configuration, and a failed one raises
    ValueError.  The images of all (a, b) are computed once, and all
    arithmetic is on plain ints mod q.

    (c) rests on the product structure: the valid (x, L, a, b) are the pairs
    (x, a) of line points with a != x times the pairs (L, b) of a plane line
    and a point off it.  A generator of GL_2 moves (x, a) alone and one of
    GL_3 moves (L, b) alone, so the orbit of the least configuration is the
    orbit of its (x, a) times that of its (L, b): it is the valid set exactly
    when each factor's orbit is that factor's set.  The generators act
    through permutation tables, on plane lines through the inverse on the
    right.
    """
    require_prime(q)
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    on_line = {L: _line_points(L, p2, q) for L in p2}   # plane lines as canonical covectors
    failures: list[dict] = []

    img = {(a, b): segre_point(a, b, q) for a in p1 for b in p2}
    segre_pts = set(img.values())
    expected_count = (q + 1) * (q * q + q + 1)
    if len(segre_pts) != expected_count:
        failures.append({"check": "point-count", "got": len(segre_pts),
                         "expected": expected_count})

    # (a) bidegree-(1,0) lines never fit with an extra point
    a_configs = 0
    for y in p2:
        line_pts = {img[x, y] for x in p1}
        line = SegreLine(img[p1[0], y], img[p1[1], y], q)
        joins = {b: _join_points(y, b, p2, q) for b in p2 if b != y}
        for (a, b) in itertools.product(p1, p2):
            if b == y:
                continue
            a_configs += 1
            pt = img[a, b]
            section = line.section_with(pt)
            if not all(img[a, m] in section for m in joins[b]):
                failures.append({"check": "a-witness", "y": y, "point": (a, b)})
            if section == line_pts | {pt}:
                failures.append({"check": "a-exact-section", "y": y, "point": (a, b)})
    # (b) bidegree-(0,1) lines fit exactly
    b_configs = 0
    for x in p1:
        for L, Lpts in on_line.items():
            line_img = {img[x, m] for m in Lpts}
            line = SegreLine(img[x, Lpts[0]], img[x, Lpts[1]], q)
            for a in p1:
                if a == x:
                    continue
                for b in p2:
                    if b in Lpts:
                        continue
                    b_configs += 1
                    pt = img[a, b]
                    if line.section_with(pt) != line_img | {pt}:
                        failures.append({"check": "b-section", "x": x, "L": L,
                                         "point": (a, b)})

    # (c) single orbit on the valid configurations of (b), one factor at a time
    line_pairs = {(x, a) for x in p1 for a in p1 if a != x}
    plane_pairs = {(L, b) for L, Lpts in on_line.items() for b in p2 if b not in Lpts}
    on_p1 = [_permutation(g, p1, q) for g, _ in _gl_generators(2, q)]
    # covectors move by the inverse on the right: L g^-1 is (g^-1)^T L
    on_p2 = [(_permutation(tuple(zip(*g_inv)), p2, q), _permutation(g, p2, q))
             for g, g_inv in _gl_generators(3, q)]
    line_orbit = _orbit(min(line_pairs), [(t, t) for t in on_p1])
    plane_orbit = _orbit(min(plane_pairs), on_p2)
    single_orbit = line_orbit == line_pairs and plane_orbit == plane_pairs
    orbit_size = len(line_orbit) * len(plane_orbit)
    valid_configs = len(line_pairs) * len(plane_pairs)
    if not single_orbit:
        failures.append({"check": "c-orbit", "orbit_size": orbit_size,
                         "valid_configs": valid_configs})

    witnesses = [{
        "segre_points": len(segre_pts),
        "a_configs": a_configs,
        "b_configs": b_configs,
        "valid_configs": valid_configs,
        "orbit_size": orbit_size,
        "single_orbit": single_orbit,
    }]
    return CheckReport("segre.fitting", f"F{q}", FAIL if failures else PASS,
                       witnesses=witnesses + failures)
