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

import operator

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


# -- the action of the product of the two linear groups -----------------------

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


def _kronecker(g: tuple, h: tuple) -> tuple:
    """The matrix of g (x) h on the coordinates z_ij = a_i b_j, flattened as points are."""
    return tuple(tuple(x * y for x in gi for y in hj) for gi in g for hj in h)


def _permutation(m: tuple, pts, q: int) -> dict:
    """The move x -> m x of the canonical points pts, as a table."""
    return {x: canonical_mod([sum(map(operator.mul, row, x)) for row in m], q) for x in pts}


def _orbit(seed: tuple, moves: list) -> set:
    """The orbit of a pair under the permutation pairs (t0, t1): (u, v) -> (t0[u], t1[v])."""
    orbit, layer = {seed}, {seed}
    while layer:
        layer = {(t0[u], t1[v]) for t0, t1 in moves for u, v in layer} - orbit
        orbit |= layer
    return orbit


# -- the fitting report -------------------------------------------------------

_ID2 = ((1, 0), (0, 1))
_ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def segre_fitting_report(q: int) -> CheckReport:
    """Base-case checks for the fitting of a point plus a line, on every
    configuration, from one section per orbit.

    (a) a (1,0)-line P^1 x {y} plus a point (a, b) with b != y spans a plane
        whose section contains the joining (0,1)-curve {a} x yb, so no exact
        point-plus-line section exists with a (1,0)-line;
    (b) a (0,1)-line {x} x L plus a point (a, b) with a != x and b off L
        meets the variety in exactly the line and the point;
    (c) the configurations of (b) form a single orbit under the product of
        the projective linear groups of the two factors.

    Each generator g of GL_2 and h of GL_3 acts on the ambient 5-space as the
    linear map g (x) 1 or 1 (x) h.  Check (i): on every Segre point it sends
    the image of (a, b) to that of (g a, b), or (a, h b), and h carries the
    points of every plane line L onto the line L h^-1.  A linear map carries
    the span of a line and a point to the span of their images, so then every
    product of generators carries each configuration, its section and its
    joining curve to those of the moved configuration, and both properties
    hold on a whole orbit when they hold at one point of it.

    So each configuration set is certified as one orbit (ii), and one
    representative per set, the least configuration, gets its section from
    ``SegreLine.section_with`` (iii).  Both sets are products, and a
    generator moves one factor alone, so the orbit of the least configuration
    is the product of the orbits of its factors: it is the whole set exactly
    when each factor's orbit is that factor's set.  The (a) configurations
    (y, a, b) are the points a of P^1, searched as the diagonal pairs
    (a, a), times the ordered pairs (y, b) of distinct plane points; the (b)
    configurations (x, L, a, b) are the pairs (x, a) of line points with
    a != x times the pairs (L, b) of a plane line and a point off it.  The
    generators act through permutation tables, on plane lines through the
    inverse on the right.  ``a_configs`` and ``b_configs`` count the
    configurations decided, the two orbits; a failed hypothesis of
    ``SegreLine`` raises ValueError, and all arithmetic is on plain ints
    mod q.
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

    # (i) each generator acts on the ambient space as on the two factors
    gens2, gens3 = list(_gl_generators(2, q)), list(_gl_generators(3, q))
    on_p1 = [_permutation(g, p1, q) for g, _ in gens2]
    on_p2 = [_permutation(h, p2, q) for h, _ in gens3]
    # covectors move by the inverse on the right: L h^-1 is (h^-1)^T L
    on_lines = [_permutation(tuple(zip(*h_inv)), p2, q) for _, h_inv in gens3]
    for k, ((g, _), t) in enumerate(zip(gens2, on_p1)):
        on_p5 = _permutation(_kronecker(g, _ID3), segre_pts, q)
        if any(on_p5[z] != img[t[a], b] for (a, b), z in img.items()):
            failures.append({"check": "generator", "factor": 1, "index": k})
    for k, ((h, _), t, t_lines) in enumerate(zip(gens3, on_p2, on_lines)):
        on_p5 = _permutation(_kronecker(_ID2, h), segre_pts, q)
        if (any(on_p5[z] != img[a, t[b]] for (a, b), z in img.items())
                or any({t[m] for m in pts} != set(on_line[t_lines[L]])
                       for L, pts in on_line.items())):
            failures.append({"check": "generator", "factor": 2, "index": k})

    # (a) bidegree-(1,0) lines never fit with an extra point
    distinct = {(y, b) for y in p2 for b in p2 if b != y}
    a, (y, b) = min(p1), min(distinct)
    line = SegreLine(img[p1[0], y], img[p1[1], y], q)
    pt = img[a, b]
    section = line.section_with(pt)
    if not all(img[a, m] in section for m in _join_points(y, b, p2, q)):
        failures.append({"check": "a-witness", "y": y, "point": (a, b)})
    if section == {img[x, y] for x in p1} | {pt}:
        failures.append({"check": "a-exact-section", "y": y, "point": (a, b)})
    point_orbit = _orbit((a, a), [(t, t) for t in on_p1])
    pair_orbit = _orbit((y, b), [(t, t) for t in on_p2])
    a_configs = len(point_orbit) * len(pair_orbit)
    if point_orbit != {(x, x) for x in p1} or pair_orbit != distinct:
        failures.append({"check": "a-orbit", "orbit_size": a_configs,
                         "configs": len(p1) * len(distinct)})
    del distinct, pair_orbit          # about 50 MB at F23, freed before (c) builds its sets

    # (b) bidegree-(0,1) lines fit exactly
    line_pairs = {(x, a) for x in p1 for a in p1 if a != x}
    plane_pairs = {(L, b) for L, Lpts in on_line.items() for b in p2 if b not in Lpts}
    (x, a), (L, b) = min(line_pairs), min(plane_pairs)
    Lpts = on_line[L]
    line = SegreLine(img[x, Lpts[0]], img[x, Lpts[1]], q)
    pt = img[a, b]
    if line.section_with(pt) != {img[x, m] for m in Lpts} | {pt}:
        failures.append({"check": "b-section", "x": x, "L": L, "point": (a, b)})

    # (c) single orbit on the configurations of (b), one factor at a time
    line_orbit = _orbit((x, a), [(t, t) for t in on_p1])
    plane_orbit = _orbit((L, b), list(zip(on_lines, on_p2)))
    single_orbit = line_orbit == line_pairs and plane_orbit == plane_pairs
    orbit_size = len(line_orbit) * len(plane_orbit)
    valid_configs = len(line_pairs) * len(plane_pairs)
    if not single_orbit:
        failures.append({"check": "c-orbit", "orbit_size": orbit_size,
                         "valid_configs": valid_configs})

    witnesses = [{
        "segre_points": len(segre_pts),
        "a_configs": a_configs,
        "b_configs": orbit_size,
        "valid_configs": valid_configs,
        "orbit_size": orbit_size,
        "single_orbit": single_orbit,
    }]
    return CheckReport("segre.fitting", f"F{q}", FAIL if failures else PASS,
                       witnesses=witnesses + failures)
