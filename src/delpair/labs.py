"""The property suite of the run-all bundle: seeded Jacobi triples, the
reflection sweep, the decomposability rows and the Q-orbit invariance.

It is the one module that imports ``random``.  It reads ``chevalley`` and
``projgeo``, which no root or pair check needs, so ``checks`` imports it on
first use and only the ``properties`` row of SUITES loads it; the Plücker
and Segre rows are built in ``projgeo.plucker`` and ``projgeo.segre``.
"""
from __future__ import annotations

import operator
import random

from .chevalley import build_table, jacobi_failures
from .projgeo.linalg import alternating_rank, primitive_int_covector
from .projgeo.plucker import (
    grassmannian_membership,
    parse_bivector,
    plane_spanned_by,
    plucker_quadrics,
    q_orbit_membership,
    wedge,
)
from .report import DEFAULT_SEED, FAIL, PASS, CheckReport
from .rootsys import RootSystem, build_root_system, parse_diagram


# _TOP_BITS[k][b] is the top k bits of the byte b, for k = 1..8
_TOP_BITS = [bytes(b >> (8 - k) for b in range(256)) for k in range(9)]


def _draws(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` values below n (1 <= n <= 255), each drawn as
    ``rng.choice`` on a length-n sequence and ``rng.randrange(n)`` draw one:
    getrandbits(k), k = n.bit_length(), until the value is below n.  The
    values, and the generator's state after them, are the ones those calls
    give.

    getrandbits(k) is the top k bits of one 32-bit word of the generator, and
    getrandbits(32 m) is the next m words, the first in the lowest bits.  So
    each round draws one word for every value still missing and keeps, in
    order, the top k bits of each word that are below n: a rejected word is
    redrawn by the next round, as the loop redraws it, and the last word
    drawn is the last one kept.  The top bits are read from each word's top
    byte by one ``bytes.translate``, which drops the bytes whose top bits are
    n or more, so k is at most 8.
    """
    if not 0 < n < 256:
        raise ValueError(f"draws need 1 <= n <= 255, not {n}")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out: list[int] = []
    while len(out) < count:
        m = count - len(out)
        words = getrandbits(32 * m).to_bytes(4 * m, "little")
        out += words[3::4].translate(_TOP_BITS[k], bytes(range(n << (8 - k), 256)))
    return out


def property_suite(systems: tuple[str, ...]) -> list[CheckReport]:
    """The ``properties`` row of run-all, on the root system literals ``systems``."""
    out = []
    for lit in systems:
        rs = build_root_system(parse_diagram(lit))
        table = build_table(rs)
        rng = random.Random((DEFAULT_SEED, lit).__repr__())
        drawn = _draws(rng, table.dimension, 3000)     # consecutive triples
        bad = jacobi_failures(table, list(zip(drawn[0::3], drawn[1::3], drawn[2::3])))
        refl_bad = len(reflection_failures(rs, rs.positive_roots))
        status = PASS if bad == 0 and refl_bad == 0 else FAIL
        out.append(CheckReport(
            "chevalley.properties", lit, status,
            witnesses=[{"jacobi_failures": bad, "reflection_failures": refl_bad,
                        "triples": 1000}]))

    for field_name, p in (("QQ", None), ("F5", 5)):
        rng = random.Random((DEFAULT_SEED, field_name).__repr__())
        # ten coordinates in -4..4 per bivector; zero is decomposable of rank 0
        drawn = [d - 4 for d in _draws(rng, 9, 5000)]
        bad = 0
        for omega in zip(*[iter(drawn)] * 10):      # consecutive tens
            if p is None:
                decomposable = grassmannian_membership(omega)
            else:                       # the same integer coordinates mod 5
                decomposable = not any(q % p for q in plucker_quadrics(omega))
            if decomposable != (alternating_rank(omega, p) <= 2):
                bad += 1
        out.append(CheckReport(
            "projgeo.decomposability", field_name, PASS if bad == 0 else FAIL,
            witnesses=[{"samples": 500, "mismatches": bad}]))

    out.append(_qorbit_invariance())
    return out


def reflection_failures(rs: RootSystem, roots) -> list[tuple[tuple[int, ...], int]]:
    """The pairs (c, i), c a coefficient tuple in ``roots``, at which s_i c is
    not a root or s_i does not map it back to c.

    With m = <c, alpha_i>, s_i c is w: c with c_i replaced by c_i - m.  Since
    s_i w = w - <w, alpha_i> alpha_i, s_i w = c iff <w, alpha_i> = -m.
    """
    is_root = rs.all_roots.__contains__
    failures = []
    for c in roots:
        for i, row in enumerate(rs.cartan):
            m = sum(map(operator.mul, c, row))
            w = c[:i] + (c[i] - m,) + c[i + 1:]
            if not is_root(w) or sum(map(operator.mul, w, row)) != -m:
                failures.append((c, i))
    return failures


def _invertible(g) -> bool:
    """Whether a 5x5 matrix supported on the line stabilizer's shape is invertible.

    The shape is block lower triangular on the blocks {0}, {1, 2}, {3, 4}, so
    the determinant is the product of the three blocks' determinants.
    """
    return bool(g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
                * (g[3][3] * g[4][4] - g[3][4] * g[4][3]))


def _qorbit_invariance() -> CheckReport:
    """Verdicts constant under 20 seeded elements of the line stabilizer.

    Each point's plane is spanned by primitive integer vectors u, v; the
    image under a group element g is the integer bivector (u g) ^ (v g).
    Rescaling u and v rescales the image, which changes neither verdict.
    """
    rng = random.Random((DEFAULT_SEED, "qorbit").__repr__())
    shape = [(0,), (0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]
    points = [parse_bivector(t) for t in ("e4^e5", "e2^e4", "e1^e4", "e1^e2 - e1^e3")]
    points.append(wedge([1, 0, 0, 1, 0], [0, 1, 0, 0, 1]))
    frames = []
    for omega in points:
        u, v = plane_spanned_by(omega)
        frames.append((primitive_int_covector(u), primitive_int_covector(v),
                       q_orbit_membership(omega)))
    bad = 0
    tried = 0
    while tried < 20:
        entries = iter(_draws(rng, 7, 17))     # randrange(-3, 4) is draw - 3
        rows = [[next(entries) - 3 if c in cols else 0 for c in range(5)] for cols in shape]
        if not _invertible(rows):
            continue
        tried += 1
        columns = list(zip(*rows))
        for u, v, verdict in frames:
            image = wedge([sum(map(operator.mul, u, col)) for col in columns],
                          [sum(map(operator.mul, v, col)) for col in columns])
            if not grassmannian_membership(image) or q_orbit_membership(image) != verdict:
                bad += 1
    return CheckReport("projgeo.qorbit_invariance", "Q on G(2,5)",
                       PASS if bad == 0 else FAIL,
                       witnesses=[{"group_elements": tried, "points": len(points),
                                   "violations": bad}])
