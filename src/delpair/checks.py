"""Every check of the run-all bundle, and SUITES, the one ordered table of its suites."""
from __future__ import annotations

import operator
import random
from functools import lru_cache

from . import hss, normalbundle, pairs, sff
from .chevalley import build_table, jacobi_failures
from .pairs import CorrespondenceError, DeletionPair
from .projgeo.linalg import alternating_rank, integer_rank, primitive_int_covector
from .projgeo.plucker import (
    BiVector,
    collinearity_scan,
    dee_exhaustive_survey,
    ell_generators,
    grassmannian_membership,
    parse_bivector,
    plane_section,
    plane_spanned_by,
    plucker_quadrics,
    q_orbit_membership,
)
from .projgeo.segre import segre_fitting_report
from .report import (
    DEFAULT_SEED,
    FAIL,
    INDETERMINATE,
    PASS,
    SKIPPED,
    CheckReport,
    RunConfig,
    bundle,
    root_witness,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    descriptor,
    is_hyperquadric,
    parse_diagram,
    parse_marked,
    space_name,
)

_PROPERTY_SYSTEMS = ("A4", "B4", "D5", "E6", "E7")


def _closed_form_count(letter: str, n: int) -> int:
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n, 0), "F": 24, "G": 6}[letter]


def root_count_check() -> CheckReport:
    bad = []
    for lit in _PROPERTY_SYSTEMS:
        generated = len(build_root_system(parse_diagram(lit)).positive_roots)
        formula = _closed_form_count(lit[0], int(lit[1:]))
        if generated != formula:
            bad.append({"system": lit, "generated": generated, "formula": formula})
    status = PASS if not bad else FAIL
    return CheckReport("rootsys.counts", ",".join(_PROPERTY_SYSTEMS), status, witnesses=bad,
                       notes="" if not bad else "count mismatch")


def _closed_form_dimension(letter: str, n: int, m: int) -> int:
    """Dimension of the Hermitian symmetric space of type letter-n at canonical mark m."""
    return {"A": m * (n + 1 - m), "B": 2 * n - 1, "C": n * (n + 1) // 2,
            "D": 2 * n - 2 if m == 1 else n * (n - 1) // 2,
            "E": {6: 16, 7: 27}.get(n, 0)}[letter]


def correspondence_checks(pair: DeletionPair) -> list[CheckReport]:
    try:
        pair.correspondence         # builds Phi and checks its invariants
        nc0 = len(hss.noncompact_positive_roots(pair.sub))
        nc = len(hss.noncompact_positive_roots(pair.ambient))
        for md, dim in ((pair.ambient, nc), (pair.sub, nc0)):
            formula = sum(_closed_form_dimension(*d) for d in descriptor(md))
            if dim != formula:
                raise CorrespondenceError(f"{space_name(md)} has {dim} noncompact "
                                          f"positive roots, closed form {formula}")
        verdict = pairs.is_maximal(pair)
    except CorrespondenceError as exc:
        return [CheckReport("pairs.correspondence", pair.pair_id, FAIL, notes=str(exc))]
    return [CheckReport(
        "pairs.correspondence", pair.pair_id, PASS,
        witnesses=[{
            "name": pair.name,
            "Gamma": root_witness(pair.big_gamma),
            "dim_sub": nc0, "dim_ambient": nc,
            "maximal": verdict.maximal,
            "decompositions_via": list(verdict.witness_ids()),
        }])]


def degeneracy_checks(pair: DeletionPair) -> list[CheckReport]:
    ctx = sff.SFFContext.for_pair(pair)
    ks, kt = sff.kernels(ctx)
    ars = pair.ambient_rs()
    gamma = ars.simple_root(pair.gamma)
    adjacent = [gamma + ars.simple_root(b)
                for b in pair.ambient.diagram.neighbors(pair.gamma)]
    missing = [root_witness(a) for a in adjacent if a not in ks.kernel_weights]
    return [
        CheckReport("sff.kernel_sigma", pair.pair_id,
                    PASS if ks.strict and not missing else FAIL,
                    witnesses=[{"strict": ks.strict,
                                "kernel": [root_witness(w) for w in sorted(ks.kernel_weights)],
                                "missing_adjacent_witnesses": missing}]),
        CheckReport("sff.kernel_tau", pair.pair_id,
                    PASS if kt.strict else FAIL,
                    witnesses=[{"strict": kt.strict,
                                "contains_sub_tangent": ctx.sub_tangent <= kt.kernel_weights,
                                "kernel_size": len(kt.kernel_weights)}]),
    ]


def infinity_checks(pair: DeletionPair) -> list[CheckReport]:
    if not pairs.is_maximal(pair).maximal:
        return [CheckReport("sff.infinity_locus", pair.pair_id, SKIPPED,
                            notes="lemma applies to maximal deletion pairs only")]
    return [sff.verify_infinity_locus(pair)]


def normal_bundle_checks(pair: DeletionPair) -> list[CheckReport]:
    rep = normalbundle.summands_distinct(pair)
    if is_hyperquadric(pair.ambient):
        rep = CheckReport(
            rep.check_id, rep.subject, INDETERMINATE, witnesses=rep.witnesses,
            notes="hyperquadric ambient: excluded by the distinctness argument; "
                  f"raw verdict {rep.status}")
    elif not pairs.is_maximal(pair).maximal:
        rep = CheckReport(
            rep.check_id, rep.subject, SKIPPED, witnesses=rep.witnesses,
            notes=f"decomposition asserted for maximal pairs only; raw verdict "
                  f"{rep.status}")
    return [rep]


def vmrt_chain_check(max_rank: int) -> CheckReport:
    if max_rank < 7:
        return CheckReport("hss.vmrt_chain", "E7:a7", SKIPPED,
                           notes=f"needs max_rank >= 7, have {max_rank}")
    chain = hss.vmrt_chain(parse_marked("E7:a7"))
    expected = [(("E", 7, 7),), (("E", 6, 6),), (("D", 5, 5),), (("A", 4, 2),),
                (("A", 1, 1), ("A", 2, 1))]
    status = PASS if [descriptor(md) for md in chain] == expected else FAIL
    return CheckReport("hss.vmrt_chain", "E7:a7", status,
                       witnesses=[{"chain": [space_name(md) for md in chain]}])


def plucker_suite(primes: tuple[int, ...]) -> list[CheckReport]:
    out = []
    g1, g2 = ell_generators()
    samples = [g1.coords, g2.coords,
               tuple(a + b for a, b in zip(g1.coords, g2.coords)),
               tuple(a + 7 * b for a, b in zip(g1.coords, g2.coords))]
    on = all(grassmannian_membership(BiVector(s)) for s in samples)
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
                       and rep.grassmannian_points == _gaussian_binomial(p))
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


def section_reports(point: str, omega: BiVector, primes: tuple[int, ...]) -> list[CheckReport]:
    sec = plane_section(omega, primes)
    return [CheckReport(
        "plucker.section", f"span(<{point}>, ell)", PASS,
        witnesses=[{
            "lines": [list(cov) for cov in sec.lines],
            "isolated_points": [list(pt) for pt in sec.isolated_points],
            "full_plane": sec.full_plane,
            "certified_over": list(sec.certified_over)}])]


def collinear_reports(point: str, omega: BiVector) -> list[CheckReport]:
    wit = collinearity_scan(omega)
    return [CheckReport(
        "plucker.collinear", point, PASS,
        witnesses=[{"witness": None if wit is None else {
            "param": "all" if wit.param == "all" else [str(c) for c in wit.param],
            "common_vector": [str(c) for c in wit.common_vector]}}])]


def _draws(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` values below n, each drawn as ``rng.choice`` on a length-n
    sequence and ``rng.randrange(n)`` draw one: getrandbits(n.bit_length())
    until the value is below n.  The values, and the generator's state after
    them, are the ones those calls give."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def property_suite() -> list[CheckReport]:
    out = []
    for lit in _PROPERTY_SYSTEMS:
        rs = build_root_system(parse_diagram(lit))
        table = build_table(rs)
        rng = random.Random((DEFAULT_SEED, lit).__repr__())
        drawn = _draws(rng, table.dimension, 3000)     # consecutive triples
        bad = jacobi_failures(table, list(zip(drawn[0::3], drawn[1::3], drawn[2::3])))
        refl_bad = len(reflection_failures(rs, [r.coeffs for r in rs.positive_roots]))
        status = PASS if bad == 0 and refl_bad == 0 else FAIL
        out.append(CheckReport(
            "chevalley.properties", lit, status,
            witnesses=[{"jacobi_failures": bad, "reflection_failures": refl_bad,
                        "triples": 1000}]))

    for field_name in ("QQ", "F5"):
        rng = random.Random((DEFAULT_SEED, field_name).__repr__())
        drawn = _draws(rng, 9, 5000)        # ten coordinates in -4..4 per bivector
        bad = 0
        for start in range(0, 5000, 10):
            coords = [d - 4 for d in drawn[start:start + 10]]
            if not any(coords):
                coords[0] = 1
            omega = BiVector(tuple(coords))
            if field_name == "QQ":
                decomposable = grassmannian_membership(omega)
                low_rank = alternating_rank(coords) <= 2
            else:                       # the same integer coordinates mod 5
                decomposable = not any(q % 5 for q in plucker_quadrics(omega))
                low_rank = alternating_rank(coords, 5) <= 2
            if decomposable != low_rank:
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
    is_root = rs.all_coeffs.__contains__
    failures = []
    for c in roots:
        for i, row in enumerate(rs.cartan):
            m = sum(map(operator.mul, c, row))
            w = c[:i] + (c[i] - m,) + c[i + 1:]
            if not is_root(w) or sum(map(operator.mul, w, row)) != -m:
                failures.append((c, i))
    return failures


def _qorbit_invariance() -> CheckReport:
    """Verdicts constant under 20 seeded elements of the line stabilizer.

    Each point's plane is spanned by primitive integer vectors u, v; the
    image under a group element g is the integer bivector (u g) ^ (v g).
    Rescaling u and v rescales the image, which changes neither verdict.
    """
    rng = random.Random((DEFAULT_SEED, "qorbit").__repr__())
    shape = [(0,), (0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]
    points = [parse_bivector(t) for t in ("e4^e5", "e2^e4", "e1^e4", "e1^e2 - e1^e3")]
    points.append(BiVector.wedge([1, 0, 0, 1, 0], [0, 1, 0, 0, 1]))
    frames = []
    for omega in points:
        u, v = plane_spanned_by(omega)
        frames.append((primitive_int_covector(u), primitive_int_covector(v),
                       q_orbit_membership(omega)))
    bad = 0
    tried = 0
    while tried < 20:
        rows = [[rng.randrange(-3, 4) if c in cols else 0 for c in range(5)]
                for cols in shape]
        if integer_rank(rows) != 5:
            continue
        tried += 1
        for u, v, verdict in frames:
            gu = [sum(x * row[c] for x, row in zip(u, rows)) for c in range(5)]
            gv = [sum(x * row[c] for x, row in zip(v, rows)) for c in range(5)]
            image = BiVector.wedge(gu, gv)
            if not grassmannian_membership(image) or q_orbit_membership(image) != verdict:
                bad += 1
    return CheckReport("projgeo.qorbit_invariance", "Q on G(2,5)",
                       PASS if bad == 0 else FAIL,
                       witnesses=[{"group_elements": tried, "points": len(points),
                                   "violations": bad}])


@lru_cache(maxsize=1)
def _catalog(max_rank: int) -> tuple[DeletionPair, ...]:
    """One catalog for the four pair rows, so each pair builds Phi once per run."""
    return tuple(pairs.catalog(max_rank))


def _each_pair(check):
    return lambda config: [rep for pair in _catalog(config.max_rank) for rep in check(pair)]


# The suites of run-all, in order: each row's reports(config), then the config
# fields it reads, which every bundle that runs the row echoes.  The pair rows
# run the check of a pair subcommand on every catalog pair, so the two agree.
SUITES = {
    "rootsys.counts": (lambda config: [root_count_check()], ()),
    "hss.vmrt_chain": (lambda config: [vmrt_chain_check(config.max_rank)], ("max_rank",)),
    "pairs.correspondence": (_each_pair(correspondence_checks), ("max_rank",)),
    "sff.kernel": (_each_pair(degeneracy_checks), ("max_rank",)),
    "sff.infinity_locus": (_each_pair(infinity_checks), ("max_rank",)),
    "normalbundle.summands_distinct": (_each_pair(normal_bundle_checks), ("max_rank",)),
    "plucker": (lambda config: plucker_suite(config.primes_plucker), ("primes_plucker",)),
    "segre.fitting": (lambda config: [segre_fitting_report(q) for q in config.primes_segre],
                      ("primes_segre",)),
    "properties": (lambda config: property_suite(), ("seed",)),
}


def run_all(config: RunConfig) -> tuple[int, dict]:
    """Every SUITES row, in a bundle that echoes every field of ``config``."""
    return verdict(config, [rep for reports, _ in SUITES.values() for rep in reports(config)])


def verdict(config: RunConfig, reports: list[CheckReport], fields=None) -> tuple[int, dict]:
    """The bundle, echoing ``fields`` of ``config``, and its exit code: 0 iff no fail."""
    doc = bundle(config, reports, fields)
    return (0 if doc["summary"][FAIL] == 0 else 1), doc
