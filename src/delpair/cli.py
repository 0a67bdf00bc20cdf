"""Command-line front end and the all-checks regression driver."""
from __future__ import annotations

import argparse
import random
import sys

from . import hss, normalbundle, pairs, sff
from .chevalley import build_table, jacobi_failures
from .pairs import CorrespondenceError, DeletionPair
from .projgeo.linalg import integer_rank, primitive_int_covector, rref_mod
from .projgeo.plucker import (
    BiVector,
    CertificationError,
    collinearity_scan,
    dee_exhaustive_survey,
    ell_generators,
    ell_plane,
    grassmannian_membership,
    parse_bivector,
    plane_section,
    plane_spanned_by,
    plucker_quadrics,
    q_orbit_membership,
    require_odd_prime,
)
from .projgeo.segre import segre_fitting_report
from .report import (
    DEFAULT_SEED,
    FAIL,
    INDETERMINATE,
    MAX_RANK,
    PASS,
    SKIPPED,
    CheckReport,
    RunConfig,
    bundle,
    bundle_json,
    bundle_markdown,
    root_witness,
)
from .rootsys import (
    ChainError,
    DiagramError,
    Root,
    RootSystem,
    build_root_system,
    descriptor,
    is_hyperquadric,
    parse_diagram,
    parse_marked,
    space_name,
)


def parse_pair_id(text: str) -> DeletionPair:
    """Resolve "<diagram>:<gamma>/<gamma0>", of rank at most MAX_RANK, to its catalog entry."""
    parts = text.split("/")
    if ":" not in text or len(parts) != 2 or not all(part.strip() for part in parts):
        raise DiagramError(f"pair id {text!r} is not of the form D:g/g0")
    head, gamma0 = parts
    md = parse_marked(head)
    if md.diagram.rank > MAX_RANK:
        raise DiagramError(f"pair id {text!r} has rank {md.diagram.rank}, "
                           f"above the largest rank {MAX_RANK}")
    pair = DeletionPair(md, gamma0.strip())
    specs = pairs.catalog_specs(max(4, md.diagram.rank))
    if pair.pair_id not in {f"{ambient}/{g0}" for ambient, g0 in specs}:
        raise ChainError(f"{pair.pair_id} is not a catalog deletion pair")
    return pair


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

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


# The pair subcommands and what each checks on one deletion pair.  run-all runs
# every entry on every catalog pair, so a subcommand and run-all cannot disagree.
PAIR_CHECKS = {
    "verify-pair": correspondence_checks,
    "degeneracy": degeneracy_checks,
    "infinity-locus": infinity_checks,
    "normal-bundle": normal_bundle_checks,
}


def vmrt_chain_check(max_rank: int) -> CheckReport:
    if max_rank < 7:
        return CheckReport("hss.vmrt_chain", "E7:a7", SKIPPED,
                           notes=f"needs max_rank >= 7, have {max_rank}")
    chain = hss.vmrt_chain(parse_marked("E7:a7"))
    got = [descriptor(md) for md in chain]
    expected = [
        ((("E", 7, 7),)), ((("E", 6, 6),)), ((("D", 5, 5),)), ((("A", 4, 2),)),
        (("A", 1, 1), ("A", 2, 1)),
    ]
    names = [space_name(md) for md in chain]
    status = PASS if got == [tuple(e) for e in expected] else FAIL
    return CheckReport("hss.vmrt_chain", "E7:a7", status,
                       witnesses=[{"chain": names}])


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


def segre_suite(primes: tuple[int, ...]) -> list[CheckReport]:
    return [segre_fitting_report(q) for q in primes]


def property_suite() -> list[CheckReport]:
    out = []
    for lit in _PROPERTY_SYSTEMS:
        rs = build_root_system(parse_diagram(lit))
        table = build_table(rs)
        indices = range(table.dimension)
        choice = random.Random((DEFAULT_SEED, lit).__repr__()).choice
        bad = jacobi_failures(table, [(choice(indices), choice(indices), choice(indices))
                                      for _ in range(1000)])
        refl_bad = sum(1 for r in rs.positive_roots for i in range(rs.diagram.rank)
                       if _reflection_fails(rs, r, i))
        status = PASS if bad == 0 and refl_bad == 0 else FAIL
        out.append(CheckReport(
            "chevalley.properties", lit, status,
            witnesses=[{"jacobi_failures": bad, "reflection_failures": refl_bad,
                        "triples": 1000}]))

    for field_name in ("QQ", "F5"):
        rng = random.Random((DEFAULT_SEED, field_name).__repr__())
        bad = 0
        for _ in range(500):
            coords = [rng.randrange(-4, 5) for _ in range(10)]
            if all(c == 0 for c in coords):
                coords[0] = 1
            omega = BiVector(tuple(coords))
            if field_name == "QQ":
                decomposable = grassmannian_membership(omega)
                low_rank = integer_rank(omega.matrix()) <= 2
            else:                       # the same integer coordinates mod 5
                decomposable = not any(q % 5 for q in plucker_quadrics(omega))
                low_rank = len(rref_mod(omega.matrix(), 5)) <= 2
            if decomposable != low_rank:
                bad += 1
        out.append(CheckReport(
            "projgeo.decomposability", field_name, PASS if bad == 0 else FAIL,
            witnesses=[{"samples": 500, "mismatches": bad}]))

    out.append(_qorbit_invariance())
    return out


def _reflection_fails(rs: RootSystem, r: Root, i: int) -> bool:
    """Whether s_i r fails to be a root that s_i maps back to r."""
    w = rs.reflect(i, r)
    return not rs.is_root(w) or rs.reflect(i, w) != r


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
            if not grassmannian_membership(image):
                bad += 1
                continue
            if q_orbit_membership(image) != verdict:
                bad += 1
    return CheckReport("projgeo.qorbit_invariance", "Q on G(2,5)",
                       PASS if bad == 0 else FAIL,
                       witnesses=[{"group_elements": tried, "points": len(points),
                                   "violations": bad}])


def _all_reports(config: RunConfig) -> list[CheckReport]:
    reports = [root_count_check(), vmrt_chain_check(config.max_rank)]
    for pair in pairs.catalog(config.max_rank):
        for check in PAIR_CHECKS.values():
            reports += check(pair)
    reports += plucker_suite(config.primes_plucker)
    reports += segre_suite(config.primes_segre)
    reports += property_suite()
    return reports


def run_all(config: RunConfig) -> tuple[int, dict]:
    return _verdict(config, _all_reports(config))


def _verdict(config: RunConfig, reports: list[CheckReport], fields=None) -> tuple[int, dict]:
    """The bundle, echoing ``fields`` of ``config``, and its exit code: 0 iff no fail."""
    doc = bundle(config, reports, fields)
    return (0 if doc["summary"][FAIL] == 0 else 1), doc


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def _pair_reports(args, config: RunConfig) -> list[CheckReport]:
    return PAIR_CHECKS[args.command](args.deletion_pair)


def _section_reports(args, config: RunConfig) -> list[CheckReport]:
    sec = plane_section(args.bivector, config.primes_plucker)
    return [CheckReport(
        "plucker.section", f"span(<{args.point}>, ell)", PASS,
        witnesses=[{
            "lines": [list(cov) for cov in sec.lines],
            "isolated_points": [list(pt) for pt in sec.isolated_points],
            "full_plane": sec.full_plane,
            "certified_over": list(sec.certified_over)}])]


def _collinear_reports(args, config: RunConfig) -> list[CheckReport]:
    wit = collinearity_scan(args.bivector)
    return [CheckReport(
        "plucker.collinear", args.point, PASS,
        witnesses=[{"witness": None if wit is None else {
            "param": "all" if wit.param == "all" else [str(c) for c in wit.param],
            "common_vector": [str(c) for c in wit.common_vector]}}])]


def _prime_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"takes comma-separated integers, not {text!r}") from None


def _one_prime(text: str) -> tuple[int]:
    try:
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# Every option besides --format and --out, with the RunConfig field it parses
# into (RunConfig checks the value); a None default keeps RunConfig's default.
_OPTIONS = {
    "--max-rank": ("max_rank", {"type": int}),
    "--primes": ("primes_plucker", {"type": _prime_list, "metavar": "PRIMES"}),
    "--q": ("primes_segre", {"type": _one_prime, "default": (3,), "metavar": "Q"}),
    "--pair": (None, {"required": True}),
    "--mode": (None, {"choices": ("sigma", "tau", "both"), "default": "both"}),
    "--point": (None, {"required": True}),
}

# One row per subcommand: its words, reports(args, config), the options it
# reads, then any config values it reads that none of its options sets.
COMMANDS = (
    ("catalog", lambda args, config: [rep for pair in pairs.catalog(config.max_rank)
                                      for rep in correspondence_checks(pair)], ("--max-rank",)),
    ("verify-pair", _pair_reports, ("--pair",)),
    ("degeneracy", lambda args, config: [
        rep for rep in _pair_reports(args, config)
        if args.mode == "both" or rep.check_id.endswith(args.mode)], ("--pair", "--mode")),
    ("infinity-locus", _pair_reports, ("--pair",)),
    ("normal-bundle", _pair_reports, ("--pair",)),
    ("vmrt-chain", lambda args, config: [vmrt_chain_check(config.max_rank)], (), "max_rank"),
    ("run-all", lambda args, config: _all_reports(config), ("--max-rank", "--primes"),
     "primes_segre", "seed"),
    ("pluecker survey", lambda args, config: plucker_suite(config.primes_plucker), ("--primes",)),
    ("pluecker section", _section_reports, ("--point", "--primes")),
    ("pluecker collinear", _collinear_reports, ("--point",)),
    ("segre fitting", lambda args, config: segre_suite(config.primes_segre), ("--q",)),
)


def _resolve_inputs(args, config: RunConfig) -> None:
    """Parse and check every literal input, so that bad input raises
    ValueError here and not from inside a suite."""
    if "pair" in args:
        args.deletion_pair = parse_pair_id(args.pair)
    if "point" in args:
        args.bivector = parse_bivector(args.point)
        if args.pluecker_command == "section":      # the point and ell span a plane
            ell_plane(args.bivector)
        else:                                       # collinear: a point of G(2,5)
            plane_spanned_by(args.bivector)
    for p in config.primes_plucker:       # every Plücker lab refuses F_2
        require_odd_prime(p)


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` reports it in one line, not usage text."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def main(argv: "list[str] | None" = None) -> int:
    parser = _Parser(
        prog="delpair",
        description="verification toolkit for deletion-type pairs of "
                    "Hermitian symmetric spaces")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, reports, options, *reads in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in groups:           # "pluecker" and "segre"
            groups[group] = groups[""].add_parser(group).add_subparsers(
                dest=f"{group}_command", required=True)
        sp = groups[group].add_parser(name)
        sp.add_argument("--format", dest="fmt", choices=("json", "markdown"), default="json")
        sp.add_argument("--out")
        for flag in options:
            sp.add_argument(flag, dest=_OPTIONS[flag][0], **_OPTIONS[flag][1])
        sp.set_defaults(reports=reports, reads=tuple(reads))

    try:
        args = parser.parse_args(argv)
        # fmt and the RunConfig fields that this command's options set
        given = {k: v for k, v in vars(args).items()
                 if k in {"fmt", *(field for field, _ in _OPTIONS.values())}}
        config = RunConfig(**{k: v for k, v in given.items() if v is not None})
        _resolve_inputs(args, config)
    except ValueError as exc:     # input errors: every delpair error class subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        code, doc = _verdict(config, args.reports(args, config), (*given, *args.reads))
    except (ValueError, CertificationError) as exc:     # internal failures, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = bundle_json(doc) if config.fmt == "json" else bundle_markdown(doc)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:                # e.g. --out in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
