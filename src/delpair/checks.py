"""Every root and pair check of the run-all bundle, and SUITES, the one ordered
table of its suites; each lab row reads its own lab module, loaded by ``lab``
on first use."""
from __future__ import annotations

from functools import lru_cache

from . import hss, normalbundle, pairs, sff
from .pairs import CorrespondenceError, DeletionPair
from .report import (
    FAIL,
    INDETERMINATE,
    PASS,
    SKIPPED,
    CheckReport,
    RunConfig,
    bundle,
)
from .rootsys import (
    add,
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
            "Gamma": list(pair.big_gamma),
            "dim_sub": nc0, "dim_ambient": nc,
            "maximal": verdict.maximal,
            "decompositions_via": list(verdict.witness_ids()),
        }])]


def degeneracy_checks(pair: DeletionPair) -> list[CheckReport]:
    ctx = sff.SFFContext.for_pair(pair)
    ks, kt = sff.kernels(ctx)
    ars = pair.ambient_rs()
    gamma = ars.simple_root(pair.gamma)
    adjacent = [add(gamma, ars.simple_root(b))
                for b in pair.ambient.diagram.neighbors(pair.gamma)]
    missing = [list(a) for a in adjacent if a not in ks.kernel_weights]
    return [
        CheckReport("sff.kernel_sigma", pair.pair_id,
                    PASS if ks.strict and not missing else FAIL,
                    witnesses=[{"strict": ks.strict,
                                "kernel": [list(w) for w in sorted(ks.kernel_weights)],
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


@lru_cache(maxsize=1)
def _catalog(max_rank: int) -> tuple[DeletionPair, ...]:
    """One catalog for the four pair rows, parsed once per run."""
    return tuple(pairs.catalog(max_rank))


def lab(name: str):
    """The lab module ``delpair.<name>``, imported on first use.

    The three lab rows of SUITES and the point commands reach their lab only
    through here, so a command loads the lab it reads and no other: a pair
    command loads none, the Plücker and Segre commands not ``labs``, nor its
    ``chevalley`` and ``random``.
    """
    return __import__(f"delpair.{name}", fromlist=["*"])


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
    "plucker": (lambda config: lab("projgeo.plucker").plucker_suite(config.primes_plucker),
                ("primes_plucker",)),
    "segre.fitting": (lambda config: [lab("projgeo.segre").segre_fitting_report(q)
                                      for q in config.primes_segre], ("primes_segre",)),
    "properties": (lambda config: lab("labs").property_suite(_PROPERTY_SYSTEMS), ("seed",)),
}


def run_all(config: RunConfig) -> tuple[int, dict]:
    """Every SUITES row, in a bundle that echoes every field of ``config``."""
    return verdict(config, [rep for reports, _ in SUITES.values() for rep in reports(config)])


def verdict(config: RunConfig, reports: list[CheckReport], fields=None) -> tuple[int, dict]:
    """The bundle, echoing ``fields`` of ``config``, and its exit code: 0 iff no fail."""
    doc = bundle(config, reports, fields)
    return (0 if doc["summary"][FAIL] == 0 else 1), doc
