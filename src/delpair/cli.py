"""Command-line front end: parses a subcommand, runs its checks, prints the bundle."""
from __future__ import annotations

import atexit
import gc
import sys

from .checks import (
    SUITES,
    correspondence_checks,
    degeneracy_checks,
    infinity_checks,
    lab,
    normal_bundle_checks,
    run_all,                # re-exported: callers import delpair.cli.run_all
    verdict,
)
from .pairs import DeletionPair, _step, catalog_specs
from .report import (
    MAX_RANK,
    CertificationError,
    RunConfig,
    bundle_json,
    bundle_markdown,
    require_odd_prime,
)
from .rootsys import ChainError, DiagramError, diagram_terms, parse_marked

# A delpair process ends once its bundle is out, so it skips the teardown of
# what it cached.  At exit this moves every tracked object to the permanent
# generation: the interpreter's final collections then skip the cached root
# systems, Chevalley tables, catalogs and survey tables, and the OS reclaims
# their memory.  Other atexit handlers still run and stdout and stderr are
# still flushed; files are closed by their ``with`` blocks, and no delpair
# object defines __del__ (finalizers of objects in reference cycles do not
# run at exit).  The hook is registered here, not in the package, so a
# library import such as ``import delpair.checks`` registers nothing, while
# ``python -m delpair.cli``, the ``delpair`` script and every program that
# imports delpair.cli exit this way.
#
# ``main`` also runs with the cyclic collector off, and gives the caller's
# setting back on every way out, so in-process callers, pytest included,
# keep their own.  Its collections find nothing to free: in a CLI process
# every automatic pass freed 0 objects (15 passes for the default run-all,
# 99 for run-all --max-rank 20 --primes 3, 2 for verify-pair --pair
# E7:a7/a6, 3 460 for segre fitting --q 23); with the collector off from
# the start, gc.collect() after main finds no unreachable object for those
# commands or pluecker survey --primes 23; and peak RSS does not change (15,
# 30, 14, 111 and 19 MB).  Only ``main`` switches it off: an import would
# reach every program that imports delpair.cli, and library callers of
# ``checks.run_all`` keep their own setting.
atexit.register(gc.freeze)


def parse_pair_id(text: str) -> DeletionPair:
    """Resolve "<diagram>:<gamma>/<gamma0>", of rank at most MAX_RANK, to its catalog entry."""
    parts = text.split("/")
    if ":" not in text or len(parts) != 2 or not all(part.strip() for part in parts):
        raise DiagramError(f"pair id {text!r} is not of the form D:g/g0")
    head, gamma0 = parts
    # the rank is summed from the literal's terms, so that a pair id past
    # MAX_RANK is refused before parse_marked builds and types its diagram
    diagram_text, colon, _ = head.partition(":")
    rank = sum(n for _, n in diagram_terms(diagram_text)) if colon else 0
    if rank > MAX_RANK:
        raise DiagramError(f"pair id {text!r} has rank {rank}, "
                           f"above the largest rank {MAX_RANK}")
    md = parse_marked(head)
    # through the memo of pairs: a pair and its Phi refer to each other, and
    # the memo keeps that cycle reachable instead of leaving it to the collector
    pair = _step(md, gamma0.strip())
    specs = catalog_specs(max(4, md.diagram.rank))
    if pair.pair_id not in {f"{ambient}/{g0}" for ambient, g0 in specs}:
        raise ChainError(f"{pair.pair_id} is not a catalog deletion pair")
    return pair


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _prime_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"takes comma-separated integers, not {text!r}") from None


def _one_prime(text: str) -> tuple[int]:
    return (_int(text),)


# Every option, with the RunConfig field it parses into (RunConfig checks the
# value) or None when it sets none; a None default keeps RunConfig's default.
# The message of a ValueError from a type is the option's usage error.
_OPTIONS = {
    "--format": ("fmt", {"choices": ("json", "markdown"), "default": "json"}),
    "--out": (None, {}),
    "--max-rank": ("max_rank", {"type": _int}),
    "--primes": ("primes_plucker", {"type": _prime_list, "metavar": "PRIMES"}),
    "--q": ("primes_segre", {"type": _one_prime, "default": (3,), "metavar": "Q"}),
    "--pair": (None, {"required": True}),
    "--mode": (None, {"choices": ("sigma", "tau", "both"), "default": "both"}),
    "--point": (None, {"required": True}),
}

# The options of every subcommand, listed first in its help.
_COMMON = ("--format", "--out")

# One row per subcommand: its words, the SUITES rows it runs or the check it
# runs on its one literal input, and the options it reads besides _COMMON.
# Its bundle echoes format, the fields its options set and the fields its
# SUITES rows read.
COMMANDS = (
    ("catalog", ("pairs.correspondence",), ("--max-rank",)),
    ("verify-pair", correspondence_checks, ("--pair",)),
    ("degeneracy", degeneracy_checks, ("--pair", "--mode")),
    ("infinity-locus", infinity_checks, ("--pair",)),
    ("normal-bundle", normal_bundle_checks, ("--pair",)),
    ("vmrt-chain", ("hss.vmrt_chain",), ()),
    ("run-all", tuple(SUITES), ("--max-rank", "--primes")),
    ("pluecker survey", ("plucker",), ("--primes",)),
    ("pluecker section", lambda *inputs: lab("projgeo.plucker").section_reports(*inputs),
     ("--point", "--primes")),
    ("pluecker collinear", lambda *inputs: lab("projgeo.plucker").collinear_reports(*inputs),
     ("--point",)),
    ("segre fitting", ("segre.fitting",), ("--q",)),
)

_CONFIG_FIELDS = {field for field, _ in _OPTIONS.values()} - {None}


def _dest(flag: str) -> str:
    """The key of ``flag``'s value in the parsed arguments, as argparse names it."""
    return _OPTIONS[flag][0] or flag[2:]


def _table_args(argv: "list[str]") -> "dict | None":
    """The mapping of ``argv`` that argparse's parser gives, or None.

    Read here are the words of one COMMANDS row followed by distinct
    ``--flag value`` pairs of that command's options, each value converted
    by its type and in its choices, with every required option given.  A
    value starts with no ``-``, or with ``- `` as a bivector literal may;
    argparse reads both as values.  Any other argv (help, ``--flag=value``,
    an abbreviation, a repeat, an unread option, a bad value, a missing or
    unknown command) gives None.
    """
    for path, runs, options in COMMANDS:
        words = path.split()
        if argv[:len(words)] == words:
            break
    else:
        return None
    flags = (*_COMMON, *options)
    args = {_dest(flag): _OPTIONS[flag][1].get("default") for flag in flags}
    args.update(command=words[0], runs=runs)
    if len(words) == 2:                 # "pluecker" and "segre"
        args[f"{words[0]}_command"] = words[1]
    rest = argv[len(words):]
    given = rest[::2]
    if len(rest) % 2 or len(set(given)) < len(given) or not set(given) <= set(flags):
        return None
    for flag, value in zip(given, rest[1::2]):
        if value.startswith("-") and not value.startswith("- "):
            return None
        spec = _OPTIONS[flag][1]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[_dest(flag)] = value
    if any(_OPTIONS[flag][1].get("required") and flag not in given for flag in flags):
        return None
    return args


def _resolve_inputs(args: dict, config: RunConfig) -> tuple:
    """Parse and check every literal input, so that bad input raises
    ValueError here and not from inside a check; return the check's arguments."""
    inputs = ()
    if "pair" in args:
        inputs = (parse_pair_id(args["pair"]),)
    if "point" in args:
        plucker = lab("projgeo.plucker")
        omega = plucker.parse_bivector(args["point"])
        if args["pluecker_command"] == "section":   # the point and ell span a plane
            plucker.ell_plane(omega)
            inputs = (args["point"], omega, config.primes_plucker)
        else:                                       # collinear: a point of G(2,5)
            plucker.plane_spanned_by(omega)
            inputs = (args["point"], omega)
    for p in config.primes_plucker:       # every Plücker lab refuses F_2
        require_odd_prime(p)
    return inputs


def main(argv: "list[str] | None" = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(sys.argv[1:] if argv is None else list(argv))
    finally:
        if enabled:
            gc.enable()


def _error(exc: Exception) -> None:
    """Print exc on one ``error:`` line.  A message of more than 240
    characters keeps its first and last 120, joined by " … ", so a refused
    value of any length is not echoed whole."""
    text = str(exc)
    if len(text) > 240:
        text = f"{text[:120]} … {text[-120:]}"
    print(f"error: {text}", file=sys.stderr)


def _main(argv: "list[str]") -> int:
    try:
        args = _table_args(argv)
        if args is None:
            # here, not at the top: loading argparse costs more than most checks take
            from .usage import parse_args
            args = parse_args(argv)
        # fmt and the RunConfig fields that this command's options set
        given = {k: v for k, v in args.items() if k in _CONFIG_FIELDS}
        config = RunConfig(**{k: v for k, v in given.items() if v is not None})
        inputs = _resolve_inputs(args, config)
    except ValueError as exc:     # input errors: every delpair error class subclasses it
        _error(exc)
        return 2

    runs = args["runs"]
    suites = [SUITES[name] for name in runs] if isinstance(runs, tuple) else []
    try:
        reports = [rep for run, _ in suites for rep in run(config)] if suites else runs(*inputs)
        if args.get("mode", "both") != "both":    # degeneracy: one kernel only
            reports = [rep for rep in reports if rep.check_id.endswith(args["mode"])]
        code, doc = verdict(config, reports, (*given, *(f for _, reads in suites for f in reads)))
    except (ValueError, CertificationError, AssertionError) as exc:   # internal failures
        _error(exc)
        return 1
    text = bundle_json(doc) if config.fmt == "json" else bundle_markdown(doc)
    try:
        if args["out"] is not None:
            with open(args["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:                # e.g. --out in a missing directory
        _error(exc)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
