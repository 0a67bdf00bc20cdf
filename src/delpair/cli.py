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


# Every option, with the key of its value in the parsed arguments, which is
# the RunConfig field it sets where it sets one (RunConfig checks the value);
# a None default keeps RunConfig's default.  The message of a ValueError from
# a type is the option's usage error.
_OPTIONS = {
    "--format": ("fmt", {"choices": ("json", "markdown"), "default": "json"}),
    "--out": ("out", {}),
    "--max-rank": ("max_rank", {"type": _int}),
    "--primes": ("primes_plucker", {"type": _prime_list}),
    "--q": ("primes_segre", {"type": lambda text: (_int(text),), "default": (3,)}),
    "--pair": ("pair", {"required": True}),
    "--mode": ("mode", {"choices": ("sigma", "tau", "both"), "default": "both"}),
    "--point": ("point", {"required": True}),
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

_CONFIG_FIELDS = {key for key, _ in _OPTIONS.values()} & set(RunConfig._fields)
_HELP = ("-h", "--help")


def _usage(flag: str) -> str:
    """``flag`` and its value as a usage line shows them."""
    spec = _OPTIONS[flag][1]
    shown = ("{" + ",".join(spec["choices"]) + "}" if "choices" in spec
             else flag[2:].upper().replace("-", "_"))
    return f"{flag} {shown}" if spec.get("required") else f"[{flag} {shown}]"


def _option(word: str, flags: tuple, prog: str) -> "tuple | None":
    """How ``word`` reads where -h, --help and ``flags`` are the options:
    None for a value, else (flag, the value after "=" or None), flag None
    for an unknown option.  A word names the flag that it is, or that it
    alone prefixes after "--", either followed by "=" and a value or not;
    a prefix of several raises ValueError.  Any other word that starts with
    "-" is an unknown option, unless it is a number or holds a space."""
    if word[:1] != "-" or word == "-":
        return None
    head, eq, value = word.partition("=")
    flags = (*_HELP, *flags)
    named = [flag for flag in flags if flag == head] or [
        flag for flag in flags if head[:2] == "--" < head and flag.startswith(head)]
    if len(named) > 1:
        raise ValueError(f"{prog}: ambiguous option: {word} could match {', '.join(named)}")
    if named:
        return named[0], value if eq else None
    whole, dot, fraction = word[1:].partition(".")
    if (whole + fraction).isdecimal() and (fraction or not dot) or " " in word:
        return None                 # a number, or a literal such as "- e1^e2"
    return None, None


def _help(prog: str, value: "str | None", usage: str) -> None:
    if value is not None:
        raise ValueError(f"{prog}: argument -h/--help: ignored explicit argument {value!r}")
    print(f"usage: {prog} [-h] {usage}")
    raise SystemExit(0)


def _parse_args(argv: "list[str]") -> dict:
    """argv's arguments: those of its COMMANDS row, keyed by destination and
    defaulted, with "command", "runs" and for a group "<group>_command".

    The words of one row come first.  Each option of that row is then read
    from ``--flag value`` or ``--flag=value``, and a repeat keeps its last
    value.  A usage error raises ValueError with the message of the
    standard library's parser (tests/oracles.py builds it from COMMANDS);
    help prints the usage and exits 0.
    """
    path, words, extras = "", list(argv), []
    while path not in {row[0] for row in COMMANDS}:     # "" or a group word
        prog, dest = f"delpair {path}".rstrip(), f"{path}_command" if path else "command"
        names = list(dict.fromkeys(row[0].split()[len(path.split())] for row in COMMANDS
                                   if row[0].startswith(path)))
        while words and (option := _option(words[0], (), prog)):    # before the command word
            if option[0]:
                _help(prog, option[1], "{" + ",".join(names) + "} ...")
            extras.append(words.pop(0))
        if not words:
            raise ValueError(f"{prog}: the following arguments are required: {dest}")
        if words[0] not in names:
            raise ValueError(f"{prog}: argument {dest}: invalid choice: {words[0]!r} "
                             f"(choose from {', '.join(map(repr, names))})")
        path = f"{path} {words.pop(0)}".lstrip()
    runs, options = next(row[1:] for row in COMMANDS if row[0] == path)
    flags, prog = (*_COMMON, *options), f"delpair {path}"
    args = {_OPTIONS[flag][0]: _OPTIONS[flag][1].get("default") for flag in flags}
    # every word is read first, so that an ambiguous prefix refuses before any value
    read = zip(words, [_option(word, flags, prog) for word in words])
    for word, option in read:
        flag, value = option or (None, None)
        if flag is None:
            extras.append(word)
            continue
        if flag in _HELP:
            _help(prog, value, " ".join(map(_usage, flags)))
        if value is None:           # the next word, which must be a value
            value, option = next(read, ("", ()))
            if option is not None:
                raise ValueError(f"{prog}: argument {flag}: expected one argument")
        spec = _OPTIONS[flag][1]
        try:
            value = spec.get("type", str)(value)
        except ValueError as exc:
            raise ValueError(f"{prog}: argument {flag}: {exc}") from None
        if value not in spec.get("choices", (value,)):
            raise ValueError(f"{prog}: argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, spec['choices']))})")
        args[_OPTIONS[flag][0]] = value
    missing = [flag for flag in flags
               if _OPTIONS[flag][1].get("required") and args[_OPTIONS[flag][0]] is None]
    if missing:
        raise ValueError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"delpair: unrecognized arguments: {' '.join(extras)}")
    group, _, name = path.rpartition(" ")
    args.update(command=group or name, runs=runs)
    if group:
        args[f"{group}_command"] = name
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
        args = _parse_args(argv)
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
