"""The argparse parser of the command line: it writes every help text and usage
error, and it is the oracle of ``delpair.cli``'s table parser, which hands it
every argv that it does not read itself."""
from __future__ import annotations

import argparse

from .cli import _COMMON, _OPTIONS, COMMANDS


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` reports it in one line, not usage text."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _usage_type(convert):
    """``convert``, its ValueError raised as the ArgumentTypeError whose
    message argparse prints as it is."""
    def converted(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return converted


def parse_args(argv: "list[str]") -> dict:
    """argv's arguments, keyed as ``delpair.cli`` reads them; a usage error
    raises ValueError, and help prints and exits 0."""
    parser = _Parser(
        prog="delpair",
        description="verification toolkit for deletion-type pairs of "
                    "Hermitian symmetric spaces")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, runs, options in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in groups:           # "pluecker" and "segre"
            groups[group] = groups[""].add_parser(group).add_subparsers(
                dest=f"{group}_command", required=True)
        sp = groups[group].add_parser(name)
        for flag in (*_COMMON, *options):
            field, spec = _OPTIONS[flag]
            if "type" in spec:
                spec = {**spec, "type": _usage_type(spec["type"])}
            sp.add_argument(flag, dest=field, **spec)
        sp.set_defaults(runs=runs)
    return vars(parser.parse_args(argv))
