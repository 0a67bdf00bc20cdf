"""Machine-readable check reports and run configuration."""
from __future__ import annotations

from collections import Counter

from .frozen import Frozen

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"
SKIPPED = "skipped"

_STATUSES = (PASS, FAIL, INDETERMINATE, SKIPPED)

DEFAULT_SEED = 20230915

# MAX_RANK is the rank of the largest pinned bundle.  The Plücker bound is the prime
# whose survey output is pinned; time no longer sets it, since a fresh survey takes
# 0.48-0.75 s at 23 (quiet to busy) and 1.3 s at 29 on a 2-core Xeon VM, and raising
# it would change what the command line accepts.  The Segre bound is the same prime;
# the Segre check takes 4.1-4.9 s and 112 MB at 23.
MAX_RANK = 20
MAX_PLUCKER_PRIME = 23
MAX_SEGRE_PRIME = 23


class CertificationError(RuntimeError):
    """A rational locus description disagreed with a prime-field enumeration."""


class CheckReport:
    """Verdict of one verification with structured witnesses; mutable."""

    def __init__(self, check_id: str, subject: str, status: str,
                 witnesses: "list | None" = None, notes: str = "") -> None:
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        if status in (FAIL, INDETERMINATE) and not (witnesses or notes):
            raise ValueError(f"{status} report needs witnesses or notes")
        self.check_id = check_id
        self.subject = subject
        self.status = status
        self.witnesses = [] if witnesses is None else witnesses    # one list per report
        self.notes = notes

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "subject": self.subject,
            "status": self.status,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


class RunConfig(Frozen, fields=("max_rank", "primes_plucker", "primes_segre", "fmt")):
    """What one run computes and how it prints, checked at construction."""

    seed = DEFAULT_SEED         # not a field: the property suite's one seed, echoed

    def __init__(self, max_rank: int = 7, primes_plucker: tuple[int, ...] = (5, 7),
                 primes_segre: tuple[int, ...] = (2, 3), fmt: str = "json") -> None:
        object.__setattr__(self, "max_rank", max_rank)
        object.__setattr__(self, "primes_plucker", primes_plucker)
        object.__setattr__(self, "primes_segre", primes_segre)
        object.__setattr__(self, "fmt", fmt)
        if not 4 <= max_rank <= MAX_RANK:
            raise ValueError(f"max_rank must be between 4 and {MAX_RANK}")
        for name, primes, bound in (("primes_plucker", primes_plucker, MAX_PLUCKER_PRIME),
                                    ("primes_segre", primes_segre, MAX_SEGRE_PRIME)):
            for p in primes:
                if p <= bound * bound:      # past bound², refused without trial division
                    require_prime(p)
                if p > bound:
                    raise ValueError(f"{name} takes primes up to {bound}, not {p}")
            repeated = sorted(p for p, k in Counter(primes).items() if k > 1)
            if repeated:
                raise ValueError(f"{name} repeats {', '.join(map(str, repeated))}")
        if fmt not in ("json", "markdown"):
            raise ValueError(f"unknown output format {fmt!r}")

    def to_dict(self, fields: "tuple[str, ...] | None" = None) -> dict:
        """The echo of ``fields``, every field by default; ``fmt`` echoes as "format"."""
        echo = {"max_rank": self.max_rank, "primes_plucker": list(self.primes_plucker),
                "primes_segre": list(self.primes_segre), "fmt": self.fmt, "seed": self.seed}
        return {("format" if k == "fmt" else k): v for k, v in echo.items()
                if fields is None or k in fields}


def is_prime(p: int) -> bool:
    """Trial division; the one primality test behind RunConfig and the finite-field labs."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int) -> None:
    """Raise the one error message every prime argument gets."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def require_odd_prime(p: int) -> None:
    """Raise unless p is a prime at which the Plücker quadrics stay nondegenerate."""
    if p == 2:
        raise ValueError("characteristic 2 degenerates the Plücker quadrics")
    require_prime(p)


def bundle(config: RunConfig, reports: list[CheckReport],
           fields: "tuple[str, ...] | None" = None) -> dict:
    ordered = sorted(reports, key=lambda r: (r.check_id, r.subject))
    summary = {s: 0 for s in _STATUSES}
    for r in ordered:
        summary[r.status] += 1
    return {
        "config": config.to_dict(fields),
        "reports": [r.to_dict() for r in ordered],
        "summary": summary,
    }


def bundle_json(b: dict) -> str:
    """``json.dumps(b, sort_keys=True, indent=2)`` and a newline, written directly.

    Bundles hold dicts with string keys, lists and tuples (both arrays),
    strings, ints, bools and None; any other type raises TypeError.
    """
    out: list[str] = []
    _write_json(b, "\n", out, {})
    out.append("\n")
    return "".join(out)


# The escapes json writes for these characters; every other character outside
# printable ASCII it writes as \uXXXX.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _quote(text: str) -> str:
    """``json.dumps(text)``: the JSON string of ``text`` in ASCII, as ensure_ascii writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    out = ['"']
    for ch in text:
        n = ord(ch)
        if 0x20 <= n < 0x7f or ch in _ESCAPES:
            out.append(_ESCAPES.get(ch, ch))
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:                           # past U+FFFF: a UTF-16 surrogate pair
            n -= 0x10000
            out.append(f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}")
    out.append('"')
    return "".join(out)


def _write_json(value, newline: str, out: list[str], quoted: dict) -> None:
    """Append the JSON text of ``value``; ``newline`` is a newline and the current
    indent, and ``quoted`` maps each string written so far to its JSON text (a
    bundle repeats its keys, check ids, subjects and statuses)."""
    kind = type(value)
    if kind is str:
        out.append(quoted.get(value) or quoted.setdefault(value, _quote(value)))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"bundle keys are strings, not {type(key).__name__}")
            out.append(sep + (quoted.get(key) or quoted.setdefault(key, _quote(key))) + ": ")
            _write_json(value[key], inner, out, quoted)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out, quoted)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        raise TypeError(f"cannot write {kind.__name__} into a bundle")


def bundle_markdown(b: dict) -> str:
    """Markdown rendering derived from the JSON model (never independently)."""
    lines = ["# Verification bundle", ""]
    cfg = b["config"]
    lines.append("config: " + ", ".join(f"{k}={cfg[k]}" for k in sorted(cfg)))
    lines.append("")
    lines.append("| check | subject | status | notes |")
    lines.append("|---|---|---|---|")
    for r in b["reports"]:
        notes = r["notes"].replace("|", "/").replace("\n", " ")
        lines.append(f"| {r['check_id']} | {r['subject']} | {r['status']} | {notes} |")
    s = b["summary"]
    lines.append("")
    lines.append("summary: " + ", ".join(f"{k}={s[k]}" for k in sorted(s)))
    return "\n".join(lines) + "\n"
