"""The cli-queries mix: seeded query generation and per-query output checks.

Queries come in decks of 8: one query of each command family and one
malformed query, each deck shuffled by the seed.  A run measures whole decks,
so every run sees the same mix.  No traffic data exists for delpair, so the
families are weighted equally; the malformed share (1 in 8) stands for the
"about one in ten" of the benchmark's design.  Pair commands draw their pair
from a seeded cycle over the 34 catalog pairs at rank 7, so each pair is
used equally often.  Nothing is drawn around inputs that fail today: random
``pluecker section`` points that a certification prime rejects, and
``infinity-locus`` on non-maximal pairs, stay in the mix and count as failed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

FAMILIES = ("verify-pair", "degeneracy", "normal-bundle", "infinity-locus",
            "section", "collinear", "vmrt-chain")
DECK = FAMILIES + ("malformed",)

PAIR_CHECKS = {
    "verify-pair": ("pairs.correspondence",),
    "normal-bundle": ("normalbundle.summands_distinct",),
    "infinity-locus": ("sff.infinity_locus",),
    "degeneracy": ("sff.kernel_sigma", "sff.kernel_tau"),
}
PLUCKER_PAIRS = tuple(combinations(range(1, 6), 2))
QUAD_SETS = tuple(tuple(sorted(set(range(1, 6)) - {m})) for m in range(1, 6))


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]
    rows: tuple[tuple[str, str], ...] = ()    # (check_id, subject) expected
    point: "tuple[int, ...] | None" = None      # Plücker coordinates of u^v
    exit_code: int = 0


def bivector_literal(x: tuple[int, ...]) -> str:
    terms = []
    for c, (i, j) in zip(x, PLUCKER_PAIRS):
        if c:
            sign = "-" if c < 0 else "+"
            coef = "" if abs(c) == 1 else f"{abs(c)} "
            terms.append(f"{sign} {coef}e{i}^e{j}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def _wedge(u, v) -> tuple[int, ...]:
    return tuple(u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1] for i, j in PLUCKER_PAIRS)


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _spans_plane_with_ell(x: tuple[int, ...]) -> bool:
    e12 = [Fraction(int(k == 0)) for k in range(10)]
    e13 = [Fraction(int(k == 1)) for k in range(10)]
    return _rank([[Fraction(c) for c in x], e12, e13]) == 3


def _malformed_pair(rng: random.Random, pid: str) -> str:
    head, _, gamma0 = pid.partition("/")
    diagram, _, gamma = head.partition(":")
    rank = int(diagram[1:])             # catalog ambients are connected, e.g. "E7"
    return rng.choice([
        f"{head}{gamma0}",                              # no slash
        f"{diagram}{gamma}/{gamma0}",                   # no colon
        f"{rng.choice('HIJKXYZ')}{diagram[1:]}:{gamma}/{gamma0}",
        f"{diagram}:a{rank + rng.randint(1, 3)}/{gamma0}",
        f"{head}/a{rank + rng.randint(1, 3)}",
        f"{head}/",
        "",
    ])


def _malformed_literal(rng: random.Random, text: str) -> str:
    i = rng.randint(1, 5)
    return rng.choice([
        f"e{rng.choice((0, 6, 7, 9))}^e{i}",            # index out of range
        f"e{i}^e{i}",
        f"e{i} e{i % 5 + 1}",                           # no caret
        f"{text} +",
        "",
        f"{text} + x",
    ])


class QueryStream:
    """Endless seeded queries over the given catalog pair ids."""

    def __init__(self, seed: int, pair_ids: list[str]) -> None:
        self._rng = random.Random(f"cli-queries/{seed}")
        self._pair_ids = sorted(pair_ids)
        self._cycles: dict[str, list[str]] = {}
        self._deck: list[str] = []

    def _pair(self, kind: str) -> str:
        cycle = self._cycles.setdefault(kind, [])
        if not cycle:
            cycle.extend(self._pair_ids)
            self._rng.shuffle(cycle)
        return cycle.pop()

    def _point(self) -> tuple[int, ...]:
        while True:
            u = [self._rng.randint(-3, 3) for _ in range(5)]
            v = [self._rng.randint(-3, 3) for _ in range(5)]
            x = _wedge(u, v)
            if any(x):
                return x

    def __iter__(self):
        return self

    def __next__(self) -> Query:
        if not self._deck:
            self._deck = list(DECK)
            self._rng.shuffle(self._deck)
        kind = self._deck.pop()
        rng = self._rng
        if kind in PAIR_CHECKS:
            pid = self._pair(kind)
            argv = (kind, "--pair", pid)
            checks = PAIR_CHECKS[kind]
            if kind == "degeneracy":
                mode = rng.choice(("sigma", "tau", "both"))
                argv += ("--mode", mode)
                checks = tuple(c for c in checks if mode == "both" or c.endswith(mode))
            return Query(kind, argv, tuple((c, pid) for c in checks))
        if kind == "vmrt-chain":
            return Query(kind, ("vmrt-chain",), (("hss.vmrt_chain", "E7:a7"),))
        if kind in ("section", "collinear"):
            x = self._point()
            code = 0 if kind == "collinear" or _spans_plane_with_ell(x) else 2
            return Query(kind, ("pluecker", kind, "--point", bivector_literal(x)),
                         point=x, exit_code=code)
        if rng.random() < 0.5:
            cmd = rng.choice(list(PAIR_CHECKS))
            return Query(kind, (cmd, "--pair", _malformed_pair(rng, self._pair(kind))),
                         exit_code=2)
        cmd = rng.choice(("section", "collinear"))
        text = _malformed_literal(rng, bivector_literal(self._point()))
        return Query(kind, ("pluecker", cmd, "--point", text), exit_code=2)


def _quadrics(x) -> list:
    c = dict(zip(PLUCKER_PAIRS, x))
    return [c[a, b] * c[cc, d] - c[a, cc] * c[b, d] + c[a, d] * c[b, cc]
            for a, b, cc, d in QUAD_SETS]


def _in_span(vec, u, v) -> bool:
    return _rank([[Fraction(a) for a in r] for r in (u, v)]) == _rank(
        [[Fraction(a) for a in r] for r in (u, v, vec)])


def _plane_of(x: tuple[int, ...]):
    """Two spanning vectors of the plane of a decomposable bivector."""
    c = dict(zip(PLUCKER_PAIRS, x))
    rows = []
    for j in range(1, 6):      # columns of the alternating matrix span the plane
        rows.append([Fraction(c.get((i, j), 0) - c.get((j, i), 0)) for i in range(1, 6)])
    basis = []
    for r in rows:
        if _rank([*basis, r]) > len(basis):
            basis.append(r)
    return basis


# The one status mismatch that is a known defect, not a wrong answer:
# ``infinity-locus`` says fail on a non-maximal pair, where run-all skips it.
KNOWN_DEFECT = ("sff.infinity_locus", "skipped", "fail")


def check(q: Query, code: int, stdout: str, stderr: str, statuses: dict) -> tuple[bool, bool, str]:
    """Classify one query's outcome as (ok, wrong_answer, reason).

    Any report the query prints is checked first, whatever the exit code: a
    verdict or witness the reference contradicts is a wrong answer.  Crashes,
    refusals, the known defect and a wrong exit code with correct output are
    failed operations but not wrong answers.
    """
    lines = [ln for ln in stderr.splitlines() if not ln.startswith("import time:")]
    if q.exit_code == 2:
        if code != 2:
            return False, code == 0, f"malformed input gave exit {code}"
        if len(lines) == 1 and lines[0].strip():
            return True, False, ""
        return False, False, f"exit 2 with {len(lines)} stderr lines"
    try:
        doc = json.loads(stdout) if stdout.strip() else None
        got = {(r["check_id"], r["subject"]): r for r in doc["reports"]} if doc else {}
    except (ValueError, KeyError, TypeError) as exc:
        return False, code == 0, f"exit {code}, unreadable bundle: {exc}"
    if not got:
        return False, False, f"exit {code}: {''.join(lines[-1:])[:120]}"
    if q.rows:
        return _check_rows(q, code, got, statuses)
    if len(got) != 1:
        return False, True, f"{len(got)} reports, expected 1"
    wrong = _check_plucker(q, next(iter(got.values()))["witnesses"][0])
    if wrong:
        return False, True, wrong
    if code != 0:
        return False, False, f"exit {code} with a correct report"
    return True, False, ""


def _check_rows(q: Query, code: int, got: dict, statuses: dict) -> tuple[bool, bool, str]:
    want = {row: statuses[row] for row in q.rows}
    seen = {row: rep["status"] for row, rep in got.items()}
    differ = {row: (want.get(row), st) for row, st in seen.items() if st != want.get(row)}
    known = {row for row, (ref, st) in differ.items() if (row[0], ref, st) == KNOWN_DEFECT}
    if set(differ) - known:
        return False, True, f"statuses {seen} != reference {want}"
    if seen.keys() != want.keys():
        return False, False, f"exit {code}: reports {sorted(seen)}, expected {sorted(want)}"
    if known:
        return False, False, f"exit {code}: known defect, fail where run-all skips"
    if code != (1 if "fail" in want.values() else 0):
        return False, False, f"exit {code} with statuses matching the reference"
    return True, False, ""


def _check_plucker(q: Query, wit: dict) -> str:
    """Why a section or collinearity report is wrong, or "" if it is right."""
    if q.kind == "section":
        bad = [p for p in wit["isolated_points"] if any(_quadrics(p))]
        return f"isolated points off the Grassmannian: {bad}" if bad else ""
    w = wit["witness"]
    if w is not None:
        vec = [Fraction(s) for s in w["common_vector"]]
        u, v = _plane_of(q.point)
        if not any(vec) or not _in_span(vec, u, v) or vec[3] or vec[4] or (
                w["param"] != "all"
                and vec[1] * Fraction(w["param"][1]) != vec[2] * Fraction(w["param"][0])):
            return f"collinearity witness {w} is not on W_b and the pencil"
    return ""
