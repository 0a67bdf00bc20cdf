"""Build and check every pin of the byte contract, ``tests/goldens.json``.

``python tests/pins.py [NAME ...]`` prints one line per named pin, or per pin,
and exits 1 naming each pin whose sha256, exit code or summary differs, or
that the table lacks.  It
imports only the standard library and delpair.  An entry holds ``sha256``, an
optional ``summary`` and one way to build its bytes:

- ``argv``: ``delpair.cli.main(argv)`` in process, which must exit 0 with
  nothing on stderr; its stdout, then the file ``--out`` names, written to a
  temporary directory instead.
- ``run_all``: the JSON bundle of ``run_all(RunConfig(**run_all))``, which
  must exit 0.  ``run-all`` cannot set the Segre primes of the rank pins.
- ``seeded``: ``pluecker <command> --point P`` with each of ``options`` on
  the literals P of ``seeded_section_bivectors(Random(seed), points)``; the
  sha is over [P, options, exit code, stdout, stderr] per run, and the
  summary counts the runs by exit code.

Each pin is built once per process by ``build``, whose bundle the Tier-1
fixtures share; a caller reads that bundle and never changes it.
"""
import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from delpair import cli
from delpair.checks import run_all
from delpair.projgeo.plucker import PAIRS, wedge
from delpair.report import RunConfig, bundle_json

TABLE = Path(__file__).with_name("goldens.json")


def seeded_section_bivectors(rng: random.Random, n: int):
    """n integer bivectors: wedges of vectors in {-3..3}^5 (decomposable)
    alternating with one to three coordinates from -7..10 (mostly not).
    Coefficients divisible by 5 or 7 make some planes fail certification
    at those primes, and a point on ell leaves no plane at all."""
    for k in range(n):
        if k % 2 == 0:
            coords = (0,) * 10
            while not any(coords):
                u, v = ([rng.randint(-3, 3) for _ in range(5)] for _ in range(2))
                coords = wedge(u, v)
        else:
            coords = [0] * 10
            for i in rng.sample(range(10), rng.randint(1, 3)):
                coords[i] = rng.choice([-7, -5, -2, -1, 1, 2, 3, 5, 10])
        yield tuple(coords)


def _main(argv: "list[str]") -> "tuple[int, str, str]":
    """The exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def table() -> dict:
    return json.loads(TABLE.read_text("utf-8"))


@functools.lru_cache(maxsize=None)
def build(name: str) -> "tuple[int, str, str, dict | None, dict | None]":
    """The exit code, stderr, sha256 and summary of pin ``name``, and its
    bundle: the dict ``run_all`` returns, or for an ``argv`` pin with a
    summary the JSON it wrote; None for the other pins."""
    entry = table()[name]
    stderr, summary, doc = "", None, None
    if "run_all" in entry:
        config = {k: tuple(v) if isinstance(v, list) else v for k, v in entry["run_all"].items()}
        code, doc = run_all(RunConfig(**config))
        sha, summary = hashlib.sha256(bundle_json(doc).encode("utf-8")).hexdigest(), doc["summary"]
    elif "seeded" in entry:
        spec, digest, code, summary = entry["seeded"], hashlib.sha256(), 0, {}
        for coords in seeded_section_bivectors(random.Random(spec["seed"]), spec["points"]):
            point = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} e{i}^e{j}"
                             for (i, j), c in zip(PAIRS, coords) if c)
            for options in spec["options"]:
                run = _main(["pluecker", spec["command"], "--point", point, *options])
                summary[f"exit {run[0]}"] = summary.get(f"exit {run[0]}", 0) + 1
                digest.update(json.dumps([point, options, *run]).encode())
        sha = digest.hexdigest()
    else:
        argv = list(entry["argv"])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            if "--out" in argv:
                argv[argv.index("--out") + 1] = str(out)
            code, stdout, stderr = _main(argv)
            data = stdout.encode("utf-8") + (out.read_bytes() if out.exists() else b"")
        sha = hashlib.sha256(data).hexdigest()
        if code == 0 and "summary" in entry:
            doc = json.loads(data)
            summary = doc["summary"]
    return code, stderr, sha, summary, doc


def check(name: str) -> "str | None":
    """None when pin ``name`` holds, else what differs."""
    entry = table()[name]
    code, stderr, sha, summary, _ = build(name)
    if code != 0 or stderr:
        return f"exit {code}: {stderr.strip()}"
    if sha != entry["sha256"]:
        return f"sha256 {sha}, pinned {entry['sha256']}"
    if summary != entry.get("summary", summary):
        return f"summary {summary}, pinned {entry['summary']}"
    return None


def main(names: "list[str]") -> int:
    failed = []
    for name in names or table():
        problem = check(name) if name in table() else "no such pin"
        print(f"{name}: {problem or 'ok'}")
        if problem:
            failed.append(name)
    if failed:
        print(f"{len(failed)} pins differ: {' '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
