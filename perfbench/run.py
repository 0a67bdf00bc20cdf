"""delpair benchmark: time to a checked verdict, end to end and per layer.

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 36 --trace 0

Run from the repository root.  Every operation is a fresh interpreter
(``perfbench/child.py``) started one at a time from this process, against
the sources under ``src/``.  With ``--trace 0`` the end-to-end metrics are
measured untraced; with ``--trace 1`` a separate pass wraps the public
functions of every delpair module (``perfbench/tracer.py``) and reports
per-layer metrics.  Every time is rescaled to a reference CPU speed that the
benchmark probes on the children's CPU while they run (``_watch``).  The
last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  perfbench/README.md
explains the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from queries import DECK, FAMILIES, PAIR_CHECKS, QueryStream, check

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "_out")
EXPECTED = os.path.join(BENCH, "expected.json")
WORKLOADS = ("run-all", "rank-sweep", "cli-queries")
# A run does a fixed amount of work, one operation (a deck for cli-queries)
# per OP_S seconds of --seconds and at least 2, so one seed always gives the
# same operations and counts.  At --seconds 36 that is 2 bundles or 8 decks.
OP_S = {"run-all": 18.0, "rank-sweep": 18.0, "cli-queries": 4.5}
IMPORTS_PER_OP = 2          # import-only processes before each batch operation
CHILD_LIMIT_S = 120.0       # a child is killed after this; a run-all bundle takes ~15 s
TRACE_DECKS = 2             # cli-queries decks in each traced pass
TICK_S = 0.05               # how often the speed of the children's CPU is probed
PROBE_REF_S = 100e-6        # the probe time that times are rescaled to (see README)
CLK_TCK = os.sysconf("SC_CLK_TCK")

LAYERS = ("cli", "report", "rootsys", "chevalley", "hss", "pairs", "sff",
          "normalbundle", "projgeo.linalg", "projgeo.plucker", "projgeo.segre")
CALLS = ("rootsys.build_root_system", "rootsys.delete_chain", "chevalley.build_table",
         "chevalley.bracket", "hss.noncompact_positive_roots", "pairs.catalog",
         "sff.sff_value", "projgeo.linalg.rref", "projgeo.plucker.collinearity_scan")
FUNCTION_SELF = ("chevalley.build_table", "projgeo.plucker.collinearity_scan",
                 "projgeo.plucker.dee_exhaustive_survey", "projgeo.plucker.plane_section")
PER_PAIR = ("pairs.is_maximal", "pairs.root_correspondence")


@dataclass
class Proc:
    """One finished child: outcome, timings and its diagnostics."""

    code: int
    wall_s: float
    scaled_s: float         # wall_s rescaled to the reference CPU speed
    cpu_s: float
    steal_s: "float | None"
    rss_mb: float
    stdout: str
    stderr: str
    stats: dict

    @property
    def import_s(self) -> "float | None":
        """The child's import time, rescaled like its wall time."""
        raw = self.stats.get("import_s")
        return None if raw is None else raw * self.scaled_s / self.wall_s

    def diagnostics(self) -> dict:
        return {"wall_s": self.wall_s, "scaled_s": self.scaled_s, "cpu_s": self.cpu_s,
                "steal_s": self.steal_s, "rss_mb": self.rss_mb, "code": self.code,
                "raw_import_s": self.stats.get("import_s"), "import_s": self.import_s}


def _steal_ticks() -> "int | None":
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


class Runner:
    """Starts children one at a time and reaps each before the next."""

    def __init__(self) -> None:
        self.log: list[dict] = []

    def spawn(self, op: str, args: list[str], trace: bool) -> Proc:
        paths = [os.path.join(OUT, name) for name in ("stats.json", "stdout", "stderr")]
        for path in paths:
            if os.path.exists(path):
                os.unlink(path)
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            os.path.join(BENCH, "child.py"), paths[0], "1" if trace else "0", op, *args]
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")    # caller's PYTHON* settings do not leak in
        steal0 = _steal_ticks()
        with open(paths[1], "wb") as out, open(paths[2], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=env)
            try:
                status, usage, end, marks = _watch(proc.pid, t0 + CHILD_LIMIT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        steal1 = _steal_ticks()
        try:
            with open(paths[0], encoding="utf-8") as fh:
                stats = json.load(fh)
        except (OSError, ValueError):
            stats = {}
        with open(paths[1], encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(paths[2], encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        steal = None if steal0 is None or steal1 is None else (steal1 - steal0) / CLK_TCK
        p = Proc(proc.returncode, end - t0, _rescaled(t0, end, marks),
                 usage.ru_utime + usage.ru_stime, steal, usage.ru_maxrss / 1024.0,
                 stdout, stderr, stats)
        self.log.append({"op": op, "args": args, "traced": trace, **p.diagnostics()})
        return p


def _probe() -> float:
    """Seconds for a fixed piece of pure-Python work: the best of three tries."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        d: dict = {}
        acc = 0
        for i in range(400):
            d[i % 97] = d.get(i % 97, 0) + i * i
            acc += (i * 7919) % 65521
        best = min(best, perf_counter() - t0)
    return best


def _watch(pid: int, deadline: float):
    """Reap the child, probing the CPU it shares with this process every TICK_S.

    Returns the wait status, rusage, end time and the (time, probe) marks.
    The end time is taken when the child's pidfd becomes readable, so it is
    not rounded up to a tick.  The child is killed if it is still running at
    ``deadline``.
    """
    fd = os.pidfd_open(pid)
    try:
        marks = [(perf_counter(), _probe())]
        while not select.select([fd], [], [], TICK_S)[0]:
            if perf_counter() > deadline:
                os.kill(pid, signal.SIGKILL)
                break
            marks.append((perf_counter(), _probe()))
        end = perf_counter()
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    return status, usage, end, marks


def _rescaled(t0: float, end: float, marks: list) -> float:
    """Wall time from t0 to end, each stretch rescaled to the reference probe time.

    A stretch between two marks counts (length) * PROBE_REF_S / (mean probe
    time at its ends): the time it would have taken on a CPU as fast as the
    reference.
    """
    times = [t0] + [t for t, _ in marks] + [end]
    probes = [marks[0][1]] + [p for _, p in marks] + [marks[-1][1]]
    return sum((b - a) * 2 * PROBE_REF_S / (pa + pb)
               for a, b, pa, pb in zip(times, times[1:], probes, probes[1:]))


@dataclass
class Tally:
    """Operations attempted and failed, and the reasons for the failures."""

    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    reasons: list = field(default_factory=list)
    families: dict = field(default_factory=dict)     # cli-queries: kind -> [attempted, failed]

    def add(self, attempted: int, failed: int, wrong: bool, reason: str = "",
            family: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        self.wrong |= wrong
        if reason:
            self.reasons.append(reason)
        if family:
            counts = self.families.setdefault(family, [0, 0])
            counts[0] += attempted
            counts[1] += failed


# ---------------------------------------------------------------------------
# Batch workloads: run-all and rank-sweep
# ---------------------------------------------------------------------------

def batch_op(workload: str) -> tuple[str, list[str], str]:
    bundle = os.path.join(OUT, "bundle.json")
    if workload == "run-all":
        return "cli", ["run-all", "--out", bundle], bundle
    return "rank-sweep", [bundle], bundle


def check_bundle(ref: dict, code: int, text: "bytes | None") -> tuple[int, bool, str]:
    """Failed rows, wrong-answer flag and reason for one batch bundle."""
    rows = {(c, s): st for c, s, st in ref["rows"]}
    if text is None:
        return len(rows), False, f"exit {code} without a bundle"
    digest = hashlib.sha256(text).hexdigest()
    try:
        doc = json.loads(text)
        got = {(r["check_id"], r["subject"]): r["status"] for r in doc["reports"]}
    except (ValueError, KeyError, TypeError) as exc:
        return len(rows), True, f"unreadable bundle: {exc}"
    failed = sum(1 for key, st in rows.items() if got.get(key) != st)
    failed += sum(1 for key, st in got.items() if key not in rows and st == "fail")
    pairs = sum(1 for c, _ in got if c == "pairs.correspondence")
    reasons = []
    if digest != ref["sha256"]:
        reasons.append(f"bundle sha256 {digest} != {ref['sha256']}")
    if pairs != ref["pairs"] or doc.get("summary") != ref["summary"]:
        reasons.append(f"{pairs} pairs, summary {doc.get('summary')}")
    wrong = bool(reasons)
    if code != 0:
        reasons.append(f"exit {code}")
        failed = max(failed, 1)
    return failed, wrong, "; ".join(reasons)


def run_batch(workload: str, seconds: float, trace: bool, ref: dict, runner: Runner):
    op, args, bundle = batch_op(workload)
    tally = Tally()

    def once(traced: bool) -> tuple[Proc, "bytes | None"]:
        if os.path.exists(bundle):
            os.unlink(bundle)
        p = runner.spawn(op, args, traced)
        text = None
        if os.path.exists(bundle):
            with open(bundle, "rb") as fh:
                text = fh.read()
        failed, wrong, why = check_bundle(ref, p.code, text)
        tally.add(len(ref["rows"]), failed, wrong, why)
        return p, text

    if trace:
        base, base_text = once(False)
        passes = [once(True), once(True)]
        if passes[0][1] != base_text:
            tally.add(0, 0, True, "traced bundle differs from the untraced one")
        docs = [[json.loads(t)] if t else [] for _, t in passes]
        pairs = sum(1 for d in docs[0] for r in d["reports"]
                    if r["check_id"] == "pairs.correspondence")
        return tally, trace_result([[p] for p, _ in passes], docs, [base], pairs, tally)

    runner.spawn("import", [], False)                 # warms the bytecode and file caches
    setup: list[Proc] = []
    procs: list[Proc] = []
    for _ in range(_ops(workload, seconds)):
        setup.extend(runner.spawn("import", [], False) for _ in range(IMPORTS_PER_OP))
        procs.append(once(False)[0])
    return tally, end_to_end(setup + procs, procs, tally)


def _ops(workload: str, seconds: float) -> int:
    """Operations (decks for cli-queries) in one run of ``seconds``."""
    return max(2, round(seconds / OP_S[workload]))


# ---------------------------------------------------------------------------
# cli-queries
# ---------------------------------------------------------------------------

def run_queries(seed: int, seconds: float, trace: bool, ref: dict, runner: Runner):
    statuses = {(c, s): st for c, s, st in ref["rows"]}
    pair_ids = sorted(s for c, s, _ in ref["rows"] if c == "pairs.correspondence")
    stream = QueryStream(seed, pair_ids)
    tally = Tally()

    def once(q, traced: bool) -> Proc:
        p = runner.spawn("cli", list(q.argv), traced)
        ok, wrong, why = check(q, p.code, p.stdout, p.stderr, statuses)
        tally.add(1, 0 if ok else 1, wrong, f"{' '.join(q.argv)!r}: {why}" if why else "",
                  q.kind)
        return p

    runner.spawn("import", [], False)
    if trace:
        queries = [next(stream) for _ in range(TRACE_DECKS * len(DECK))]
        base = [once(q, False) for q in queries]
        passes = [[once(q, True) for q in queries] for _ in range(2)]
        pairs = sum(1 for q in queries if q.kind in PAIR_CHECKS)
        return tally, trace_result(passes, [[], []], base, pairs, tally)

    procs = [once(next(stream), False) for _ in range(_ops("cli-queries", seconds) * len(DECK))]
    return tally, end_to_end(procs, procs, tally)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    """The 90th percentile, or the median when fewer than 10 samples cannot support it."""
    if len(values) < 10:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(children: list[Proc], procs: list[Proc], tally: Tally) -> dict:
    imports = [p.import_s for p in children if p.import_s is not None]
    if not imports:
        raise SystemExit("error: no child got through `import delpair.cli`")
    walls = [p.scaled_s for p in procs]
    return {
        "setup_s": (statistics.median(imports), "s", len(imports)),
        "verdict_s": (statistics.median(walls), "s", len(walls)),
        "query_p50_ms": (1000.0 * statistics.median(walls), "ms", len(walls)),
        "query_p90_ms": (1000.0 * _p90(walls), "ms", len(walls)),
        "peak_rss_mb": (max(p.rss_mb for p in procs), "MB", len(procs)),
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio",
                     tally.attempted),
    }


def _import_split(stderr: str) -> tuple[float, float]:
    """(sympy, rest of delpair) import seconds from ``-X importtime`` lines."""
    sympy = delpair = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[2].strip() if len(parts) == 3 else ""
        if name == "sympy" and not sympy:
            sympy = int(parts[1]) / 1e6
        elif name in ("delpair", "delpair.cli"):
            delpair += int(parts[1]) / 1e6
    return sympy, delpair - sympy


def _merge(summaries: list[dict]) -> dict:
    functions: dict = {}
    caches: dict = {}
    for s in summaries:
        for name, f in s["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(f, 0))
            for k, v in f.items():
                acc[k] += v
        for name, c in s["caches"].items():
            acc = caches.setdefault(name, dict.fromkeys(c, 0))
            for k, v in c.items():
                acc[k] += v
    return {"functions": functions, "caches": caches,
            "spans": sum(s["spans"] for s in summaries)}


def _work_counts(docs: list[dict]) -> dict:
    points = configs = 0
    for doc in docs:
        for r in doc["reports"]:
            if r["check_id"] == "plucker.survey":
                points += r["witnesses"][0]["grassmannian_points"]
            elif r["check_id"] == "segre.fitting":
                w = r["witnesses"][0]
                configs += w["a_configs"] + w["b_configs"] + w["orbit_size"]
    return {"points": points, "configs": configs}


def _repeatable(merged: dict, work: dict) -> dict:
    """The exact counts a traced pass must reproduce."""
    return {"calls": {k: (f["calls"], f["errors"]) for k, f in merged["functions"].items()},
            "caches": merged["caches"], "spans": merged["spans"], "work": work}


def trace_result(passes: list[list[Proc]], docs: list[list[dict]], base: list[Proc],
                 pairs: int, tally: Tally) -> dict:
    summaries = [[p.stats.get("trace") for p in procs] for procs in passes]
    if any(s is None for ss in summaries for s in ss):
        raise SystemExit("error: a traced child wrote no trace summary")
    merged = [_merge(ss) for ss in summaries]
    work = [_work_counts(d) for d in docs]
    if _repeatable(merged[0], work[0]) != _repeatable(merged[1], work[1]):
        tally.add(0, 0, True, "work counts differ between two traced passes")
    fns, caches = merged[0]["functions"], merged[0]["caches"]

    def fn(name: str, key: str):
        return fns.get(name, {}).get(key, 0)

    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(f["self_s"] for k, f in fns.items()
                                    if k.rsplit(".", 1)[0] == layer), "s")
    splits = [_import_split(p.stderr) for p in passes[0]]
    m["cli.import_sympy_s"] = (statistics.median(s for s, _ in splits), "s")
    m["cli.import_delpair_s"] = (statistics.median(d for _, d in splits), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (fn(name, "calls"), "count")
    for name in ("rootsys.build_root_system", "chevalley.build_table"):
        m[f"{name}.misses"] = (caches[name]["misses"], "count")
    for name in FUNCTION_SELF:
        m[f"{name}.self_s"] = (fn(name, "self_s"), "s")
    for name in PER_PAIR:
        m[f"{name}.calls_per_pair"] = (fn(name, "calls") / pairs if pairs else 0.0, "ratio")
    survey_s = fn("projgeo.plucker.dee_exhaustive_survey", "incl_s")
    segre_s = fn("projgeo.segre.segre_fitting_report", "incl_s")
    m["projgeo.plucker.points_enumerated"] = (work[0]["points"], "count")
    m["projgeo.plucker.points_per_s"] = (work[0]["points"] / survey_s if survey_s else 0.0, "1/s")
    m["projgeo.plucker.errors"] = (sum(f["errors"] for k, f in fns.items()
                                       if k.startswith("projgeo.plucker.")), "count")
    m["projgeo.segre.configs"] = (work[0]["configs"], "count")
    m["projgeo.segre.configs_per_s"] = (work[0]["configs"] / segre_s if segre_s else 0.0, "1/s")
    if not work[0]["points"]:
        print("note: projgeo.plucker.points_enumerated, points_per_s and "
              "dee_exhaustive_survey.self_s are 0: this workload runs no Plücker survey",
              file=sys.stderr)
    if not work[0]["configs"]:
        print("note: projgeo.segre.configs and configs_per_s are 0: this workload runs "
              "no Segre fitting report", file=sys.stderr)
    traced = statistics.median(p.scaled_s for p in passes[0] + passes[1])
    m["trace.overhead_s"] = (traced - statistics.median(p.scaled_s for p in base), "s")
    m["trace.ops"] = (len(passes[0]), "count")
    n = len(passes[0])
    return {k: (v, unit, n) for k, (v, unit) in m.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "delpair", "cli.py")):
        print(f"error: no delpair sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    # Children inherit this: they run on the one CPU that _watch probes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    runner = Runner()
    if args.workload == "cli-queries":
        tally, metrics = run_queries(args.seed, args.seconds, bool(args.trace),
                                     expected["run-all"], runner)
    else:
        tally, metrics = run_batch(args.workload, args.seconds, bool(args.trace),
                                   expected[args.workload], runner)

    with open(os.path.join(OUT, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump(runner.log, fh, indent=1)
    for d in runner.log:
        steal = "?" if d["steal_s"] is None else f"{d['steal_s']:.2f}"
        print(f"sample {d['op']:10s} traced={int(d['traced'])} wall_s={d['wall_s']:.3f} "
              f"scaled_s={d['scaled_s']:.3f} cpu_s={d['cpu_s']:.3f} steal_s={steal} "
              f"rss_mb={d['rss_mb']:.1f} "
              f"code={d['code']} {' '.join(d['args'])[:80]}")
    untraced = [d for d in runner.log if not d["traced"] and d["raw_import_s"] is not None]
    ops = [d for d in untraced if d["op"] != "import"]
    if ops:
        print(f"unscaled medians (diagnostic): wall_s="
              f"{statistics.median(d['wall_s'] for d in ops):.3f} over {len(ops)} operations, "
              f"import_s={statistics.median(d['raw_import_s'] for d in untraced):.3f} "
              f"over {len(untraced)} processes")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    for kind in (*FAMILIES, "malformed"):
        if kind in tally.families:
            n, bad = tally.families[kind]
            print(f"family {kind:16s} ok {n - bad}/{n}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit:6s} n={n}")
    if not tally.attempted:
        raise SystemExit("error: no operation was attempted")
    print(f"{'failed_share':48s} {tally.failed / tally.attempted:14.6f} ratio  "
          f"n={tally.attempted} (= 1 - ok_share; not a gated metric)")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
