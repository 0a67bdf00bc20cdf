"""Record the reference bundles that the benchmark checks against.

    python3 perfbench/pin.py

Runs the two batch workloads once on the current sources and writes their
bundle sha256, summary, pair count and every (check_id, subject, status) row
into perfbench/expected.json, keeping the file's other keys.  The run-all
digest must equal the contract value from ROADMAP.md, so a changed default
bundle cannot be pinned by accident.  Run it only on a commit whose bundles
are the intended reference.
"""
import hashlib
import json
import os

from run import EXPECTED, OUT, Runner, batch_op

ROADMAP_RUN_ALL_SHA256 = "5740a2e1470a40513d10aac19e2fa7121f8c14d777e31119684ac7f61315b033"


def pin(workload: str, runner: Runner) -> dict:
    op, args, bundle = batch_op(workload)
    proc = runner.spawn(op, args, False)
    if proc.code != 0:
        raise SystemExit(f"{workload} exited {proc.code}:\n{proc.stderr}")
    with open(bundle, "rb") as fh:
        text = fh.read()
    doc = json.loads(text)
    rows = [[r["check_id"], r["subject"], r["status"]] for r in doc["reports"]]
    return {
        "sha256": hashlib.sha256(text).hexdigest(),
        "summary": doc["summary"],
        "pairs": sum(1 for c, _, _ in rows if c == "pairs.correspondence"),
        "rows": rows,
    }


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
    runner = Runner()
    for workload in ("run-all", "rank-sweep"):
        expected[workload] = pin(workload, runner)
    if expected["run-all"]["sha256"] != ROADMAP_RUN_ALL_SHA256:
        raise SystemExit(f"run-all bundle {expected['run-all']['sha256']} is not the "
                         "ROADMAP contract bundle; nothing written")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
