"""One benchmark process: import delpair, run one operation, exit.

    python3 [-X importtime] perfbench/child.py STATS TRACE OP [ARGS...]

OP is ``cli`` (ARGS go to ``delpair.cli.main``, as ``python -m delpair.cli
ARGS`` would run them), ``rank-sweep`` (ARGS is the bundle path) or
``import`` (import only).  The exit code, stdout, stderr and any traceback
are those of the delpair call.  The wall time of ``import delpair.cli`` and,
with TRACE=1, the tracer summary go to the JSON file STATS.
"""
import json
import sys
from time import perf_counter


def main() -> None:
    stats_path, trace, op, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    t0 = perf_counter()
    import delpair.cli
    stats = {"import_s": perf_counter() - t0}
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        if op == "cli":
            code = delpair.cli.main(args)
        elif op == "rank-sweep":
            from delpair.report import RunConfig, bundle_json
            code, doc = delpair.cli.run_all(
                RunConfig(max_rank=12, primes_plucker=(3,), primes_segre=(2,)))
            with open(args[0], "w", encoding="utf-8") as fh:
                fh.write(bundle_json(doc))
        elif op == "import":
            code = 0
        else:
            raise SystemExit(f"unknown operation {op!r}")
    finally:
        if tracer is not None:
            stats["trace"] = tracer.summary()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    sys.stdout.flush()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
