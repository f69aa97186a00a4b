"""One benchmark worker: a fresh interpreter that runs rounds of a workload.

Run by `run.py`, never directly by a user.  It builds the seed's batch of
ops once, for the library and for its frozen reference copy, and runs it
in rounds, one after another, until the next round would end past its
time budget (or `--max-rounds` is reached).  In a round each op of the
library runs next to the same op of the reference copy.  Then it prints
one JSON record on stdout: the rounds, the spans of traced rounds and the
peak resident memory of this process.  With `--trace 1` rounds with an
even index are traced and odd ones are not, so a traced run also
measures the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-round", type=int, default=0)
    ap.add_argument("--budget", type=float, required=True, help="seconds")
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--max-rounds", type=int, default=10**9)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH / "ref"))
    import ebiortho

    if Path(ebiortho.__file__).resolve().parent != ROOT / "src" / "ebiortho":
        print(f"error: ebiortho imported from {ebiortho.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    make_ops = workloads.WORKLOADS[args.workload]
    ops, stats = make_ops(args.seed)
    ref = (make_ops(args.seed, workloads.REFERENCE)[0],
           spans.make_api(package=workloads.REFERENCE))
    spans.make_api()  # import every layer before the first timed round
    rounds, span_rows = [], []
    start = perf_counter()
    index = args.first_round
    while True:
        tracer = spans.Tracer() if args.trace and index % 2 == 0 else None
        t0 = perf_counter()
        record = workloads.run_round(ops, spans.make_api(tracer), tracer, stats,
                                     ref=ref, ref_first=index % 2 == 1)
        last = perf_counter() - t0  # with the gate: the cost of one more round
        record.update(index=index, traced=tracer is not None)
        rounds.append(record)
        if tracer:
            span_rows.extend([index, *row] for row in tracer.spans)
        index += 1
        if len(rounds) >= args.max_rounds:
            break
        if perf_counter() - start + last > args.budget and len(rounds) >= args.min_rounds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"rounds": rounds, "spans": span_rows, "peak_rss_mb": peak_kb / 1024}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
