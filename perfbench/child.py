"""One workload run in a fresh interpreter: set-up, then a closed loop of CLI ops.

Started by run.py with ``src`` on PYTHONPATH and BLAS/OpenMP threads at 1.
Set-up is importing teamsearch and writing the first blocks of generated
scenarios; the child then prints ``ready <monotonic clock>`` so the parent
can time it.  With ``--setup-only`` it stops there.  Otherwise one client
sends one ``teamsearch.cli.main(argv)`` op at a time, checks each output
outside the timed region, and prints one JSON line with the per-op records.
It times the host speed reference kernel (hostref.py) before each op and
once after the last; the parent scales each op's time by the kernel times
on either side of it.

With ``--trace 1`` every op runs twice, untraced and then traced, so the
tracing overhead is measured on the same ops; the traced run's output must
match the untraced bytes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

PREWRITTEN_BLOCKS = 16
# mc repeats its ops every other block; three blocks make every untraced run
# check that a repeated op gives the same bytes.  A traced run repeats each
# op anyway, traced after untraced.
MIN_BLOCKS = 3


def run_op(cli, argv: list[str]) -> tuple[float, float, int, str | None]:
    """Time one cli.main call; returns (wall seconds, CPU seconds, exit code, error)."""
    c0 = time.process_time()
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except SystemExit as exc:  # argparse rejects the argv
        rc, error = 2, f"SystemExit {exc.code}"
    except Exception as exc:  # an uncaught error is a failed op, not a failed benchmark
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    return t1 - t0, time.process_time() - c0, rc, error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from teamsearch import cli

    from hostref import reference
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    ops = [workload.write(i) for i in range(PREWRITTEN_BLOCKS * len(workload.block))]
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    min_blocks = 1 if tracer is not None else MIN_BLOCKS
    out = workdir / "out.csv"
    first_output: dict[str, str] = {}  # identical ops must give identical bytes
    records = []
    untraced_s = 0.0
    blocks = 0
    start = perf_counter()
    while True:
        for i in range(blocks * len(workload.block), (blocks + 1) * len(workload.block)):
            if i >= len(ops):
                ops.append(workload.write(i))
            op, path = ops[i]
            argv = workload.argv(op, path, out)
            ref = reference()
            seconds, cpu, rc, error = run_op(cli, argv)
            text = out.read_text(encoding="utf-8") if rc == 0 and out.exists() else ""
            if error is None:
                error = workload.check(op, text)
            key = json.dumps([op.argv, op.scenario], sort_keys=True)
            if error is None and first_output.setdefault(key, text) != text:
                error = f"{op.kind}: output differs from an earlier run of the same op"
            record = {"op": i, "kind": op.kind, "s": seconds, "cpu": cpu, "ref": ref,
                      "work": op.work, "error": error}
            if tracer is not None:
                untraced_s += seconds
                tracer.install(i)
                try:
                    record["traced_s"], _, rc, traced_error = run_op(cli, argv)
                finally:
                    tracer.uninstall()
                if traced_error is None and (not out.exists()
                                             or out.read_text(encoding="utf-8") != text):
                    traced_error = "traced output differs from the untraced output"
                record["error"] = record["error"] or traced_error
            out.unlink(missing_ok=True)
            records.append(record)
        blocks += 1
        elapsed = perf_counter() - start
        # Measure whole blocks; stop once another block, at the mean block
        # time so far, would end more than half a block past the deadline.
        if blocks >= min_blocks and elapsed + 0.5 * elapsed / blocks >= args.seconds:
            break

    result = {
        "records": records,
        "ref_end": reference(),
        "elapsed_s": perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(tracer.summary(len(records), untraced_s))
        if args.spans:
            tracer.write_spans(args.spans)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
