"""Benchmark for the teamsearch CLI: scan, mc and oracle workloads, plus a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan|mc|oracle|all --seed N --seconds S --trace 0|1

Each run starts one child interpreter (child.py) that imports teamsearch from
./src, writes the scenarios generated from the seed and calls
``teamsearch.cli.main(argv)`` one op at a time for about S seconds, checking
every output.  Set-up is timed from the parent, several times per run.  The
end-to-end times are scaled to a fixed host speed by a reference kernel timed
in the same run (hostref.py).  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run and the spans
are written to .perfbench/spans-<workload>.jsonl.gz.  perfbench/README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostref import REF_S, reference, scaled  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STATE_DIR = ".perfbench"
SETUP_PROBES = 4  # set-up-only children per run, besides the measuring child
IMPORT_PROBES = 3
RUN_BUDGET_S = 170.0

# name -> unit; the order is the order of the report.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
}
# work_per_s under its workload's own name and unit.
WORK_NAMES = {
    "scan": ("scan.cells_per_s", "cells/s"),
    "mc": ("mc.paths_per_s", "paths/s"),
    "oracle": ("oracle.chains_per_s", "chains/s"),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[str, str]:
    """Run one child to completion (or kill it at the deadline); returns (stdout, stderr)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out, err


def ready_after(stdout: str, started: float) -> float:
    first = stdout.splitlines()[0].split()
    if len(first) != 2 or first[0] != "ready":
        raise BenchError(f"child did not report set-up: {stdout[:200]!r}")
    return float(first[1]) - started


def import_times(env: dict, deadline: float) -> tuple[float, float]:
    """Import time of teamsearch and of the scipy.stats modules it pulls in (-X importtime).

    scipy loads stats lazily, so the log has no ``scipy.stats`` line of its
    own: the stats time is the cumulative time of every scipy.stats module
    whose importer is not itself a scipy.stats module.
    """
    _, err = run_child([sys.executable, "-X", "importtime", "-c", "import teamsearch"],
                       env, deadline)
    entries = []  # (indent, name, cumulative seconds), children before parents
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            field = parts[2][1:]
            name = field.lstrip()
            entries.append((len(field) - len(name), name, int(parts[1]) * 1e-6))
    package = stats = 0.0
    importers: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(entries):
        while importers and importers[-1][0] >= indent:
            importers.pop()
        is_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        if is_stats and not (importers and importers[-1][1].startswith("scipy.stats")):
            stats += cumulative
        if name == "teamsearch":
            package = cumulative
        importers.append((indent, name))
    return package, stats


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def tail(times: list[float], block: int) -> float:
    """Median over blocks of each block's slowest op time.

    A block holds one op of each size or mode, and its slowest op is nearly
    always its largest one (an 8-step grid, an eq op, a 6-agent team).  A
    median over the run's blocks is the typical time of that largest op, and
    is far steadier than a high percentile of a few dozen ops.
    """
    return statistics.median(max(times[i:i + block]) for i in range(0, len(times), block))


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(root)
    state = root / STATE_DIR
    state.mkdir(exist_ok=True)
    base = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]

    setups, setup_refs = [], [reference()]
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        out, _ = run_child(base + ["--workdir", str(state / f"setup-{workload}"),
                                   "--setup-only"], env, deadline)
        setups.append(ready_after(out, started))
        setup_refs.append(reference())

    spans = state / f"spans-{workload}.jsonl.gz"
    started = time.monotonic()
    out, _ = run_child(base + ["--workdir", str(state / f"work-{workload}"),
                               "--spans", str(spans)], env, deadline)
    setups.append(ready_after(out, started))
    child = json.loads(out.splitlines()[-1])

    records = child["records"]
    errors = [r["error"] for r in records if r["error"]]
    times = [r["s"] for r in records]
    block = len(WORKLOADS[workload].block)
    op_s = sum(times)
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "ops": len(records), "failed": len(errors),
        "failed_frac": len(errors) / len(records), "errors": errors[:20],
        "blocks": len(records) // block, "measured_s": child["elapsed_s"],
        "work": sum(r["work"] for r in records),
        "records": records,
    }
    if trace:
        metrics = dict(child["per_layer"])
        samples = [import_times(env, deadline) for _ in range(IMPORT_PROBES)]
        metrics["cli.import_s"] = statistics.median(s[0] for s in samples)
        metrics["cli.import_scipy_stats_s"] = statistics.median(s[1] for s in samples)
        summary["spans"] = str(spans.relative_to(root))
        summary["self_share"] = child["self_share"]
        summary["costs_share_by_caller"] = child["costs_share_by_caller"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        summary["wall"] = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail(times, block),
            "work_per_s": summary["work"] / op_s,
        }
        # The last set-up is the measuring child's, timed before its first op.
        op_refs = [r["ref"] for r in records] + [child["ref_end"]]
        setup_refs.append(op_refs[0])
        summary["kernel_s"] = op_refs
        summary["kernel_median_s"] = {"setup": statistics.median(setup_refs),
                                      "ops": statistics.median(op_refs)}
        setups = scaled(setups, setup_refs)
        times = scaled(times, op_refs)
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail(times, block),
            "work_per_s": summary["work"] / sum(times),
        }
        units = END_TO_END
    summary["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    (state / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


def report(summary: dict) -> None:
    m = summary["machine"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}  "
          f"{summary['ops']} ops in {summary['measured_s']:.1f} s")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"failed_frac = {summary['failed_frac']:.6g} ratio "
          f"({summary['failed']} of {summary['ops']} ops)")
    for error in summary["errors"]:
        print(f"  failed: {error}")
    if "kernel_median_s" in summary:
        ref = summary["kernel_median_s"]
        print(f"host reference kernel: median {1e3 * ref['setup']:.2f} ms around set-up, "
              f"{1e3 * ref['ops']:.2f} ms between ops; times below are scaled to "
              f"{1e3 * REF_S:.2f} ms, wall values in brackets")
    for name, entry in summary["metrics"].items():
        note = ""
        if name in summary.get("wall", {}):
            note = f"  [wall {summary['wall'][name]:.6g}]"
        if name == "op_tail_ms":
            note += f"  (median of the slowest op of each of {summary['blocks']} blocks)"
        if name == "setup_s":
            note += f"  (median of {SETUP_PROBES + 1} set-ups)"
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{note}")
        if name == "work_per_s":
            alias, unit = WORK_NAMES[summary["workload"]]
            print(f"{alias} = {entry['value']:.6g} {unit}")
    if "spans" in summary:
        for key, title in (("self_share", "self time share of traced op time"),
                           ("costs_share_by_caller", "costs self time share by calling layer")):
            print(f"{title}: " + ", ".join(
                f"{k} {100 * v:.1f}%" for k, v in summary[key].items()))
        print(f"spans written to {summary['spans']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "teamsearch" / "cli.py").is_file():
        print("perfbench: no teamsearch sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2

    summaries = []
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            summaries.append(run_workload(root, workload, args.seed, args.seconds, args.trace))
            report(summaries[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}:{name}": entry
                   for s in summaries for name, entry in s["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["ops"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
