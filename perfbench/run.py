"""su3rep benchmark: one command for every workload, metric and output gate.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds, the one place the run
length is set; a caller that runs the benchmark as BENCHMARK.json describes
passes that same value.

Run it from the root of a checkout; su3rep is imported from that checkout's
src/.  Load is closed-loop with one client: the next call starts when the
previous one returns.  Each workload runs in a fresh measuring process
(measure.py) so that peak memory belongs to it alone; SETUP_RUNS other fresh
processes, half before it and half after, each time import plus the
workload's first item.

--trace 0 reports the end-to-end metrics: pass_s and max_item_s (medians over
the timed passes of one run, which follow an untimed warm-up pass), setup_s
(median over the set-up processes) and peak_rss_mb.  The times of calls made
in the measuring process are scaled to a reference clock timed in that
process (see measure.py); the raw medians are printed beside them.
--trace 1 makes the untraced passes, then one traced pass, and reports the
per-layer metrics and the tracing overhead; the spans and counts are written
to perfbench/out/.
Metric names and units come from BENCHMARK.json.  The seed only shuffles item
order within a pass.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("ladder-verify", "sweep-300", "export-oracle")
SETUP_RUNS = 11  # half before the measuring process, half after it
# Per workload.  A run of one workload must end within 180 s; --workload all
# runs the three one after another.
DEADLINE_S = 170

# The end-to-end metric each per-layer metric should move, and on which
# workload; printed beside the traced run's values.
PER_LAYER_NOTES = {
    "verify.commutators_s": ("pass_s, max_item_s", "ladder-verify (most), sweep-300"),
    "verify.casimir_s": ("pass_s, max_item_s", "ladder-verify (most), sweep-300"),
    "matrices.matmul_s": ("pass_s, max_item_s", "ladder-verify (most), sweep-300"),
    "matrices.matmul_calls": ("pass_s, max_item_s", "ladder-verify (most), sweep-300"),
    "radical.mul_calls": ("pass_s, max_item_s", "ladder-verify (most), sweep-300"),
    "radical.add_calls": ("pass_s, max_item_s", "ladder-verify (most), sweep-300"),
    "matrices.product_terms": ("peak_rss_mb, pass_s", "ladder-verify (computed from sparsity)"),
    "matrices.nnz": ("peak_rss_mb, pass_s", "ladder-verify"),
    "radical.distinct_radicands": ("peak_rss_mb, pass_s", "ladder-verify"),
    "generators.build_s": ("pass_s", "export-oracle; <10% of ladder-verify"),
    "generators.gell_mann_s": ("pass_s", "export-oracle; <10% of ladder-verify"),
    "cli.emit_s": ("pass_s", "export-oracle"),
    "cli.bytes": ("pass_s", "export-oracle"),
    "verify.structure_s": ("pass_s", "ladder-verify, sweep-300"),
    "verify.oracle_s": ("pass_s, max_item_s", "export-oracle only"),
    "verify.oracle_calls": ("pass_s, max_item_s", "export-oracle only"),
    "unknowns.s": ("setup_s, pass_s", "sweep-300 (fixed cost per irrep)"),
    "structure.s": ("setup_s, pass_s", "sweep-300 (fixed cost per irrep)"),
    "su2.s": ("setup_s, pass_s", "sweep-300 (fixed cost per irrep)"),
    "verify.sweep_busy_ratio": ("pass_s", "sweep-300 only"),
    "verify.sweep_speedup": ("pass_s", "sweep-300 only"),
    "trace.overhead_s": ("(traced pass_s - untraced pass_s)", "every workload"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group (its pool workers too) and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(args: list[str], deadline: float) -> dict:
    """Run measure.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "measure.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise BenchError(f"measure.py {' '.join(args)} did not finish in time") from None
    except BaseException:
        _stop_group(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited with {proc.returncode}")
    lines = out.splitlines()
    if not lines:
        raise BenchError(f"measure.py {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[len("ref: "):]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        setup = common + ["--mode", "setup"]
        setups = [measure(setup, deadline) for _ in range(SETUP_RUNS // 2)]
        result = measure(common + ["--mode", "run"], deadline)
        setups += [measure(setup, deadline) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    else:
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        result = measure(common + ["--mode", "trace", "--trace-file", str(trace_file)], deadline)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    result["setups"] = setups
    result["attempted"] += sum(s["attempted"] for s in setups)
    result["failed"] += sum(s["failed"] for s in setups)
    result["errors"] += [e for s in setups for e in s["errors"]]
    return result


def end_to_end(result: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    return {
        "pass_s": statistics.median(result["passes"]),
        "max_item_s": statistics.median(result["max_item_s"]),
        "setup_s": statistics.median(s["setup_s"] for s in result["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(name: str, seed: int, trace: bool, result: dict, units: dict[str, str]) -> dict:
    """Print the human-readable table for one workload; return its metrics."""
    n = len(result["passes"])
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"({len(result['env']['items'])} items a pass, one client, closed loop)")
    if trace:
        values = result["layer_metrics"]
        print(f"  traced pass {result['traced_pass_s']:.3f} s, untraced "
              f"{result['untraced_pass_s']:.3f} s; spans and counts in {result['trace_file']}")
        print(f"  {'metric':28} {'value':>16} {'unit':6} {'should move':36} on")
        for metric, unit in units.items():
            moves, on = PER_LAYER_NOTES.get(metric, ("", ""))
            print(f"  {metric:28} {values[metric]:16.6g} {unit:6} {moves:36} {on}")
    else:
        values = end_to_end(result)
        notes = {
            "pass_s": f"median of {n} timed passes {[round(p, 3) for p in result['passes']]}, "
                      f"after a {result['warm_up_s']:.3f} s warm-up pass; raw median "
                      f"{statistics.median(result['raw_passes']):.3f} s",
            "max_item_s": f"median over {n} passes of the slowest item",
            "setup_s": f"median of {len(result['setups'])} fresh interpreters; raw median "
                       f"{statistics.median(s['raw_setup_s'] for s in result['setups']):.4f} s",
            "peak_rss_mb": "measuring process plus its largest reaped child "
                           "(forked pages counted in both)",
        }
        for metric, value in values.items():
            print(f"  {metric:12} {value:12.6g} {units[metric]:3} {notes[metric]}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':12} {rate:12.6g} {'1':3} "
          f"{result['failed']} failed or wrong of {result['attempted']} attempted")
    for error in result["errors"][:10]:
        print(f"  ERROR {error}")
    return {metric: {"value": values[metric], "unit": units[metric]} for metric in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "su3rep" / "__init__.py").is_file():
        print(f"run.py: no su3rep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    trace = bool(args.trace)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)

    env = {"git_commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    OUT.mkdir(exist_ok=True)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = report(name, args.seed, trace, result, units)
        record = {**env, "workload": name, **result, "metrics": metrics}
        print("env " + json.dumps({**env, "workload": name, **result["env"]}))
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["correct"] &= result["failed"] == 0 and not result["errors"]
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
