"""One measuring process for one workload; run.py starts it and reads the
JSON object it prints as its last line.

  --mode setup   import su3rep and finish the workload's first item, in this
                 fresh interpreter with cold caches; report the seconds.
  --mode run     one warm-up pass, then timed passes with tracing off: at
                 least MIN_PASSES, and more while the next one is expected to
                 end within --seconds.  Report pass times, the slowest item of
                 each pass, correctness and peak RSS.
  --mode trace   the untraced passes of --mode run, then one traced pass,
                 whose spans and counts go to --trace-file; report the
                 per-layer metrics and the tracing overhead.

Every timed pass runs with su3rep's caches as the warm-up pass left them, so
the number of passes a run holds does not change what a pass measures; the
cost of cold caches shows in setup_s.

Reported times are scaled to a reference clock.  A share of a busy host runs
the same pass at speeds up to 1.8x apart, in states that last from seconds to
minutes, which no run length this benchmark can afford averages out.  So each
pass (and each set-up process) also times short reference chunks, fixed
Fraction and dict work that never touches su3rep, at its start, at its end
and between items at least every REF_EVERY_S.  A call's seconds are
multiplied by REF_NOMINAL_S / (median of the two chunks before the call and
the two after it): they read as the seconds the call would take on a host
where one chunk takes REF_NOMINAL_S.  Item timings exclude the chunks; the
raw seconds are reported beside the scaled.  Calls whose work runs in pool
workers (sweep-300's passes) are not scaled: their time follows two busy
vCPUs and the pool's last rows, not this process's clock between passes, and
on a 2-vCPU KVM guest scaling widened sweep-300's run-to-run spread.

su3rep is imported first, from the src/ directory of the checkout this file
sits in, so that its import time is measured before anything else loads.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import os  # noqa: E402  (loaded by the interpreter already)
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import su3rep  # noqa: E402
import su3rep.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import FIRST_ITEMS, WORKLOADS, Item, Outcome, Workload  # noqa: E402

MIN_PASSES = 3

# The reference clock (see the module doc).  REF_NOMINAL_S is about the median
# chunk time on a 2-vCPU Xeon (Emerald Rapids) KVM guest, Python 3.11.7.
REF_NOMINAL_S = 0.025
REF_EVERY_S = 0.25
REF_EDGE = 3  # chunks at each end of a pass
_REF_FRACTIONS = [Fraction(i, i + 3) for i in range(1, 60)]


def reference_chunk() -> float:
    """Seconds for a fixed amount of Fraction products summed into a dict, the
    kind of work su3rep's exact arithmetic does.  The garbage collector is off
    meanwhile, so the chunk's time does not depend on su3rep's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[int, Fraction] = {}
        for _ in range(6):
            for a in _REF_FRACTIONS:
                for b in _REF_FRACTIONS[::4]:
                    key = (a.denominator + b.numerator) % 17
                    acc[key] = acc.get(key, 0) + a * b
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """The reference chunks of one pass."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self._last = float("-inf")

    def sample(self, n: int = 1) -> None:
        self.chunks.extend(reference_chunk() for _ in range(n))
        self._last = time.perf_counter()

    def between_items(self) -> int:
        """Sample if REF_EVERY_S has passed; return the index of the next chunk."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()
        return len(self.chunks)

    def scale(self, mark: int) -> float:
        """The scale for a call made before chunk ``mark``: from the two
        chunks before it and the two after."""
        return REF_NOMINAL_S / statistics.median(self.chunks[max(0, mark - 2):mark + 2])


def time_pass(items: list[Item], clock, tracer: Tracer | None = None):
    """Call every item between reference chunks; return (outputs, per-call
    seconds, per-call scales), the seconds raw.  An exception is the item's
    output."""
    outputs, seconds, marks = [], [], []
    ref = RefClock()
    ref.sample(REF_EDGE)
    for index, item in enumerate(items):
        marks.append(ref.between_items())
        if tracer is not None:
            tracer.item = index
        start = clock()
        try:
            outputs.append(item.call())
        except Exception as exc:  # a failed item is counted, not fatal
            outputs.append(exc)
            traceback.print_exc(file=sys.stderr)
        seconds.append(clock() - start)
    ref.sample(REF_EDGE)
    return outputs, seconds, [ref.scale(m) for m in marks]


def check_pass(wl: Workload, items: list[Item], outputs, seconds, scales) -> dict:
    """Check every output; item_seconds are scaled to the reference clock."""
    attempted = failed = 0
    errors: list[str] = []
    item_seconds: dict[str, float] = {}  # by result label
    extras: dict[str, int] = {name: 0 for name in wl.nonempty}
    for item, output, sec, scale in zip(items, outputs, seconds, scales):
        results = len(item.parts)
        attempted += results
        if isinstance(output, Exception):
            outcome = Outcome([f"{item.label}: {type(output).__name__}: {output}"] * results)
        else:
            try:
                outcome = item.check(output)
            except Exception as exc:  # a malformed output is a wrong result
                outcome = Outcome([f"{item.label}: check raised {type(exc).__name__}: {exc}"])
        failed += min(len(outcome.errors), results)
        errors.extend(outcome.errors)
        secs = outcome.item_seconds if outcome.item_seconds is not None else [sec]
        item_seconds.update((label, s * scale) for (label, _), s in zip(item.parts, secs))
        for name, value in outcome.extras.items():
            extras[name] = extras.get(name, 0) + value
    for name in wl.nonempty:
        if extras[name] <= 0:  # a vacuous pass: none of its results count as right
            errors.append(f"{wl.name}: pass compared nothing ({name} = 0)")
            failed = attempted
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "item_seconds": item_seconds, "extras": extras,
            "pass_s": sum(sec * scale for sec, scale in zip(seconds, scales)),
            "raw_pass_s": sum(seconds)}


def untraced_passes(wl: Workload, seed: int, seconds: float) -> dict:
    """A warm-up pass, then timed passes (see the module doc), each over the
    items in a seed-shuffled order.  Every pass is checked."""
    rng = random.Random(seed)

    def one_pass() -> dict:
        items = list(wl.items)
        rng.shuffle(items)
        start = time.perf_counter()
        outputs, item_secs, scales = time_pass(items, time.perf_counter)
        if wl.workers > 1:  # not scaled; see the module doc
            scales = [1.0] * len(scales)
        checked = check_pass(wl, items, outputs, item_secs, scales)
        return {**checked, "wall_s": time.perf_counter() - start}

    warm_up = one_pass()
    start = time.perf_counter()
    passes = [one_pass() for _ in range(MIN_PASSES)]
    while time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= seconds:
        passes.append(one_pass())
    return {
        "warm_up_s": warm_up["pass_s"],
        "passes": [p["pass_s"] for p in passes],
        "raw_passes": [p["raw_pass_s"] for p in passes],
        "item_seconds": [p["item_seconds"] for p in passes],
        "max_item_s": [max(p["item_seconds"].values(), default=p["pass_s"]) for p in passes],
        "busy_ratio": [sum(p["item_seconds"].values()) / (wl.workers * p["pass_s"])
                       for p in passes],
        "attempted": sum(p["attempted"] for p in [warm_up, *passes]),
        "failed": sum(p["failed"] for p in [warm_up, *passes]),
        "errors": [e for p in [warm_up, *passes] for e in p["errors"]][:20],
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the peak RSS of its largest reaped child
    (Linux reports KiB).  The sweep's pool workers are forked, so pages they
    share with this process are counted in both; the smaller worker is not
    counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def clear_caches(pkg) -> None:
    """Empty every module-level lru_cache of the package, the state a freshly
    forked sweep worker starts from."""
    root = pkg.__name__
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == root or name.startswith(root + ".")):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def traced(pkg, wl: Workload, seed: int, seconds: float, trace_file: Path) -> dict:
    """The untraced passes, then one traced pass over the same items in the
    same cache state, so that its overhead is measured against like passes
    and every count repeats whatever the seed's order.

    The sweep's rows run in worker processes the tracer cannot see into, so
    its traced pass is the serial sweep, in this process with cold caches as
    in a fresh worker; one untraced serial pass, also cold, is its baseline.
    The spans and counts are written out and dropped before that baseline,
    which would otherwise run with them alive.
    """
    base = untraced_passes(wl, seed, seconds)
    checked = [base]
    items = list(wl.traced_items or wl.items)
    random.Random(seed).shuffle(items)
    if wl.traced_items is not None:
        clear_caches(pkg)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        outputs, item_secs, scales = time_pass(items, tracer.clock, tracer)
    finally:
        tracer.uninstall()
    checked.append(check_pass(wl, items, outputs, item_secs, scales))
    traced_s = checked[-1]["pass_s"]
    metrics = tracer.layer_metrics()
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": wl.name,
        "seed": seed,
        "items": [{"label": label, "d": d} for i in items for label, d in i.parts],
        "traced_pass_s": traced_s,
        **tracer.dump(),
    }))
    del tracer, outputs

    if wl.traced_items is not None:
        clear_caches(pkg)
        checked.append(check_pass(wl, items, *time_pass(items, time.perf_counter)))
        baseline_s = checked[-1]["pass_s"]
    else:
        baseline_s = statistics.median(base["passes"])

    metrics["cli.bytes"] = checked[1]["extras"].get("cli.bytes", 0)
    is_sweep = wl.workers > 1
    metrics["verify.sweep_busy_ratio"] = statistics.median(base["busy_ratio"]) if is_sweep else 0.0
    metrics["verify.sweep_speedup"] = (  # raw seconds on both sides
        checked[-1]["raw_pass_s"] / statistics.median(base["raw_passes"]) if is_sweep else 0.0
    )
    metrics["trace.overhead_s"] = traced_s - baseline_s
    return {
        "passes": base["passes"],
        "attempted": sum(c["attempted"] for c in checked),
        "failed": sum(c["failed"] for c in checked),
        "errors": [e for c in checked for e in c["errors"]][:20],
        "traced_pass_s": traced_s,
        "untraced_pass_s": baseline_s,
        "layer_metrics": metrics,
    }


def environment(wl: Workload, pkg) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "su3rep": os.path.relpath(os.path.dirname(pkg.__file__), os.path.dirname(SRC)),
        "items": [{"label": label, "d": d} for i in wl.items for label, d in i.parts],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    if not os.path.samefile(os.path.dirname(os.path.dirname(su3rep.__file__)), SRC):
        print(f"su3rep was imported from {su3rep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    pkg = su3rep  # the workloads take the package as an argument
    if args.mode == "setup":
        item = FIRST_ITEMS[args.workload](pkg)
        outputs, seconds, scales = time_pass([item], time.perf_counter)
        wl = Workload(args.workload, [item])
        result = {"setup_s": (IMPORT_S + seconds[0]) * scales[0],
                  "raw_setup_s": IMPORT_S + seconds[0], "import_s": IMPORT_S,
                  **check_pass(wl, [item], outputs, seconds, scales)}
        for key in ("item_seconds", "pass_s", "raw_pass_s"):
            result.pop(key)
    else:
        wl = WORKLOADS[args.workload](pkg)
        if args.mode == "run":
            result = untraced_passes(wl, args.seed, args.seconds)
            result["peak_rss_mb"] = peak_rss_mb()
        else:
            result = traced(pkg, wl, args.seed, args.seconds, args.trace_file)
        result["env"] = environment(wl, pkg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
