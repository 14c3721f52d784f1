"""The three su3rep benchmark workloads: their items, the timed call each item
makes into su3rep, and the gate that decides whether its output is right.
Why each workload exists is recorded in BENCHMARK.json.

export-oracle holds the two item kinds that make no commutator products: the
CLI export (generators, cli) and the oracle cross-check (the verify oracle).
Together they are the workload that the product kernel's changes bypass; kept
apart, the four workloads' runs would not fit the benchmark's time budget at
a run length long enough to be steady on a small shared machine.

Nothing here imports su3rep; every workload function takes the imported
package, so the measuring process decides where su3rep comes from and when
import time starts.

An item's ``call`` is the only part that is timed.  Its ``check`` runs after the
pass, outside the timing, and returns an ``Outcome``: the errors found in the
call's results, the per-result seconds where su3rep times them itself (the
sweep's rows), and counts such as the bytes written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

# The ROADMAP's verify ladder up to (10, 5), d = 42 .. 561.  Its two top rungs,
# (15, 7) and (20, 10), take 4 s and 9 s a call: with them a pass would take
# about 17 s, and a run could not hold a warm-up pass and three timed passes.
LADDER = ((3, 2), (5, 3), (8, 4), (10, 5))
# One corrupted u_plus entry in each orientation; check_commutators must fail.
NEGATIVE_CONTROLS = ((8, 4), (4, 8))

SWEEP_MAX_D = 300
SWEEP_JOBS = 2
# The q > p irreps the acceptance sweep checks besides every p >= q one.
SWEEP_SPOT_CHECKS = ((0, 1), (1, 2), (2, 3), (3, 5))

# An irrep and its conjugate, so that q > p output (negative transposition) is
# exported too.  (8, 4), d = 315, takes about 3.5 s for all 64 outputs.
EXPORT_IRREPS = ((8, 4), (4, 8))
EXPORT_MATRICES = ("Tp", "Tm", "T3", "Up", "Um", "U3", "Vp", "Vm") + tuple(
    f"F{i}" for i in range(1, 9)
)
EXPORT_FORMATS = ("json", "csv")
EXPORT_DIGESTS = Path(__file__).with_name("export16_sha256.json")

# The dense oracle's cost grows steeply with d: the p >= q irreps with
# d < 200 take about 3 s together, those with d < 300 about 9 s, which would
# leave room for only two or three export-oracle passes in a run.
ORACLE_MAX_D = 200


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    item_seconds: list[float] | None = None  # None: the runner's timing of the call
    extras: dict[str, int] = field(default_factory=dict)


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # (label, d) of each result the call produces; each counts as attempted.
    parts: list[tuple[str, int]]


@dataclass
class Workload:
    name: str
    items: list[Item]
    nonempty: tuple[str, ...] = ()  # extras whose total over a pass must be > 0
    workers: int = 1  # processes the pass runs on
    # Items the traced pass runs instead of ``items``, when those run in
    # worker processes the tracer cannot see into.
    traced_items: list[Item] | None = None


def irreps_below(pkg, max_d: int) -> list[tuple[int, int]]:
    """Every p >= q irrep with d < max_d, in (p, q) order."""
    labels = []
    p = 0
    while pkg.dimension(p, 0) < max_d:
        labels.extend((p, q) for q in range(p + 1) if pkg.dimension(p, q) < max_d)
        p += 1
    return labels


# ---------------------------------------------------------------------------
# ladder-verify


def _check_report(report, p: int, q: int) -> list[str]:
    """28 commutators, 1 Casimir, 3 structure relations, all exact."""
    names = [r.name for r in report.relations]
    comm = sum(1 for n in names if n.startswith("["))
    cas = sum(1 for n in names if n.startswith("casimir"))
    errors = []
    if (report.p, report.q) != (p, q):
        errors.append(f"report is for ({report.p},{report.q}), not ({p},{q})")
    counts = (comm, cas, len(names) - comm - cas)
    if counts != (28, 1, 3):
        errors.append(f"({p},{q}): relation counts {counts}, expected (28, 1, 3)")
    if not report.passed:
        errors.append(f"({p},{q}): failed {[r.name for r in report.failures()]}")
    return errors


def _verify_item(pkg, p: int, q: int) -> Item:
    label = f"verify({p},{q})"
    return Item(
        label,
        lambda: pkg.verify_irrep(p, q),
        lambda report: Outcome(_check_report(report, p, q)),
        [(label, pkg.dimension(p, q))],
    )


def _corrupted(pkg, p: int, q: int):
    """The (p, q) set with its first u_plus entry increased by one."""
    gs = pkg.build_generator_set(p, q)
    u_plus = pkg.RadMatrix(gs.dim)
    entries = list(gs.u_plus.items())
    for r, c, v in entries:
        u_plus.put(r, c, v)
    r, c, v = entries[0]
    u_plus.put(r, c, v + 1)
    return dataclasses.replace(gs, u_plus=u_plus)


def _negative_item(pkg, p: int, q: int) -> Item:
    bad_set = _corrupted(pkg, p, q)

    def check(report) -> Outcome:
        errors = []
        if len(report.relations) != 28:
            errors.append(f"negative ({p},{q}): {len(report.relations)} relations, expected 28")
        if report.passed or not report.failures():
            errors.append(f"negative control ({p},{q}) passed check_commutators")
        return Outcome(errors)

    label = f"negative({p},{q})"
    return Item(label, lambda: pkg.check_commutators(bad_set), check,
                [(label, pkg.dimension(p, q))])


def ladder_verify(pkg) -> Workload:
    items = [_verify_item(pkg, p, q) for p, q in LADDER]
    items += [_negative_item(pkg, p, q) for p, q in NEGATIVE_CONTROLS]
    return Workload("ladder-verify", items)


# ---------------------------------------------------------------------------
# sweep-300


def _sweep_item(pkg, max_d: int, jobs: int) -> Item:
    """sweep(max_d): one row per p >= q irrep with d < max_d and per spot check
    below max_d, in (p, q) order (65 rows for max_d = 300), all passing."""
    labels = sorted(irreps_below(pkg, max_d)
                    + [pq for pq in SWEEP_SPOT_CHECKS if pkg.dimension(*pq) < max_d])

    def check(summary) -> Outcome:
        rows = summary.rows
        errors = []
        if [(r.p, r.q) for r in rows] != labels:
            errors.append(f"sweep: {len(rows)} rows, not the {len(labels)} expected irreps")
        for r in rows:
            if r.d != pkg.dimension(r.p, r.q):
                errors.append(f"sweep row ({r.p},{r.q}) has d = {r.d}")
            elif not (r.commutators_ok and r.casimir_ok and r.structure_ok):
                errors.append(f"sweep row ({r.p},{r.q}) failed")
        return Outcome(errors, [r.millis / 1000 for r in rows])

    return Item(f"sweep({max_d}, jobs={jobs})", lambda: pkg.sweep(max_d, jobs=jobs), check,
                [(f"({p},{q})", pkg.dimension(p, q)) for p, q in labels])


def sweep_300(pkg) -> Workload:
    return Workload(
        "sweep-300",
        [_sweep_item(pkg, SWEEP_MAX_D, SWEEP_JOBS)],
        workers=SWEEP_JOBS,
        traced_items=[_sweep_item(pkg, SWEEP_MAX_D, 1)],
    )


# ---------------------------------------------------------------------------
# export-oracle: the export items


def _entries_match(pkg, payload: dict, reference) -> bool:
    """Entries parsed back through RadicalSum.from_triples equal the reference."""

    def parse(terms):
        return pkg.RadicalSum.from_triples((t["num"], t["den"], t["sf"]) for t in terms)

    if hasattr(reference, "re"):
        got = {(e["row"] - 1, e["col"] - 1): (parse(e["re"]), parse(e["im"]))
               for e in payload["entries"]}
        positions = {(r, c) for r, c, _ in reference.re.items()}
        positions |= {(r, c) for r, c, _ in reference.im.items()}
        want = {rc: (reference.re.get(*rc), reference.im.get(*rc)) for rc in positions}
    else:
        got = {(e["row"] - 1, e["col"] - 1): parse(e["value"]) for e in payload["entries"]}
        want = {(r, c): v for r, c, v in reference.items()}
    return got == want


class _ExportChecker:
    """sha256 of every output against the recorded digests.  JSON outputs are
    also parsed back and compared entry by entry, once per label and process:
    later passes are tied to that comparison by the digest."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.digests = json.loads(EXPORT_DIGESTS.read_text())
        self.parsed_back: set[str] = set()
        self._sets: dict[tuple[int, int], tuple] = {}

    def reference(self, p: int, q: int, matrix: str):
        if (p, q) not in self._sets:
            gs = self.pkg.build_generator_set(p, q)
            self._sets[(p, q)] = gs, self.pkg.to_gell_mann(gs)
        gs, fs = self._sets[(p, q)]
        return fs[int(matrix[1:])] if matrix.startswith("F") else gs.matrices()[matrix]

    def item(self, p: int, q: int, matrix: str, fmt: str) -> Item:
        label = f"generate({p},{q}) {matrix} {fmt}"
        argv = ["generate", "--p", str(p), "--q", str(q), "--matrix", matrix, "--format", fmt]

        def call() -> tuple[int, str]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.pkg.cli.main(argv)
            return rc, buf.getvalue()

        def check(output) -> Outcome:
            rc, text = output
            data = text.encode()
            errors = []
            if rc != 0:
                errors.append(f"{label}: exit code {rc}")
            elif hashlib.sha256(data).hexdigest() != self.digests.get(label):
                errors.append(f"{label}: output digest differs from the recorded one")
            elif fmt == "json" and label not in self.parsed_back:
                payload = json.loads(text)
                header = (payload["p"], payload["q"], payload["d"], payload["matrix"])
                if header != (p, q, self.pkg.dimension(p, q), matrix) or not _entries_match(
                    self.pkg, payload, self.reference(p, q, matrix)
                ):
                    errors.append(f"{label}: JSON entries differ from build_generator_set")
                self.parsed_back.add(label)
            return Outcome(errors, extras={"cli.bytes": len(data)})

        return Item(label, call, check, [(label, self.pkg.dimension(p, q))])


# ---------------------------------------------------------------------------
# export-oracle: the oracle items


def _oracle_item(pkg, p: int, q: int) -> Item:
    d = pkg.dimension(p, q)

    def call():
        return pkg.oracle_solve(p, q, max_dim=d), pkg.block_unknown_squares(p, q)

    def check(output) -> Outcome:
        solved, formula = output
        keys = set(solved) | set(formula)
        zero = Fraction(0)
        mismatched = [k for k in sorted(keys) if solved.get(k, zero) != formula.get(k, zero)]
        blocks = {(i, j) for i, j, _ in pkg.admissible_blocks(p, q)}
        errors = []
        if mismatched:
            errors.append(f"oracle ({p},{q}): {len(mismatched)} mismatches, first {mismatched[0]}")
        if not blocks <= keys:
            errors.append(f"oracle ({p},{q}): blocks {sorted(blocks - keys)} not compared")
        return Outcome(errors, extras={"oracle.compared": len(keys)})

    label = f"oracle({p},{q})"
    return Item(label, call, check, [(label, d)])


def export_oracle(pkg) -> Workload:
    checker = _ExportChecker(pkg)
    items = [
        checker.item(p, q, matrix, fmt)
        for p, q in EXPORT_IRREPS
        for fmt in EXPORT_FORMATS
        for matrix in EXPORT_MATRICES
    ]
    items += [_oracle_item(pkg, p, q) for p, q in irreps_below(pkg, ORACLE_MAX_D)]
    return Workload("export-oracle", items, nonempty=("cli.bytes", "oracle.compared"))


WORKLOADS = {
    "ladder-verify": ladder_verify,
    "sweep-300": sweep_300,
    "export-oracle": export_oracle,
}

# The item a cold interpreter runs for setup_s: the first in canonical order,
# never the seed's, so set-up time does not depend on the seed.  For the sweep
# it is sweep(2, jobs=2), whose only row is (0, 0): import, pool start-up and
# one row.
FIRST_ITEMS = {
    "ladder-verify": lambda pkg: _verify_item(pkg, *LADDER[0]),
    "sweep-300": lambda pkg: _sweep_item(pkg, 2, SWEEP_JOBS),
    "export-oracle": lambda pkg: _ExportChecker(pkg).item(
        *EXPORT_IRREPS[0], EXPORT_MATRICES[0], EXPORT_FORMATS[0]
    ),
}
