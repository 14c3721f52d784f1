"""Command-line front end.

Subcommands: generate, verify, sweep, weights, unknowns.  Data goes to
standard output (or --output), diagnostics to standard error.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage error (an irrep
above the --max-d size budget of generate, verify, weights and unknowns, and
a sweep bound above that default budget, included).

All output is exact by default; --approx appends floating-point columns for
human convenience.  Identical invocations produce byte-identical output
(except the timing column of sweep).

Only verify and sweep load su3rep.verify, inside their handlers, so importing
this module and running generate, weights or unknowns never compile it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING

from .generators import (
    GELL_MANN_NAMES,
    GELL_MANN_TABLE,
    MATRIX_NAMES,
    build_matrices,
    gell_mann_matrix,
)
from .matrices import RadMatrix
from .radical import float_of_triples
from .structure import dimension, weight_multiplicities
from .unknowns import block_unknown_squares

if TYPE_CHECKING:
    from .verify import CheckReport


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


# generate, verify, weights and unknowns refuse an irrep above this dimension
# unless --max-d raises it; (40, 20), d = 26 691, fits.  sweep checks d < its
# --max-d, which may be at most DEFAULT_MAX_D + 1 (1693 irreps).
DEFAULT_MAX_D = 30_000


# Built on first use, then reused: parse_args keeps no state between calls,
# and every call gets a fresh Namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3rep",
        description="Exact su(3) irreducible-representation matrices: "
        "generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_label(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=_nonnegative, required=True)
        p.add_argument("--q", type=_nonnegative, required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-d",
            dest="budget",
            metavar="MAX_D",
            type=_positive,
            default=DEFAULT_MAX_D,
            help="refuse an irrep of larger dimension (default %(default)s)",
        )

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    gen = sub.add_parser("generate", help="emit one basis matrix")
    add_label(gen)
    add_budget(gen)
    gen.add_argument(
        "--matrix", required=True, choices=MATRIX_NAMES + GELL_MANN_NAMES
    )
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument(
        "--approx",
        action="store_true",
        help="append a floating-point column to the exact output",
    )
    add_output(gen)

    ver = sub.add_parser("verify", help="run the exact checks for one irrep")
    add_label(ver)
    add_budget(ver)

    swp = sub.add_parser("sweep", help="verify every irrep below a dimension bound")
    swp.add_argument("--max-d", type=_positive, required=True,
                     help=f"check every irrep with d below this, at most {DEFAULT_MAX_D + 1}")
    swp.add_argument("--jobs", type=_positive, default=1)

    wts = sub.add_parser("weights", help="emit weight multiplicities as CSV")
    add_label(wts)
    add_budget(wts)
    add_output(wts)

    unk = sub.add_parser("unknowns", help="emit the squared block unknowns as CSV")
    add_label(unk)
    add_budget(unk)
    add_output(unk)

    return parser


def _usage_error(message: str) -> int:
    print(f"su3rep: error: {message}", file=sys.stderr)
    return 2


def _write(text: str, output: str | None) -> int:
    """Write to stdout or to the --output file; the exit code (2 if the file
    cannot be written)."""
    if output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        return _usage_error(f"cannot write {output}: {err.strerror or err}")
    return 0


# ---------------------------------------------------------------------------
# generate


def _exported(p: int, q: int, name: str) -> tuple[str, RadMatrix]:
    """The part of a basis matrix that generate prints, and its name: "value"
    for a ladder matrix, or the one part, "re" or "im", that
    ``GELL_MANN_TABLE`` gives Fk; Fk's other part is always zero."""
    if name in MATRIX_NAMES:
        return "value", build_matrices(p, q, (name,))[name]
    k = GELL_MANN_NAMES.index(name) + 1
    part, _, terms = GELL_MANN_TABLE[k]
    return part, getattr(gell_mann_matrix(build_matrices(p, q, [x for _, x in terms]), k), part)


# Per exported part: an entry's keys after "col", terms at {}, and its approx value
_JSON_PARTS = {
    "value": ('"value": [{}]', "{!r}"),
    "re": ('"re": [{}], "im": []', '{{"re": {!r}, "im": 0}}'),
    "im": ('"re": [], "im": [{}]', '{{"re": 0, "im": {!r}}}'),
}


def _generate_json(p: int, q: int, name: str, approx: bool) -> str:
    """The export in json.dumps's default spelling, written in one pass of ``triple_items``."""
    part, mat = _exported(p, q, name)
    exact, approx_value = _JSON_PARTS[part]
    entries = []
    for row, col, triples in mat.triple_items():
        terms = ", ".join([f'{{"num": {num}, "den": {den}, "sf": {sf}}}'
                           for num, den, sf in triples])
        entry = f'{{"row": {row + 1}, "col": {col + 1}, {exact.format(terms)}'
        if approx:
            entry += ', "approx": ' + approx_value.format(float_of_triples(triples))
        entries.append(entry + "}")
    return (f'{{"p": {p}, "q": {q}, "d": {dimension(p, q)}, "matrix": "{name}", '
            f'"entries": [{", ".join(entries)}]}}\n')


def _generate_csv(p: int, q: int, name: str, approx: bool) -> str:
    part, mat = _exported(p, q, name)
    label = "" if part == "value" else f"{part},"
    header = "row,col,num,den,sf" if part == "value" else "row,col,part,num,den,sf"
    lines = [header + ",approx" if approx else header]
    for row, col, triples in mat.triple_items():
        for num, den, sf in triples:
            line = f"{row + 1},{col + 1},{label}{num},{den},{sf}"
            if approx:
                line += f",{float_of_triples([(num, den, sf)])!r}"
            lines.append(line)
    return "\n".join(lines) + "\n"


def _cmd_generate(args: argparse.Namespace) -> int:
    emit = _generate_json if args.format == "json" else _generate_csv
    return _write(emit(args.p, args.q, args.matrix, args.approx), args.output)


# ---------------------------------------------------------------------------
# verify / sweep


def render_report(report: CheckReport) -> str:
    # imported here: generate, weights and unknowns never load su3rep.verify
    from .verify import casimir_eigenvalue

    def exact_count(kind: str) -> str:
        checks = report.of_kind(kind).relations
        return f"{sum(1 for r in checks if r.exact)}/{len(checks)} exact"

    (casimir,) = report.of_kind("casimir").relations
    lines = [
        f"irrep ({report.p}, {report.q}): d = {dimension(report.p, report.q)}",
        f"commutators: {exact_count('commutator')}",
        f"casimir: {'exact' if casimir.exact else 'FAILED'}, "
        f"eigenvalue {casimir_eigenvalue(report.p, report.q)}",
        f"structure: {exact_count('structure')}",
    ]
    for failure in report.failures():
        lines.append(f"FAILED: {failure.name} (|residual| ~ {failure.residual:g})")
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_irrep  # loaded on first use, as in render_report

    report = verify_irrep(args.p, args.q)
    sys.stdout.write(render_report(report))
    return 0 if report.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_d < 2:
        return _usage_error(f"--max-d must be at least 2: no irrep has d < {args.max_d}")
    if args.max_d > DEFAULT_MAX_D + 1:
        return _usage_error(f"sweep --max-d is at most {DEFAULT_MAX_D + 1}, got {args.max_d}")
    # loaded on first use, as in render_report, and before sweep forks its workers
    from .verify import sweep

    summary = sweep(args.max_d, jobs=args.jobs)
    lines = ["p,q,d,commutators,casimir,structure,ms"]
    for row in summary.rows:
        lines.append(
            f"{row.p},{row.q},{row.d},"
            f"{'pass' if row.commutators_ok else 'fail'},"
            f"{'pass' if row.casimir_ok else 'fail'},"
            f"{'pass' if row.structure_ok else 'fail'},"
            f"{row.millis}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    for row in summary.rows:
        if row.error:
            print(f"FAILED ({row.p},{row.q}): {row.error}", file=sys.stderr)
    n = len(summary.rows)
    print(
        f"{n} irreps checked below d = {args.max_d}: "
        + ("all pass" if summary.passed else "FAILURES PRESENT"),
        file=sys.stderr,
    )
    return 0 if summary.passed else 1


# ---------------------------------------------------------------------------
# weights / unknowns


def _cmd_weights(args: argparse.Namespace) -> int:
    counts = weight_multiplicities(args.p, args.q)
    lines = ["two_t3,three_y,count"]
    for (two_t3, three_y), count in sorted(counts.items()):
        lines.append(f"{two_t3},{three_y},{count}")
    return _write("\n".join(lines) + "\n", args.output)


def _cmd_unknowns(args: argparse.Namespace) -> int:
    if args.p < args.q:
        return _usage_error("unknowns requires p >= q (use the (q, p) irrep)")
    lines = ["i,j,num,den"]
    for (i, j), value in sorted(block_unknown_squares(args.p, args.q).items()):
        lines.append(f"{i},{j},{value.numerator},{value.denominator}")
    return _write("\n".join(lines) + "\n", args.output)


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "weights": _cmd_weights,
    "unknowns": _cmd_unknowns,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # generate, verify, weights and unknowns carry a size budget, checked on
    # the label alone before anything is built
    if "budget" in args and (d := dimension(args.p, args.q)) > args.budget:
        return _usage_error(
            f"irrep ({args.p}, {args.q}) has d = {d}, above the --max-d budget of {args.budget}"
        )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
