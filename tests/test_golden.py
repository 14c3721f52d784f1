"""User-visible outputs pinned byte for byte.

``golden_outputs.json`` holds, for the cases below, what the CLI printed
(``generate`` and ``unknowns`` as sha256 digests, the rest as text) and what ``render_report``
returned for deliberately corrupted sets.  Every case is recomputed here and
compared with the record, so a refactor that changes any output byte fails.

After an intended change of output, rewrite the record with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.json

and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from su3rep import (
    CheckReport,
    build_generator_set,
    check_casimir,
    check_commutators,
    dimension,
)
from su3rep.cli import _exported, main, render_report
from su3rep.generators import GELL_MANN_NAMES, MATRIX_NAMES
from su3rep.radical import float_of_triples
from su3rep.verify import _Hypotheses, _weights_line
from conftest import labels_below
from test_verify import _plus_sqrt7_at_first_entry, _reference_structure_lines

RECORD = Path(__file__).with_name("golden_outputs.json")
# The 64 digests of `generate` for all 16 matrices of (8, 4) and (4, 8), d = 315,
# as JSON and CSV, that the benchmark's export workload checks; read only.
EXPORT_DIGESTS = Path(__file__).parents[1] / "perfbench" / "export16_sha256.json"
EXPORT_IRREPS = ((8, 4), (4, 8))

GENERATE_IRREPS = ((0, 0), (1, 0), (2, 1), (1, 2), (3, 2), (2, 3))
GENERATE_CASES = [
    (p, q, fmt, approx)
    for p, q in GENERATE_IRREPS
    for fmt in ("json", "csv")
    for approx in (False, True)
]
# Each record is keyed "p,q oracle=False", and each case carries that False:
# the suffix names the retired `verify --oracle` flag, kept so that the
# records and the test ids stay as they were.
VERIFY_CASES = [(p, q, False) for p, q in ((0, 0), (1, 0), (2, 1), (3, 2), (2, 3))]
CORRUPTED_CASES = [
    (p, q, field)
    for p, q in ((3, 2), (2, 3))
    for field in ("u_plus", "t_three", "v_minus")
]
SWEEP_MAX_D = 100
UNKNOWNS_MAX_D = 6000  # every p >= q irrep below it: q = 0, q = 1 and q >= 2
DIAGONAL_MAX_D = 1000  # the same for the weights and the T3/U3 CSV pins


def _run(*argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def _digest(*argv: str) -> str:
    result = _run(*argv)
    assert (result["code"], result["err"]) == (0, "")
    return hashlib.sha256(result["out"].encode()).hexdigest()


def _generate_key(p, q, fmt, approx) -> str:
    return f"{p},{q} {fmt}" + (" approx" if approx else "")


def generate_digests(p, q, fmt, approx) -> dict[str, str]:
    """sha256 of `generate` stdout for all 16 matrices of one irrep."""
    return {
        name: _digest("generate", "--p", str(p), "--q", str(q), "--matrix", name,
                      "--format", fmt, *(["--approx"] if approx else []))
        for name in MATRIX_NAMES + GELL_MANN_NAMES
    }


def verify_output(p, q) -> dict:
    return _run("verify", "--p", str(p), "--q", str(q))


def corrupted_report_text(p, q, field) -> str:
    """render_report of (p, q) with sqrt(7) added to the first entry of one
    matrix: every line computed, the hermitian and traceless lines from the
    built F1..F8, the third structure line verify's weight certificate."""
    bad_set = _plus_sqrt7_at_first_entry(build_generator_set(p, q), field)
    relations = list(check_commutators(bad_set).relations)
    relations.append(check_casimir(bad_set))
    relations.extend(_reference_structure_lines(bad_set))
    relations.append(_weights_line(bad_set, _Hypotheses.read(bad_set.matrices()).diagonals))
    return render_report(CheckReport(p, q, tuple(relations)))


def sweep_output() -> dict:
    """`sweep` output with the timing column cut from every row."""
    result = _run("sweep", "--max-d", str(SWEEP_MAX_D))
    result["out"] = "".join(line.rsplit(",", 1)[0] + "\n" for line in result["out"].splitlines())
    return result


def unknowns_digests() -> dict[str, str]:
    """sha256 of `unknowns` stdout for every p >= q irrep with d < UNKNOWNS_MAX_D."""
    return {f"{p},{q}": _digest("unknowns", "--p", str(p), "--q", str(q))
            for p, q in labels_below(UNKNOWNS_MAX_D)}


def weights_digests() -> dict[str, str]:
    """sha256 of `weights` stdout for every irrep with d < DIAGONAL_MAX_D, both orientations."""
    labels = sorted({label for p, q in labels_below(DIAGONAL_MAX_D) for label in ((p, q), (q, p))})
    return {f"{p},{q}": _digest("weights", "--p", str(p), "--q", str(q)) for p, q in labels}


def diagonal_csv_digests() -> dict[str, dict[str, str]]:
    """sha256 of `generate --format csv` for T3 and U3, every p >= q irrep with
    d < DIAGONAL_MAX_D: the diagonals spell out the block order and the leads."""
    return {
        f"{p},{q}": {
            name: _digest("generate", "--p", str(p), "--q", str(q), "--matrix", name, "--format", "csv")
            for name in ("T3", "U3")
        }
        for p, q in labels_below(DIAGONAL_MAX_D)
    }


def record() -> dict:
    return {
        "generate": {_generate_key(*case): generate_digests(*case) for case in GENERATE_CASES},
        "verify": {f"{p},{q} oracle={oracle}": verify_output(p, q)
                   for p, q, oracle in VERIFY_CASES},
        "render_report corrupted": {f"{p},{q} {field}": corrupted_report_text(p, q, field)
                                    for p, q, field in CORRUPTED_CASES},
        "sweep": sweep_output(),
        "unknowns": unknowns_digests(),
        "weights": weights_digests(),
        "generate T3 U3 csv": diagonal_csv_digests(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("p,q,fmt,approx", GENERATE_CASES)
def test_generate(golden, p, q, fmt, approx):
    want = golden["generate"][_generate_key(p, q, fmt, approx)]
    assert generate_digests(p, q, fmt, approx) == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("p,q", EXPORT_IRREPS)
def test_export_digests_at_d_315(p, q, fmt):
    recorded = json.loads(EXPORT_DIGESTS.read_text())
    assert len(recorded) == 64
    want = {name: recorded[f"generate({p},{q}) {name} {fmt}"]
            for name in MATRIX_NAMES + GELL_MANN_NAMES}
    assert generate_digests(p, q, fmt, False) == want


def _reference_json_payload(p, q, name, approx) -> dict:
    """The JSON export as dicts for json.dumps, one per cell and one per term,
    Fk's other part [] (approx 0): the reference for the emitter's text."""
    part, mat = _exported(p, q, name)
    parts = ("value",) if part == "value" else ("re", "im")
    entries = []
    for row, col, triples in mat.triple_items():
        entry = {"row": row + 1, "col": col + 1, **dict.fromkeys(parts, [])}
        entry[part] = [{"num": num, "den": den, "sf": sf} for num, den, sf in triples]
        if approx:
            value = float_of_triples(triples)
            entry["approx"] = (value if part == "value"
                               else {x: value if x == part else 0 for x in parts})
        entries.append(entry)
    return {"p": p, "q": q, "d": dimension(p, q), "matrix": name, "entries": entries}


@pytest.mark.parametrize("approx", [False, True])
@pytest.mark.parametrize("p,q", GENERATE_IRREPS + EXPORT_IRREPS)
def test_json_text_is_what_json_dumps_writes(p, q, approx):
    # the emitter writes its text directly; it must be json.dumps's bytes
    # of the reference payload, and survive a round trip through json
    flag = ["--approx"] if approx else []
    for name in MATRIX_NAMES + GELL_MANN_NAMES:
        result = _run("generate", "--p", str(p), "--q", str(q), "--matrix", name,
                      "--format", "json", *flag)
        text = result["out"]
        assert (result["code"], result["err"]) == (0, ""), name
        # compared as lists split at ", " (join inverts split, so this is byte
        # equality) so that a failure names its first differing item quickly
        want = json.dumps(_reference_json_payload(p, q, name, approx)) + "\n"
        assert text.split(", ") == want.split(", "), name
        assert (json.dumps(json.loads(text)) + "\n").split(", ") == text.split(", "), name


@pytest.mark.parametrize("p,q,oracle", VERIFY_CASES)
def test_verify(golden, p, q, oracle):
    assert verify_output(p, q) == golden["verify"][f"{p},{q} oracle={oracle}"]


@pytest.mark.parametrize("p,q,field", CORRUPTED_CASES)
def test_corrupted_report(golden, p, q, field):
    want = golden["render_report corrupted"][f"{p},{q} {field}"]
    assert corrupted_report_text(p, q, field) == want


def test_sweep(golden):
    assert sweep_output() == golden["sweep"]


def test_unknowns(golden):
    assert unknowns_digests() == golden["unknowns"]


def test_weights(golden):
    assert weights_digests() == golden["weights"]


def test_diagonal_csv(golden):
    assert diagonal_csv_digests() == golden["generate T3 U3 csv"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
