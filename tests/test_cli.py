import argparse
import contextlib
import json
from collections import Counter
from unittest import mock

import pytest

from su3rep import (
    ConsistencyError,
    RadicalSum,
    RadMatrix,
    build_generator_set,
    dimension,
    generators,
    to_gell_mann,
)
from su3rep.generators import GELL_MANN_NAMES, LADDER_PAIRS, MATRIX_NAMES
from su3rep import cli, structure
from su3rep import verify as verify_module
from su3rep.cli import main


_ALL_NAMES = MATRIX_NAMES + GELL_MANN_NAMES
# The ladder matrices each export reads.
_READS = {name: {name} for name in MATRIX_NAMES} | {
    "F1": {"Tp", "Tm"}, "F2": {"Tp", "Tm"}, "F3": {"T3"}, "F4": {"Vp", "Vm"},
    "F5": {"Vp", "Vm"}, "F6": {"Up", "Um"}, "F7": {"Up", "Um"}, "F8": {"U3", "T3"},
}
# The builder of each family of ladder matrices: a builder is called exactly
# when an export reads one of its family.  build_cartan builds T3 and U3,
# and build_raising U+ ("Up") and V+ ("Vp"), each only when asked for it;
# both are counted per matrix built, under the name of the matrix.
_BUILDERS = {
    "build_t_plus": {"Tp", "Tm"},
    "build_cartan": {"T3", "U3"},
    "block_unknown_squares": {"Up", "Um", "Vp", "Vm"},
}
_COUNTED = ("build_cartan", "build_raising")
_FAMILIES = _BUILDERS | {"T3": {"T3"}, "U3": {"U3"}, "Up": {"Up", "Um"}, "Vp": {"Vp", "Vm"}}
# every irrep with d < 100 in both orientations, and (8, 4), (4, 8)
_EXPORT_LABELS = [
    (p, q) for p in range(13) for q in range(13) if dimension(p, q) < 100
] + [(8, 4), (4, 8)]


def _families(reads):
    return {builder for builder, family in _FAMILIES.items() if family & reads}


def _called(calls):
    return {name for name in _FAMILIES if calls[name].call_count}


@contextlib.contextmanager
def _builder_counts():
    """Call-counting wraps of each family builder in the generators module, a
    count of each matrix that build_cartan and build_raising return, and of
    RadMatrix.transpose, whose calls are counted by sign."""
    with contextlib.ExitStack() as stack:
        calls = {
            name: stack.enter_context(
                mock.patch.object(generators, name, wraps=getattr(generators, name))
            )
            for name in _BUILDERS
        }
        calls |= {name: mock.Mock() for name in ("T3", "U3", "Up", "Vp")}
        for builder in _COUNTED:

            def counted_build(*args, build=getattr(generators, builder)):
                built = build(*args)
                for name in built:
                    calls[name]()
                return built

            stack.enter_context(mock.patch.object(generators, builder, counted_build))
        calls["transpose"] = signs = Counter()
        transpose = RadMatrix.transpose

        def counted(mat, sign=1):
            signs[sign] += 1
            return transpose(mat, sign)

        stack.enter_context(mock.patch.object(RadMatrix, "transpose", counted))
        yield calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_t3_csv(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--p", "1", "--q", "0", "--matrix", "T3",
            "--format", "csv",
        )
        assert code == 0
        # the zero entry at (1,1) has no terms and is omitted
        assert out == "row,col,num,den,sf\n2,2,1,2,1\n3,3,-1,2,1\n"

    def test_trivial_up_json(self, capsys):
        code, out, _ = run(capsys, "generate", "--p", "0", "--q", "0", "--matrix", "Up")
        payload = json.loads(out)
        assert code == 0
        assert payload["d"] == 1
        assert payload["entries"] == []

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "generate", "--p", "2", "--q", "1", "--matrix", "Up")
        payload = json.loads(out)
        mat = build_generator_set(2, 1).u_plus
        rebuilt = {
            (e["row"], e["col"]): RadicalSum.from_triples(
                [(t["num"], t["den"], t["sf"]) for t in e["value"]]
            )
            for e in payload["entries"]
        }
        original = {(r + 1, c + 1): v for r, c, v in mat.items()}
        assert rebuilt == original
        rows_cols = [(e["row"], e["col"]) for e in payload["entries"]]
        assert rows_cols == sorted(rows_cols)

    def test_gell_mann_json(self, capsys):
        code, out, _ = run(capsys, "generate", "--p", "1", "--q", "0", "--matrix", "F2")
        payload = json.loads(out)
        assert code == 0
        assert all(e["re"] == [] for e in payload["entries"])
        assert payload["entries"][0]["im"]

    def test_gell_mann_csv_has_part_column(self, capsys):
        _, out, _ = run(
            capsys, "generate", "--p", "1", "--q", "0", "--matrix", "F8",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "row,col,part,num,den,sf"
        assert all(",re," in line or ",im," in line for line in lines[1:])

    @pytest.mark.parametrize("name", ["F1", "F2", "F4", "F5", "F6", "F7", "F8"])
    def test_one_gell_mann_matrix_built(self, capsys, name):
        # only the requested F matrix is combined, not all eight, and only
        # the families it reads are built: F4..F7 read one raising family and
        # build no matrix of the other, in both orientations
        for p, q in ((2, 1), (1, 2)):
            with mock.patch.object(generators, "_combine", wraps=generators._combine) as combine, \
                    _builder_counts() as calls:
                code, _, _ = run(capsys, "generate", "--p", str(p), "--q", str(q), "--matrix", name)
            assert code == 0 and combine.call_count == 1
            assert _called(calls) == _families(_READS[name])

    @pytest.mark.parametrize("p,q", [(2, 1), (1, 2)])
    @pytest.mark.parametrize("name", _ALL_NAMES)
    def test_each_export_builds_only_its_family(self, capsys, name, p, q):
        reads = _READS[name]
        with _builder_counts() as calls:
            code, _, _ = run(capsys, "generate", "--p", str(p), "--q", str(q), "--matrix", name)
        assert code == 0
        assert _called(calls) == _families(reads)
        # each builder is called at most once; T3, U3, U+ and V+ are each
        # built once if their family is read, and not at all otherwise
        for family in _FAMILIES:
            assert calls[family].call_count == bool(_FAMILIES[family] & reads), family
        # T-, U- and V- are transposes of T+, U+ and V+, built only when read
        assert calls["transpose"][1] == len(reads & {"Tm", "Um", "Vm"})
        # for q > p, each raising and Cartan matrix built is negative-
        # transposed once, and no lowering matrix is
        partner = {minus: plus for plus, minus in LADDER_PAIRS.items()}
        built = {partner.get(name, name) for name in reads}
        assert calls["transpose"][-1] == (len(built) if q > p else 0)

    @pytest.mark.parametrize("p,q", _EXPORT_LABELS)
    def test_export_equals_the_full_build(self, capsys, p, q):
        gs = build_generator_set(p, q)
        fs = to_gell_mann(gs)
        for name in _ALL_NAMES:
            code, out, _ = run(capsys, "generate", "--p", str(p), "--q", str(q), "--matrix", name)
            payload = json.loads(out)
            assert code == 0 and (payload["p"], payload["q"], payload["matrix"]) == (p, q, name)

            def triples(terms):
                return [(t["num"], t["den"], t["sf"]) for t in terms]

            if name.startswith("F"):
                f = fs[int(name[1:])]
                got = {(e["row"], e["col"]): (triples(e["re"]), triples(e["im"]))
                       for e in payload["entries"]}
                cells = sorted({(r, c) for r, c, _ in f.re.items()}
                               | {(r, c) for r, c, _ in f.im.items()})
                want = {(r + 1, c + 1): (f.re.get(r, c).to_triples(), f.im.get(r, c).to_triples())
                        for r, c in cells}
            else:
                got = {(e["row"], e["col"]): triples(e["value"]) for e in payload["entries"]}
                want = {(r + 1, c + 1): v.to_triples() for r, c, v in gs.matrices()[name].items()}
            assert got == want, name
            assert list(got) == sorted(want), name

    def test_approx_column(self, capsys):
        _, out, _ = run(
            capsys, "generate", "--p", "1", "--q", "0", "--matrix", "T3",
            "--format", "csv", "--approx",
        )
        lines = out.splitlines()
        assert lines[0] == "row,col,num,den,sf,approx"
        assert lines[1].endswith(",0.5")

    def test_csv_and_json_approx_agree(self, capsys):
        # -sqrt(249690)/435: 249690 ** 0.5 is 1 ulp off math.sqrt(249690)
        argv = ["generate", "--p", "1", "--q", "39", "--matrix", "Up", "--approx"]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        (line,) = [row for row in out.splitlines() if row.startswith("871,842,")]
        _, out, _ = run(capsys, *argv)
        (entry,) = [e for e in json.loads(out)["entries"] if (e["row"], e["col"]) == (871, 842)]
        assert line == "871,842,-1,435,249690,-1.1487124226215442"
        assert entry["approx"] == -1.1487124226215442

    def test_main_builds_no_parser_per_call(self, capsys):
        # after a cold cache, three calls build one parser: its __init__ and
        # one per subcommand, and no more
        init = argparse.ArgumentParser.__init__
        cli.build_parser.cache_clear()
        with mock.patch.object(
            argparse.ArgumentParser, "__init__", autospec=True, side_effect=init
        ) as inits:
            for _ in range(3):
                code, _, _ = run(capsys, "generate", "--p", "1", "--q", "0", "--matrix", "T3")
                assert code == 0
        assert cli.build_parser.cache_info().misses == 1
        assert inits.call_count == 1 + len(cli._COMMANDS)

    def test_reused_parser_keeps_no_state(self, capsys, tmp_path):
        # --approx and -o, then neither, then both again: each call prints and
        # writes what the same call through a fresh parser does
        target = tmp_path / "f8.csv"
        plain = ["generate", "--p", "2", "--q", "1", "--matrix", "F8", "--format", "csv"]
        flagged = plain + ["--approx", "-o", str(target)]

        def outcome(argv, parser):
            target.unlink(missing_ok=True)
            with mock.patch.object(cli, "build_parser", lambda: parser):
                result = run(capsys, *argv)
            return result, target.read_text() if target.exists() else None

        reused = cli.build_parser()
        assert cli.build_parser() is reused
        for argv in (flagged, plain, flagged):
            assert outcome(argv, reused) == outcome(argv, cli.build_parser.__wrapped__())
        assert ",approx" in outcome(flagged, reused)[1]
        (code, out, _), written = outcome(plain, reused)
        assert code == 0 and written is None and ",approx" not in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "generate", "--p", "3", "--q", "1", "--matrix", "Vp")
        _, second, _ = run(capsys, "generate", "--p", "3", "--q", "1", "--matrix", "Vp")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t3.csv"
        code, out, _ = run(
            capsys, "generate", "--p", "1", "--q", "0", "--matrix", "T3",
            "--format", "csv", "-o", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("row,col,num,den,sf\n")

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "generate", "--p", "1", "--q", "0", "--matrix", "T3", "-o", str(target),
        )
        assert code == 2 and out == ""
        assert err.startswith("su3rep: error: cannot write ") and str(target) in err
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_unknown_matrix_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--p", "1", "--q", "0", "--matrix", "X9"])
        assert err.value.code == 2

    def test_negative_label_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--p", "-1", "--q", "0", "--matrix", "T3"])
        assert err.value.code == 2


class TestVerify:
    def test_pass_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "2")
        assert code == 0
        assert "commutators: 28/28 exact" in out
        assert "eigenvalue 34/3" in out
        assert out.endswith("PASS\n")

    @pytest.mark.parametrize("argv", [["oracle", "--p", "2", "--q", "1"],
                                      ["verify", "--p", "2", "--q", "1", "--oracle"]])
    def test_retired_oracle_front_ends_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


class TestSweep:
    def test_small_sweep_csv(self, capsys):
        code, out, err = run(capsys, "sweep", "--max-d", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,q,d,commutators,casimir,structure,ms"
        prefix = [line.rsplit(",", 1)[0] for line in lines[1:]]
        assert prefix == [
            "0,0,1,pass,pass,pass",
            "0,1,3,pass,pass,pass",
            "1,0,3,pass,pass,pass",
            "1,1,8,pass,pass,pass",
            "2,0,6,pass,pass,pass",
        ]
        assert "all pass" in err

    def test_worker_exception_is_reported(self, capsys, monkeypatch):
        verify_irrep = verify_module.verify_irrep

        def failing_at_11(p, q):
            if (p, q) == (1, 1):
                raise ConsistencyError("no closed form")
            return verify_irrep(p, q)

        monkeypatch.setattr("su3rep.verify.verify_irrep", failing_at_11)
        code, out, err = run(capsys, "sweep", "--max-d", "9")
        assert code == 1
        prefix = [line.rsplit(",", 1)[0] for line in out.splitlines()[1:]]
        assert prefix == [
            "0,0,1,pass,pass,pass",
            "0,1,3,pass,pass,pass",
            "1,0,3,pass,pass,pass",
            "1,1,8,fail,fail,fail",
            "2,0,6,pass,pass,pass",
        ]
        assert err == (
            "FAILED (1,1): ConsistencyError: no closed form\n"
            "5 irreps checked below d = 9: FAILURES PRESENT\n"
        )

    def test_empty_sweep_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--max-d", "1")
        assert (code, out) == (2, "")
        assert err.startswith("su3rep: error:") and "at least 2" in err

    def test_bound_above_the_budget_exits_before_listing(self, capsys, monkeypatch):
        # a bound above DEFAULT_MAX_D + 1 exits 2 before the irreps are
        # listed; DEFAULT_MAX_D + 1 itself, the largest sweep, is listed
        def listing(max_d):
            raise LookupError(f"sweep_labels({max_d}) called")

        monkeypatch.setattr(verify_module, "sweep_labels", listing)
        top = cli.DEFAULT_MAX_D + 1
        for bound in (top + 1, 10**6):
            code, out, err = run(capsys, "sweep", "--max-d", str(bound))
            assert (code, out) == (2, "")
            assert err == f"su3rep: error: sweep --max-d is at most {top}, got {bound}\n"
        with pytest.raises(LookupError, match=f"sweep_labels\\({top}\\)"):
            main(["sweep", "--max-d", str(top)])


class TestWeights:
    def test_quark_triplet(self, capsys):
        code, out, _ = run(capsys, "weights", "--p", "1", "--q", "0")
        assert code == 0
        assert out == "two_t3,three_y,count\n-1,1,1\n0,-2,1\n1,1,1\n"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "weights", "--p", "5", "--q", "3")
        _, second, _ = run(capsys, "weights", "--p", "5", "--q", "3")
        assert first == second


class TestBudget:
    # where generate, verify, weights and unknowns look up the builders they call
    _BUILDERS = [
        (cli, "build_matrices"),
        (verify_module, "build_generator_set"),
        (structure, "state_labels"),
        (cli, "block_unknown_squares"),
    ]

    @pytest.mark.parametrize("p,q", [(200, 200), (400, 100), (100, 400)])
    @pytest.mark.parametrize("argv", [
        ["generate", "--matrix", "T3"],
        ["generate", "--matrix", "F8", "--format", "csv"],
        ["verify"],
        ["weights"],
        ["unknowns"],
    ])
    def test_over_budget_exits_before_building(self, capsys, p, q, argv):
        # each builder the four commands reach raises, so an exit 2 shows
        # that the budget was checked on the label alone
        with contextlib.ExitStack() as stack:
            for module, name in self._BUILDERS:
                stack.enter_context(mock.patch.object(
                    module, name, side_effect=AssertionError(f"{name} called")
                ))
            code, out, err = run(capsys, *argv, "--p", str(p), "--q", str(q))
        d = dimension(p, q)
        assert (code, out) == (2, "")
        assert err == (
            f"su3rep: error: irrep ({p}, {q}) has d = {d}, "
            f"above the --max-d budget of {cli.DEFAULT_MAX_D}\n"
        )

    def test_default_budget_admits_40_20(self, capsys):
        with mock.patch.dict(cli._COMMANDS, verify=lambda args: 0):
            assert run(capsys, "verify", "--p", "40", "--q", "20") == (0, "", "")

    def test_budget_is_inclusive_and_settable(self, capsys):
        # (2, 1) has d = 15
        code, out, _ = run(capsys, "weights", "--p", "2", "--q", "1", "--max-d", "15")
        assert code == 0 and out.startswith("two_t3,three_y,count\n")
        code, out, err = run(capsys, "verify", "--p", "2", "--q", "1", "--max-d", "14")
        assert (code, out) == (2, "")
        assert "d = 15" in err and "budget of 14" in err

    def test_nonpositive_budget_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["weights", "--p", "1", "--q", "0", "--max-d", "0"])
        assert err.value.code == 2


class TestUnknowns:
    def test_unknowns_csv(self, capsys):
        code, out, _ = run(capsys, "unknowns", "--p", "1", "--q", "1")
        assert code == 0
        assert out == (
            "i,j,num,den\n1,2,3,2\n2,3,0,1\n3,1,3,2\n3,4,1,1\n4,2,1,2\n"
        )

    def test_orientation_guard(self, capsys):
        code, _, err = run(capsys, "unknowns", "--p", "1", "--q", "2")
        assert code == 2 and "p >= q" in err
