"""Command-line behavior: exit codes, determinism, fixture round trips."""

import json
import pathlib
import random

import pytest

from abpkit import abp as abpio
from abpkit.algebra import PrimeField, SparsePoly
from abpkit.cli import main
from abpkit.corpus import random_roabp
from abpkit.hardpoly import eliminate_summand

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_two_pass_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "two_pass.json")
        assert code == 0
        assert "read-2" in out
        assert "2-pass, order (1,2)" in out

    def test_pn_fixture_varying(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "pn_2.json")
        assert code == 0
        assert "2-pass varying-order" in out

    def test_missing_file_is_error(self, capsys):
        code, _, err = run(capsys, "validate", FIXTURES / "nope.json")
        assert code == 2
        assert "error:" in err


class TestEvalExpand:
    def test_eval_point(self, capsys):
        code, out, _ = run(capsys, "eval", FIXTURES / "two_pass.json",
                           "--point", "2,3")
        assert code == 0
        assert out.strip() == "36"  # (x1 x2)^2 at (2,3)

    def test_expand_prints_polynomial(self, capsys):
        code, out, _ = run(capsys, "expand", FIXTURES / "zero.json")
        assert code == 0
        assert out.strip() == "0"

    @pytest.mark.parametrize("num_vars", [-1, "2", 1.0, True])
    def test_bad_num_vars_refused(self, capsys, tmp_path, num_vars):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field_prime": 7, "num_vars": num_vars,
                                    "layers": []}))
        code, out, err = run(capsys, "expand", path)
        assert code == 2
        assert out == ""
        assert "num_vars" in err

    @pytest.mark.parametrize("layer, entry", [
        ({"var": 1, "matrix": [[[0.5, 1]]]}, "matrix[0][0] coefficient 0"),
        ({"var": 1, "matrix": [[[1, True]]]}, "matrix[0][0] coefficient 1"),
        ({"var": True, "matrix": [[[0, 1]]]}, "var"),
        ({"var": 1, "matrix": [[1]]}, "matrix[0][0]"),
    ])
    def test_non_int_layer_entries_refused(self, capsys, tmp_path, layer, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field_prime": 7, "num_vars": 1,
                                    "layers": [{"var": None, "matrix": [[[1]]]},
                                               layer]}))
        for argv in (["eval", path, "--point", "3"], ["expand", path]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "layer 1" in err and entry in err

    @pytest.mark.parametrize("document, message", [
        ([1], "ABP document must be a JSON object"),
        ("abc", "ABP document must be a JSON object"),
        ({"field_prime": 7, "num_vars": 1, "layers": [[1]]},
         "layer 0 must be a JSON object"),
        ({"field_prime": 7, "num_vars": 1, "layers": [5]},
         "layer 0 must be a JSON object"),
    ], ids=["list", "string", "layer-list", "layer-int"])
    def test_wrong_type_named_as_wrong_type(self, capsys, tmp_path, document, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "expand", path)
        assert code == 2
        assert out == ""
        assert message in err
        assert "missing" not in err

    def test_expand_guard_error(self, capsys):
        code, _, err = run(capsys, "expand", FIXTURES / "pn_3.json",
                           "--guard", "2")
        assert code == 2
        assert "guard" in err


class TestPit:
    def test_nonzero_exit_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "pit", FIXTURES / "qn_2.json",
                           "--generator", "grid")
        assert code == 1
        assert "witness" in out

    def test_zero_exit_zero(self, capsys):
        for name in ("zero.json", "cancel_zero.json"):
            code, out, _ = run(capsys, "pit", FIXTURES / name)
            assert code == 0
            assert "zero polynomial" in out

    def test_report_deterministic(self, capsys, tmp_path):
        r1 = tmp_path / "a.csv"
        r2 = tmp_path / "b.csv"
        run(capsys, "pit", FIXTURES / "qn_2.json", "--seed", "3",
            "--report", r1)
        run(capsys, "pit", FIXTURES / "qn_2.json", "--seed", "3",
            "--report", r2)
        assert r1.read_bytes() == r2.read_bytes()
        assert r1.read_text().startswith("iteration,")

    def test_degree_reaching_p_exit_two(self, capsys, tmp_path):
        # x^7 - x over F_7 is a nonzero polynomial that the grid cannot hit
        path = tmp_path / "x7.json"
        path.write_text(json.dumps({"field_prime": 7, "num_vars": 1, "layers": [
            {"var": 1, "matrix": [[[0, 6, 0, 0, 0, 0, 0, 1]]]}]}))
        code, out, err = run(capsys, "pit", path)
        assert code == 2
        assert out == ""
        assert "no grid points hit every nonzero polynomial" in err

    @pytest.mark.parametrize("layers", [
        [{"var": 1, "matrix": [[[0, 6, 0, 0, 0, 0, 0, 1]]]}],
        [{"var": 1, "matrix": [[[0, 0, 0, 0, 1], [0, 1]]]},
         {"var": 1, "matrix": [[[0, 0, 0, 1]], [[6]]]}]])
    @pytest.mark.parametrize("generator", ["random", "external"])
    def test_degree_reaching_p_exit_two_for_every_generator(self, capsys, tmp_path,
                                                            layers, generator):
        # x^7 - x over F_7, read once or twice (layer degrees 4 and 3): every
        # point of F_7 is a zero, so no generator may report "zero polynomial"
        path = tmp_path / "x7.json"
        path.write_text(json.dumps({"field_prime": 7, "num_vars": 1, "layers": layers}))
        points = tmp_path / "points.txt"
        points.write_text("0\n1\n2\n3\n4\n5\n6\n")
        code, out, err = run(capsys, "pit", path, "--generator", generator,
                             "--points-file", points)
        assert code == 2
        assert out == ""
        assert f"no {generator} points hit every nonzero polynomial" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_random_round_exit_two(self, capsys, count):
        # a round with no points hits nothing; P_3 is nonzero
        code, out, err = run(capsys, "pit", FIXTURES / "pn_3.json",
                             "--generator", "random", "--count", count)
        assert code == 2
        assert out == ""
        assert "count >= 1" in err

    def test_empty_points_file_exit_two(self, capsys, tmp_path):
        # an empty file and a missing one are both refused
        path = tmp_path / "none.txt"
        path.write_text("# comments only\n\n")
        for points, message in [(path, "no points"), (tmp_path / "absent.txt", "absent.txt")]:
            code, out, err = run(capsys, "pit", FIXTURES / "pn_3.json",
                                 "--generator", "external", "--points-file", points)
            assert code == 2
            assert out == ""
            assert message in err


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["pn_1.json", "pn_2.json", "pn_3.json",
                                      "qn_2.json", "qn_3.json",
                                      "kgap_figure.json", "zero.json",
                                      "cancel_zero.json", "two_pass.json"])
    def test_fixture_round_trip(self, name):
        path = FIXTURES / name
        program = abpio.load(path)
        text = abpio.to_canonical_text(program)
        again = abpio.parse_text(text)
        assert again.layers == program.layers
        assert abpio.to_canonical_text(again) == text
        # fixtures are stored canonically
        assert path.read_text() == text

    def test_fixture_is_valid_json(self):
        for path in FIXTURES.glob("*.json"):
            json.loads(path.read_text())


class TestPipelines:
    def test_gen_then_expand(self, capsys, tmp_path):
        out_path = tmp_path / "pn2.json"
        code, _, _ = run(capsys, "gen", "pn", "--n", "2", "--out", out_path)
        assert code == 0
        code, out, _ = run(capsys, "eval", out_path, "--point", "1,1,1,1")
        assert code == 0
        assert out.strip() == "16"

    def test_collapse_k_gap_fixture(self, capsys, tmp_path):
        out_path = tmp_path / "collapsed.json"
        code, out, _ = run(capsys, "collapse", FIXTURES / "kgap_figure.json",
                           "--mode", "k-gap", "--out", out_path)
        assert code == 0
        assert "read-once width" in out
        collapsed = abpio.load(out_path)
        original = abpio.load(FIXTURES / "kgap_figure.json")
        assert collapsed.expand() == original.expand()

    def test_collapse_k_pass_two_pass(self, capsys):
        code, out, _ = run(capsys, "collapse", FIXTURES / "two_pass.json",
                           "--mode", "k-pass")
        assert code == 0

    def test_collapse_k_pass_rejects_varying(self, capsys):
        code, _, err = run(capsys, "collapse", FIXTURES / "pn_2.json",
                           "--mode", "k-pass")
        assert code == 2
        assert "not k-pass" in err

    def test_synth_roabp(self, capsys, tmp_path):
        out_path = tmp_path / "synth.json"
        code, out, _ = run(capsys, "synth-roabp", FIXTURES / "two_pass.json",
                           "--out", out_path)
        assert code == 0
        assert "width profile" in out
        synth = abpio.load(out_path)
        original = abpio.load(FIXTURES / "two_pass.json")
        assert synth.expand() == original.expand()

    def test_evaldim_prefix(self, capsys):
        code, out, _ = run(capsys, "evaldim", FIXTURES / "pn_2.json",
                           "--prefix", "2")
        assert code == 0
        assert out.startswith("dimension ")

    @pytest.mark.parametrize("name, want", [
        ("zero.json", "dimension 0\n"),
        ("pn_2.json", "dimension 1\nbasis assignment: \n"),
    ])
    def test_evaldim_empty_prefix(self, capsys, name, want):
        # the empty assignment is the one grid point: kept unless f is zero
        code, out, _ = run(capsys, "evaldim", FIXTURES / name, "--prefix", "0")
        assert code == 0
        assert out == want

    def test_evaldim_negative_prefix_exit_two(self, capsys):
        # order[:-1] would silently split after all but the last variable
        code, out, err = run(capsys, "evaldim", FIXTURES / "pn_2.json",
                             "--prefix", "-1")
        assert code == 2
        assert out == ""
        assert "--prefix must be >= 0" in err

    @pytest.mark.parametrize("split", [[], ["--S", "1,2"], ["--T", "3,4"]])
    def test_evaldim_without_a_split_exit_two(self, capsys, split):
        code, out, err = run(capsys, "evaldim", FIXTURES / "pn_2.json", *split)
        assert code == 2
        assert out == ""
        assert "either --prefix or both --S and --T are required" in err

    def test_evaldim_sets_with_r(self, capsys):
        code, out, _ = run(capsys, "evaldim", FIXTURES / "qn_2.json",
                           "--S", "1,2", "--T", "3,4", "--R", "5,6")
        assert code == 0
        assert "trial dimensions" in out

    def test_sequence_show_check_prune(self, capsys):
        for action in ("show", "check", "prune"):
            code, out, _ = run(capsys, "sequence", FIXTURES / "kgap_figure.json",
                               "--action", action)
            assert code == 0
        assert "gap counts" not in ""  # smoke: last run printed something
        code, out, _ = run(capsys, "sequence", FIXTURES / "kgap_figure.json",
                           "--action", "check")
        assert "regularly interleaving: True" in out
        assert "gap counts per prefix" in out


class TestExperiments:
    def test_iteration_bound_small_grid(self, capsys, tmp_path):
        report = tmp_path / "bound.csv"
        code, out, _ = run(capsys, "experiment", "iteration-bound",
                           "--p-grid", "0.25,0.5", "--r-max", "3",
                           "--n-max", "50", "--report", report)
        assert code == 0
        assert "0 failures" in out
        lines = report.read_text().splitlines()
        assert lines[0] == "p,r,n,ok"
        assert len(lines) == 1 + 2 * 3 * 50

    @pytest.mark.parametrize("flag, value", [("--r-max", 0), ("--n-max", 0),
                                             ("--n-max", -5), ("--max-size", -1),
                                             ("--pairs", 0)])
    def test_iteration_bound_empty_sweep_refused(self, capsys, flag, value):
        # an empty experiment would pass vacuously: "0 grid points checked",
        # "0 subsets", "0 sampled splits"
        kind = {"--max-size": "pn-evaldim", "--pairs": "qn-evaldim"}.get(flag, "iteration-bound")
        args = {"--r-max": 3, "--n-max": 50, flag: value}
        code, out, err = run(capsys, "experiment", kind,
                             *(x for kv in args.items() for x in kv))
        assert code == 2
        assert out == ""
        assert flag in err

    def test_iteration_bound_large_denominator_refused(self, capsys):
        code, out, err = run(capsys, "experiment", "iteration-bound",
                             "--p-grid", "0.00001", "--r-max", "1", "--n-max", "5")
        assert code == 2
        assert out == ""
        assert "denominator 100000" in err

    @pytest.mark.parametrize("bad, message", [("0.00001", "denominator 100000"),
                                              ("1.5", "strictly between 0 and 1")])
    def test_iteration_bound_bad_p_writes_no_report(self, capsys, tmp_path, bad, message):
        # the rows stream to the report, so every p is checked before it opens
        report = tmp_path / "bad.csv"
        code, out, err = run(capsys, "experiment", "iteration-bound", "--p-grid", f"0.5,{bad}",
                             "--r-max", "3", "--n-max", "50", "--report", report)
        assert code == 2
        assert out == ""
        assert message in err
        assert not report.exists()

    def test_pn_experiment(self, capsys, tmp_path):
        report = tmp_path / "pn.csv"
        code, out, _ = run(capsys, "experiment", "pn-evaldim", "--n", "2",
                           "--max-size", "1", "--report", report)
        assert code == 0
        assert report.exists()

    def test_qn_experiment(self, capsys, tmp_path):
        report = tmp_path / "qn.csv"
        code, out, _ = run(capsys, "experiment", "qn-evaldim", "--n", "3",
                           "--pairs", "5", "--field-prime", "10007",
                           "--report", report)
        assert code == 0
        assert "0 floor violations" in out

    @pytest.mark.parametrize("kind, n, message", [
        ("pn-evaldim", 0, "error: n must be at least 1"),
        ("qn-evaldim", 1, "error: n must be at least 2"),
        ("pn-evaldim", 5, "error: symbolic P_5 estimated at 9765625 terms exceeds guard 1000000"),
        ("qn-evaldim", 16,
         "error: symbolic Q_16 estimated at 1048576 terms exceeds guard 1000000"),
    ])
    def test_family_size_refused(self, capsys, kind, n, message):
        code, out, err = run(capsys, "experiment", kind, "--n", n)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [message]

    def test_qn_no_trials_refused(self, capsys, tmp_path):
        # no trial would leave dimension -1, reported as a floor violation
        report = tmp_path / "qn.csv"
        code, out, err = run(capsys, "experiment", "qn-evaldim", "--n", "2",
                             "--pairs", "1", "--trials", "0", "--report", report)
        assert code == 2
        assert out == ""
        assert "trials" in err
        assert not report.exists()

    def test_experiment_reports_byte_identical(self, capsys, tmp_path):
        r1 = tmp_path / "one.csv"
        r2 = tmp_path / "two.csv"
        for target in (r1, r2):
            run(capsys, "experiment", "qn-evaldim", "--n", "3", "--pairs", "6",
                "--seed", "4", "--field-prime", "10007", "--report", target)
        assert r1.read_bytes() == r2.read_bytes()

    def test_eliminate_experiment(self, capsys):
        code, out, _ = run(capsys, "experiment", "eliminate", "--n", "4",
                           "--width", "2", "--t", "1", "--seed", "2")
        assert code == 0
        assert "alpha:" in out

    @pytest.mark.parametrize("prime, seed", [(2, 0), (3, 1)])
    def test_eliminate_small_field_ends(self, capsys, prime, seed):
        # every prefix range already holds the whole field and p^t < w + 1,
        # so the grid cannot be widened any further
        code, out, _ = run(capsys, "experiment", "eliminate", "--n", "3", "--width", "3",
                           "--t", "1", "--field-prime", prime, "--seed", seed)
        assert code == 0
        field = PrimeField(prime)
        rng = random.Random(seed)
        parts = [random_roabp(rng, field, 3, 3, 1) for _ in range(2)]
        result = eliminate_summand(parts, 1)
        assert out.splitlines()[1] == "alpha: " + " ".join(map(str, result.alpha))
        assert any(result.alpha)
        f1 = parts[0].abp.expand()
        combo = SparsePoly.zero(field, 3)
        for a, al in zip(result.assignments, result.alpha):
            combo = combo + f1.substitute(dict(zip(result.subset, a))).scale(al)
        assert combo.is_zero

    def test_pn_experiment_field_precondition(self, capsys):
        # over F_2 the rank counts more restrictions than F_2^S has points
        code, out, err = run(capsys, "experiment", "pn-evaldim", "--n", "3",
                             "--field-prime", "2")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: field size 2 must exceed P_n's individual degree 2"]
        code, out, _ = run(capsys, "experiment", "pn-evaldim", "--n", "3",
                           "--max-size", "2", "--field-prime", "3")
        assert code == 0
        assert out == "46 subsets, 0 floor violations inside the guarantee range\n"

    def test_qn_experiment_past_six(self, capsys):
        code, out, _ = run(capsys, "experiment", "qn-evaldim", "--n", "7")
        assert code == 0
        assert out == "50 sampled splits, 0 floor violations\n"

    def test_blocks_experiment(self, capsys):
        code, out, _ = run(capsys, "experiment", "blocks",
                           "--file", FIXTURES / "pn_2.json", "--blocks", "4")
        assert code == 0
        assert "|U|=" in out

    def test_blocks_experiment_without_file_named(self, capsys):
        code, out, err = run(capsys, "experiment", "blocks")
        assert code == 2
        assert out == ""
        assert "needs --file" in err

    def test_external_points_pit_round_covers_all_vars(self, capsys):
        # two_pass.json prunes to the full variable set in round one, so a
        # 2-column point file drives the whole test
        code, out, _ = run(capsys, "pit", FIXTURES / "two_pass.json",
                           "--generator", "external",
                           "--points-file", FIXTURES / "points_two_vars.txt")
        assert code == 1
        assert "witness: 1 1" in out

    def test_external_points_arity_mismatch_named(self, capsys):
        # qn_2's first round restricts a 3-variable subset; a 6-column file
        # is a named per-line error, not a crash
        code, _, err = run(capsys, "pit", FIXTURES / "qn_2.json",
                           "--generator", "external",
                           "--points-file", FIXTURES / "points_demo.txt")
        assert code == 2
        assert "expected 3 values" in err
