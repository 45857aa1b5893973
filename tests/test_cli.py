"""CLI tests: verb dispatch, output schemas, exit codes, reproducibility."""

import csv
import json

import pytest

from ncx2diff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProbNeg:
    def test_published_value(self, capsys):
        code, out, _ = run(capsys, "prob-neg", "--product", "--mu-x", "1",
                           "--mu-y", "1", "--rho", "0.5", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert round(payload["probability"], 4) == 0.1923
        assert payload["tail_bound"] <= 1e-12

    def test_diff_parameterisation(self, capsys):
        code, out, _ = run(capsys, "prob-neg", "--diff", "--r", "1",
                           "--lambda1", "2")
        assert code == 0
        assert round(json.loads(out)["probability"], 4) == 0.2670

    def test_abs_tol_flag(self, capsys):
        argv = ["prob-neg", "--diff", "--r", "2", "--lambda1", "5", "--lambda2", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        tight = json.loads(out)
        code, out, _ = run(capsys, *argv, "--abs-tol", "1e-4")
        assert code == 0
        loose = json.loads(out)
        assert loose["tail_bound"] <= 0.5e-4
        assert loose["terms_used"] < tight["terms_used"]
        assert loose["probability"] == pytest.approx(tight["probability"], abs=1e-4)

    def test_budget_error_names_max_terms(self, capsys):
        # at rho = 0.999999 the Poisson window of lambda_minus / 2 = 10^6 holds
        # about 14,600 indices, more than the default budget
        argv = ["prob-neg", "--product", "--mu-x", "1", "--mu-y", "-1",
                "--rho", "0.999999"]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        need = int(err.split("--max-terms ")[1].split()[0])
        code, out, _ = run(capsys, *argv, "--max-terms", str(need))
        assert code == 0
        # 40-digit conditional-normal integral (scripts/generate_oracle_values.py)
        assert json.loads(out)["probability"] == pytest.approx(
            0.682689492137085897170465091264, abs=1e-11)


class TestPdf:
    def test_singular_point_flagged(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "pdf", "--diff", "--r", "1",
                           "--grid", "-0.001:0.001:3")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["x", "pdf", "flag"]
        middle = rows[2]
        assert middle[2] == "singular" and middle[1] == ""
        assert float(rows[1][1]) > 0

    def test_finite_at_zero_for_r_two(self, capsys):
        # the central r = 2 law is Laplace: 1/4 at 0
        code, out, _ = run(capsys, "--format", "csv", "pdf", "--diff", "--r", "2",
                           "--grid", "-0.001:0.001:3")
        assert code == 0
        middle = list(csv.reader(out.splitlines()))[2]
        assert float(middle[0]) == 0.0 and middle[2] == ""
        assert float(middle[1]) == pytest.approx(0.25, rel=1e-12)

    def test_budget_error_names_max_terms(self, capsys):
        # the certified window needs more cells than the default budget, for
        # T and for S_n; the message names a budget that suffices
        for params, x, ref in [
            (["--diff", "--r", "3", "--lambda1", "100", "--lambda2", "100"], "0.7",
             pytest.approx(0.0141003542, abs=1e-9)),
            # S_n: scales 1.65 and 1.35, lambdas 330 and 83; 40-digit scaled
            # convolution (scripts/generate_oracle_values.py)
            (["--product", "--mu-x", "16", "--mu-y", "4.5", "--sigma-x", "2",
              "--sigma-y", "1.5", "--rho", "0.1", "--n", "6"], "430",
             pytest.approx(0.00613135206376523537471525820894, rel=1e-10)),
        ]:
            argv = ["pdf", *params, "--grid", f"{x}:{x}:1"]
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == ""
            need = int(err.split("--max-terms ")[1].split()[0])
            code, out, _ = run(capsys, *argv, "--max-terms", str(need))
            assert code == 0
            assert json.loads(out)[0]["pdf"] == ref

    def test_product_route(self, capsys):
        code, out, _ = run(capsys, "pdf", "--product", "--mu-x", "0",
                           "--mu-y", "0", "--rho", "0.25", "--n", "2",
                           "--grid", "-1:1:3")
        assert code == 0
        vals = json.loads(out)
        assert len(vals) == 3 and all(v["pdf"] >= 0 for v in vals)

    def test_product_near_zero(self, capsys):
        # CF inversion raised here (exit 3); 40-digit scaled convolution
        # (scripts/generate_oracle_values.py)
        code, out, _ = run(capsys, "pdf", "--product", "--mu-x", "-1.912",
                           "--mu-y", "-1.088", "--rho", "0.311", "--n", "2",
                           "--grid", "3e-4:3e-4:1")
        assert code == 0
        assert json.loads(out)[0]["pdf"] == pytest.approx(
            0.0631604580619349593330773056613, rel=1e-10)


class TestMoments:
    def test_published_example(self, capsys):
        code, out, _ = run(capsys, "moments", "--diff", "--r", "2",
                           "--lambda1", "1", "--order", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["raw"][0] == pytest.approx(1.0, abs=1e-10)
        assert payload["variance"] == pytest.approx(12.0, abs=1e-10)

    def test_cumulants_verb(self, capsys):
        code, out, _ = run(capsys, "cumulants", "--product", "--mu-x", "0",
                           "--mu-y", "0", "--rho", "0.5", "--n", "1")
        assert code == 0
        assert json.loads(out)["cumulants"][0] == pytest.approx(0.5)

    def test_order_bounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "moments", "--diff", "--r", "2", "--order", "25")
        assert exc.value.code == 2


class TestCf:
    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "cf", "--diff", "--r", "2",
                           "--lambda1", "1", "--grid", "0:2:3")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["t", "re", "im"]
        assert float(rows[1][1]) == 1.0 and float(rows[1][2]) == 0.0


class TestTable1:
    def test_csv_byte_identical(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(capsys, "table1", "--format", "csv", "--out", p1)[0] == 0
        assert run(capsys, "table1", "--format", "csv", "--out", p2)[0] == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()
        rows = list(csv.reader(open(p1)))
        assert rows[0] == ["mu_x", "mu_y", "rho", "probability",
                           "paper_value", "abs_diff"]
        assert len(rows) == 57
        summary = json.load(open(p1 + ".summary.json"))
        assert summary["cells"] == 56 and len(summary["flagged"]) == 1

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "table1")
        payload = json.loads(out)
        assert len(payload["rows"]) == 56


class TestSample:
    def test_reproducible_export(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["sample", "--diff", "--r", "3", "--lambda1", "1",
                "--count", "50", "--seed", "5"]
        assert run(capsys, *args, "--out", p1)[0] == 0
        assert run(capsys, *args, "--out", p2)[0] == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()
        sidecar = json.load(open(p1 + ".json"))
        assert sidecar["count"] == 50 and sidecar["seed"] == 5

    def test_requires_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "sample", "--diff", "--r", "3", "--count", "5",
                "--seed", "1")
        assert exc.value.code == 2


class TestSteinCheck:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "stein-check", "--diff", "--r", "2",
                           "--lambda1", "1", "--lambda2", "0.5",
                           "--count", "20000", "--seed", "3")
        assert code == 0
        rows = json.loads(out)
        assert all({"estimate", "uncertainty", "pass"} <= set(r) for r in rows)


class TestExitCodes:
    def test_flag_error_is_2(self, capsys):
        # a missing --r, and the removed --rel-tol flag
        for argv in (["pdf", "--diff", "--grid", "0:1:2"],
                     ["--rel-tol", "1e-9", "prob-neg", "--diff", "--r", "2"]):
            with pytest.raises(SystemExit) as exc:
                run(capsys, *argv)
            assert exc.value.code == 2

    def test_bad_grid_is_2(self, capsys):
        code, _, err = run(capsys, "pdf", "--diff", "--r", "3", "--grid", "bad")
        assert code == 2 and "grid" in err

    def test_domain_error_is_2(self, capsys, tmp_path):
        out = str(tmp_path / "s.csv")
        for argv in (["prob-neg", "--diff", "--r", "-1"],
                     ["--abs-tol", "0", "prob-neg", "--diff", "--r", "2"],
                     ["--abs-tol", "10", "prob-neg", "--diff", "--r", "2"],
                     ["sample", "--diff", "--r", "2", "--count", "0",
                      "--seed", "1", "--out", out],
                     ["stein-check", "--diff", "--r", "2", "--lambda2", "1",
                      "--operator", "a2", "--count", "100", "--seed", "1"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error: "), argv

    def test_definitional_route_needs_product(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "sample", "--diff", "--r", "2", "--count", "5",
                "--seed", "1", "--route", "definitional",
                "--out", str(tmp_path / "s.csv"))
        assert exc.value.code == 2

    def test_both_parameterisations_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "pdf", "--product", "--diff", "--r", "1",
                "--grid", "0:1:2")
        assert exc.value.code == 2
