import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import tsqueue
import tsqueue.cli as cli
from tsqueue import QueueModel, distribution, fitting, generate_correspondence, qos_report, solve_beta
from tsqueue.cli import figure_dataset, main
from tsqueue.errors import DomainError
from tsqueue.fitting import fit_model_i

import oracles

GENERATE_CSV = Path(__file__).parent / "golden" / "generate.csv"
SCHEMA = json.loads(
    resources.files("tsqueue").joinpath("schemas/report.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports this tsqueue."""
    path = [str(Path(tsqueue.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def run_json(capsys, *argv):
    """The command's JSON output, parsed strictly and checked on the schema."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out, parse_constant=reject)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestZetaCommand:
    def test_table_value(self, capsys):
        code, out, _ = run(capsys, "zeta", "2", "1")
        assert code == 0
        assert abs(float(out) - oracles.PI2_OVER_6) <= 1e-12

    def test_json_fields(self, capsys):
        payload = run_json(capsys, "zeta", "4", "4")
        assert set(payload) == {"s", "a", "value"}
        assert payload["value"] == pytest.approx(oracles.ZETA_4_4, rel=1e-12)

    def test_domain_error_names_requirement(self, capsys):
        code, _, err = run(capsys, "zeta", "0.5", "1")
        assert code == 2
        assert "s > 1" in err

    def test_corrections_overflow_exits_two(self, capsys):
        # S(s, s) is about 1.58 at every s, but a**-s underflows.
        code, out, err = run(capsys, "zeta", "1e155", "1e155")
        assert (code, out) == (2, "")
        assert err == ("error: zeta(1e+155, 1e+155) underflows the normal double range; "
                       "use log_hurwitz_zeta\n")


class TestDistributionCommands:
    def test_pmf(self, capsys):
        payload = run_json(capsys, "pmf", "--q", "0.75", "--beta", "1", "--i", "0")
        assert payload["value"] == pytest.approx(oracles.PMF0_075_1, rel=1e-9)

    def test_tail(self, capsys):
        payload = run_json(capsys, "tail", "--q", "0.75", "--beta", "1", "--x", "0")
        assert payload["value"] == pytest.approx(1.0 - oracles.PMF0_075_1, rel=1e-9)

    def test_metrics_report(self, capsys):
        payload = run_json(
            capsys, "metrics", "--q", "0.75", "--beta", "1", "--tail", "0,10,100"
        )
        assert payload["utilization"] == pytest.approx(0.4776, abs=1e-4)
        assert payload["tail_exponent"] == pytest.approx(3.0)
        assert [s["x"] for s in payload["tail_samples"]] == [0, 10, 100]

    def test_metrics_json_prints_infinite_tail_coefficient_as_null(self, capsys):
        # At q = 0.9999 the power-tail coefficient overflows to inf, which
        # strict JSON has no literal for.
        payload = run_json(capsys, "metrics", "--q", "0.9999", "--beta", "1")
        assert payload["tail_coefficient"] is None

    def test_metrics_variance_note(self, capsys):
        payload = run_json(capsys, "metrics", "--q", "0.6", "--beta", "1")
        assert payload["variance"] is None
        assert "q > 2/3" in payload["variance_note"]
        code, out, _ = run(capsys, "metrics", "--q", "0.6", "--beta", "1")
        assert code == 0
        assert "q > 2/3" in out

    def test_metrics_at_large_beta(self, capsys):
        # The mean and utilization printed 0 here, next to P(i > 0) = 3.08e-19.
        payload = run_json(capsys, "metrics", "--q", "0.9", "--beta", "700")
        ref_mean, _, ref_utilization = oracles.law_moments(0.9, 700.0)
        assert abs(payload["mean"] - ref_mean) <= 1e-14 * ref_mean
        assert abs(payload["utilization"] - ref_utilization) <= 1e-14 * ref_utilization

    def test_metrics_variance_near_q_one(self, capsys):
        # The variance printed -1.78e13 here.
        payload = run_json(capsys, "metrics", "--q", "0.999999999", "--beta", "1e-5")
        ref_variance = oracles.law_moments(0.999999999, 1e-5)[1]
        assert abs(payload["variance"] - ref_variance) <= 1e-14 * ref_variance

    def test_metrics_rejects_bad_q(self, capsys):
        code, _, err = run(capsys, "metrics", "--q", "1.2", "--beta", "1")
        assert code == 2
        assert err

    @pytest.mark.parametrize("beta", ["5e-324", "1e-308"])
    @pytest.mark.parametrize("command", [
        ["metrics"], ["pmf", "--i", "0"], ["tail", "--x", "3"],
    ])
    def test_beta_too_small_for_the_zeta_shift_exits_two(self, capsys, command, beta):
        code, out, err = run(capsys, *command, "--q", "0.75", "--beta", beta)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "zeta shift" in err
        assert "Traceback" not in err


class TestSolverAndNorrosCommands:
    def test_solve_beta(self, capsys):
        payload = run_json(capsys, "solve-beta", "--q", "0.75", "--mean", "2")
        assert payload["residual"] <= 1e-10 * 2.0
        assert payload["fallback_used"] is False

    def test_norros_commands(self, capsys):
        payload = run_json(capsys, "norros-mean", "--rho", "0.5", "--hurst", "0.75")
        assert payload["value"] == pytest.approx(2.0, rel=1e-12)
        payload = run_json(capsys, "norros-rho", "--mean", "2", "--hurst", "0.75")
        assert payload["value"] == pytest.approx(0.5, abs=1e-10)

    def test_norros_rho_at_a_tiny_mean(self, capsys):
        # This printed 0: 1 - rho, solved for and subtracted from 1, cancelled.
        code, out, err = run(capsys, "norros-rho", "--mean", "1e-40", "--hurst", "0.75")
        assert code == 0, err
        ref = oracles.norros_rho(1e-40, 0.75)
        assert abs(float(out) - ref) <= 1e-14 * ref

    def test_norros_mean_overflow_names_its_inputs(self, capsys):
        code, out, err = run(capsys, "norros-mean", "--rho", "0.999999999999",
                             "--hurst", "0.99")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "rho=0.999999999999, hurst=0.99" in err

    def test_composition_reproduces_generate_row(self, capsys, tmp_path):
        solved = run_json(capsys, "solve-beta", "--q", "0.75", "--mean", "2")
        rho = run_json(capsys, "norros-rho", "--mean", "2", "--hurst", "0.75")
        out = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "generate", "--q", "0.75", "--mean-min", "2",
            "--mean-max", "8", "--points", "3", "--out", str(out),
        )
        assert code == 0
        mean, beta, rho_column, _ = cli._correspondence_columns(out.read_text())
        assert mean[0] == 2.0
        assert beta[0] == pytest.approx(solved["beta"], rel=1e-12)
        assert rho_column[0] == pytest.approx(rho["value"], rel=1e-12)

    def test_solve_beta_rejects_subnormal_beta0(self, capsys):
        code, out, err = run(
            capsys, "solve-beta", "--q", "0.75", "--mean", "2", "--beta0", "5e-324"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "zeta shift" in err

    def test_solver_non_convergence_exit(self, capsys):
        code, _, err = run(
            capsys, "solve-beta", "--q", "0.75", "--mean", "1.352",
            "--beta0", "1.2", "--max-iter", "1",
        )
        assert code == 3
        assert "converge" in err

    def test_bisection_stall_exits_three(self, capsys):
        # No double beta meets a target below the mean's resolution.
        code, out, err = run(
            capsys, "solve-beta", "--q", "0.75", "--mean", "3", "--tol", "1e-20"
        )
        assert (code, out) == (3, "")
        assert err == ("error: bisection stalled at beta=0.5410770600109491 "
                       "with residual -4.440892098500626e-16\n")

    def test_solve_beta_near_q_one(self, capsys):
        # This exited 3: the mean's cancellation noise exceeded the target.
        payload = run_json(capsys, "solve-beta", "--q", "0.999999", "--mean", "1e6")
        ref_mean = oracles.law_moments(0.999999, payload["beta"])[0]
        assert abs(ref_mean - 1e6) <= 1e-14 * 1e6
        assert payload["residual"] <= 1e-10 * 1e6


class TestGenerateAndFit:
    def test_csv_round_trip_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "data.csv"
        code, _, _ = run(
            capsys, "generate", "--q", "0.6", "--mean-min", "0.1",
            "--mean-max", "100", "--points", "50", "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "mean,beta,rho,q"
        columns = cli._correspondence_columns(text)
        records = generate_correspondence(0.6, 0.1, 100.0, 50)
        rows = [(r.mean, r.beta, r.rho, r.q) for r in records]
        assert columns == [list(column) for column in zip(*rows)]
        assert cli._render((cli.CSV_HEADER, list(zip(*columns))), "csv") == text

    def test_dataset_csv_matches_csv_writer_over_fmt(self):
        # A dataset's rows go through one "%.17g" template each; the text is
        # that of csv.writer over _fmt cells, extremes and non-finite included.
        values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        header = [f"v{i}" for i in range(len(values))]
        rows = [tuple(values), tuple(reversed(values)), tuple(-v for v in values)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cli._fmt(v) for v in row] for row in rows)
        assert cli._render((header, rows), "csv") == buf.getvalue()

    def test_fit_model_ordering(self, capsys, tmp_path):
        out = tmp_path / "data.csv"
        run(capsys, "generate", "--q", "0.6", "--mean-min", "0.1",
            "--mean-max", "100", "--points", "50", "--out", str(out))
        model_ii = run_json(capsys, "fit", "--model", "II", "--in", str(out))
        model_i = run_json(capsys, "fit", "--model", "I", "--in", str(out))
        assert model_ii["converged"] is True
        assert model_ii["rmse"] <= model_i["rmse"]
        assert model_ii["params"]["eta"] > 0.0
        assert model_ii["params"]["mu"] > 0.0

    def test_empty_file_exit_four(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(capsys, "fit", "--model", "II", "--in", str(empty))
        assert code == 4
        assert "line 1" in err

    def test_bad_number_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("mean,beta,rho,q\n1.0,0.5,0.4,0.6\n2.0,oops,0.5,0.6\n")
        code, _, err = run(capsys, "fit", "--model", "I", "--in", str(bad))
        assert code == 4
        assert "line 3" in err

    def test_model_i_overflow_names_the_beta(self, capsys, tmp_path):
        data = tmp_path / "negative.csv"
        data.write_text("mean,beta,rho,q\n1,-800,0.5,0.6\n1,1,0.4,0.6\n1,2,0.3,0.6\n")
        code, out, err = run(capsys, "fit", "--model", "I", "--in", str(data))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "beta=-800.0" in err

    def test_model_ii_amplitude_overflow_is_named(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        rows = [f"1,{b},{r},0.7" for b, r in zip((0.1, 0.2, 0.3, 0.4, 0.5),
                                                 (1.7e308, 1.6e308, 1.5e308, 1.4e308, 1.3e308))]
        data.write_text("\n".join(["mean,beta,rho,q", *rows]) + "\n")
        code, out, err = run(capsys, "fit", "--model", "II", "--in", str(data))
        assert (code, out, err) == (2, "", "error: Model II amplitude c exceeds the double range\n")

    def test_model_i_goodness_at_huge_rho(self, capsys, tmp_path):
        # rmse read inf and r_squared nan here, with exit 0.
        data = tmp_path / "huge.csv"
        rows = [f"1,{b},{r},0.7" for b, r in zip((1, 2, 3, 4), (4e200, 3e200, 2.5e200, 2e200))]
        data.write_text("\n".join(["mean,beta,rho,q", *rows]) + "\n")
        code, out, err = run(capsys, "fit", "--model", "I", "--in", str(data), "--format", "json")
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert math.isfinite(report["rmse"]) and 0.0 < report["r_squared"] < 1.0, report

    @pytest.mark.parametrize("text,message", [
        ("mean,rho,beta,q\n1,0.4,0.5,0.6\n",
         "line 1: expected header mean,beta,rho,q, got mean,rho,beta,q"),
        ("mean,beta,rho,q\n1,0.5,0.4\n", "line 2: expected 4 fields, got 3"),
        ("mean,beta,rho,q\n1,inf,0.4,0.6\n", "line 2: non-finite value 'inf'"),
        ("mean,beta,rho,q\n", "line 2: no data rows"),
        ("mean,beta,rho,q\n1,nan,0.4,0.6\n", "line 2: non-finite value 'nan'"),
        ("mean,beta,rho,q\n1,oops,inf,0.6\n", "line 2: invalid number 'oops'"),
        ("mean,beta,rho,q\n1,oops,0.4,0.6,7\n", "line 2: expected 4 fields, got 5"),
        ("mean,beta,rho,q\n1,-inf,x\n", "line 2: expected 4 fields, got 3"),
        ("mean,beta,rho,q\n1,0.5,0.4,0.6\n\n", "line 3: expected 4 fields, got 0"),
        ("mean,beta,rho,q\n1,0.5,0.4,0.6\n2,0.6,0.3,0.6\n3,0.7,0.2\n",
         "line 4: expected 4 fields, got 3"),
        ("mean,beta,rho,q\n1,0.5,0.4,0.6\n2,0.6,0.3,0.6\n3,0.7,0.2,bad\n",
         "line 4: invalid number 'bad'"),
    ])
    def test_malformed_file_exit_four(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run(capsys, "fit", "--model", "I", "--in", str(path))
        assert (code, out, err) == (4, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", [
        "mean,beta,rho,q\r\n1,0.5,0.4,0.6\r\n2,1.5,0.3,0.6\r\n3,2.5,0.25,0.6\r\n",
        'mean,beta,rho,q\n1,"0.5",0.4,0.6\n2,1.5,0.3,0.6\n3,2.5,0.25,0.6\n',
        "mean,beta,rho,q\n1,0.5, 0.4 ,0.6\n2,1.5,0.3,0.6\n3,2.5,0.25,0.6\n",
    ], ids=["crlf", "quoted", "spaces"])
    def test_well_formed_variants_read_alike(self, capsys, tmp_path, text):
        plain = "mean,beta,rho,q\n1,0.5,0.4,0.6\n2,1.5,0.3,0.6\n3,2.5,0.25,0.6\n"
        columns = cli._correspondence_columns(text)
        assert columns == cli._correspondence_columns(plain)
        assert columns[1] == [0.5, 1.5, 2.5]
        outputs = []
        for name, content in (("variant.csv", text), ("plain.csv", plain)):
            path = tmp_path / name
            path.write_bytes(content.encode())
            outputs.append(run(capsys, "fit", "--model", "I", "--in", str(path)))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_unconverged_model_ii_fit_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_GN_ITER", 1)
        code, out, err = run(capsys, "fit", "--model", "II", "--in", str(GENERATE_CSV))
        assert (code, out) == (3, "")
        # The rmse's last digits depend on the host's numpy kernels.
        assert err.startswith("error: Model II fit did not converge (best rmse=")

    def test_missing_file_exit_four(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fit", "--model", "I", "--in", str(tmp_path / "nope.csv"))
        assert code == 4

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "pmf", "--q", "0.75", "--beta", "1", "--i", "0", "--out", str(path),
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {path}: ")
        assert not out

    def test_degenerate_fit_exit_three(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join("1,1.0,0.5,0.6" for _ in range(6))
        path.write_text(f"mean,beta,rho,q\n{rows}\n")
        code, _, err = run(capsys, "fit", "--model", "I", "--in", str(path))
        assert code == 3
        assert err

    def test_fit_json_is_strict_for_constant_rho(self, capsys, tmp_path):
        # Constant rho is the line a = 0.5, b = 0: nothing is left over, and
        # with no variance to explain r_squared is 1 by convention.
        path = tmp_path / "constant.csv"
        rows = "\n".join(f"1,{beta},0.5,0.6" for beta in range(1, 6))
        path.write_text(f"mean,beta,rho,q\n{rows}\n")
        payload = run_json(capsys, "fit", "--model", "I", "--in", str(path))
        assert payload["params"] == {"a": 0.5, "b": 0.0}
        assert (payload["rmse"], payload["r_squared"]) == (0.0, 1.0)

    def test_fit_model_ii_with_repeated_low_betas_is_silent(self, tmp_path):
        # The low-beta start line sees one beta six times; the fit must fall
        # back to the default start without a warning on stderr.
        path = tmp_path / "repeated.csv"
        betas = [0.5] * 6 + [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        rows = "\n".join(f"1,{b!r},{0.1 * b**-1.5 + 0.6 * math.exp(-2.0 * b)!r},0.6"
                         for b in betas)
        path.write_text(f"mean,beta,rho,q\n{rows}\n")
        result = run_python("-m", "tsqueue", "fit", "--model", "II", "--in", str(path))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    @pytest.mark.parametrize("flag,name,value", [
        ("--mean-max", "mean_max", "inf"), ("--mean-min", "mean_min", "nan"),
    ])
    def test_generate_rejects_non_finite_mean_bounds(self, capsys, flag, name, value):
        code, out, err = run(capsys, "generate", "--q", "0.6", flag, value)
        assert code == 2
        assert err == f"error: {name} must be finite, got {value}\n"
        assert not out

    def test_generate_solver_failure_exits_three(self, capsys):
        # No double beta gives a mean of exactly 1e-319, the only subnormal
        # within tol * 1e-319 of it.
        code, out, err = run(capsys, "generate", "--q", "0.6", "--mean-min", "1e-319",
                             "--mean-max", "1e-300", "--points", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error: beta solve failed at mean=1e-319: bisection stalled")

    def test_generate_json_round_trip(self, capsys):
        payload = run_json(capsys, "generate", "--q", "0.75", "--points", "5")
        assert len(payload["records"]) == 5
        assert set(payload["records"][0]) == {"mean", "beta", "rho", "q"}


class TestFigureCommand:
    def test_figure_one_headers_and_model_i_shape(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "figure", "--id", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,beta,rho"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        chosen = [(beta, rho) for q, beta, rho in rows if q == 0.95]
        report = fit_model_i(*zip(*chosen))
        # "within 2%" of the fitted curve, read as two percentage points
        # of traffic intensity: the relative gap blows up at the small-rho
        # end (measured 9% there) while the absolute gap stays below 0.02
        a, b = report.params
        worst = max(abs(a + b * math.exp(-beta) - rho) for beta, rho in chosen)
        assert worst <= 0.02

    def test_figure_three_variance_monotone(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "figure", "--id", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,rho,variance"
        per_q = {}
        for line in lines[1:]:
            q, rho, var = map(float, line.split(","))
            per_q.setdefault(q, []).append((rho, var))
        for series in per_q.values():
            ordered = sorted(series)
            variances = [v for _, v in ordered]
            assert all(x < y for x, y in zip(variances, variances[1:]))

    def test_figure_three_rejects_low_q(self, capsys):
        code, out, err = run(capsys, "figure", "--id", "3", "--q-list", "0.8,0.6")
        assert (code, out) == (2, "")
        assert err == "error: variance diverges: requires q > 2/3, got q=0.6\n"

    def test_repeated_thresholds_give_one_column_each(self, capsys):
        argv = ("figure", "--id", "4", "--q-list", "0.7", "--points", "2",
                "--thresholds", "100,10,10")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "q,rho,overflow_at_10,overflow_at_100"
        records = run_json(capsys, *argv)["records"]
        assert [",".join(record) for record in records] == [header, header]

    def test_figure_four_row_sums_the_normalizer_once(self, monkeypatch):
        # Each row's model keeps ln S(s, c): three thresholds, four single sums.
        calls, single_sum = [], distribution.scaled_hurwitz_zeta
        monkeypatch.setattr(distribution, "scaled_hurwitz_zeta",
                            lambda s, a: calls.append(a) or single_sum(s, a))
        _, rows = figure_dataset(4, (0.75,), thresholds=(10, 100, 1000), points=2)
        assert len(rows) == 2 and len(calls) == 8

    def test_figure_four_headers(self, capsys, tmp_path):
        out = tmp_path / "fig4.csv"
        code, _, _ = run(capsys, "figure", "--id", "4", "--points", "10",
                         "--q-list", "0.75", "--thresholds", "10,100,1000",
                         "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "q,rho,overflow_at_10,overflow_at_100,overflow_at_1000"

    def test_figure_five_crossing(self, capsys, tmp_path):
        out = tmp_path / "fig5.csv"
        code, _, _ = run(capsys, "figure", "--id", "5", "--q-list", "0.6",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,rho,utilization,mm1_utilization"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert all(mm1 == rho for _, rho, _, mm1 in rows)
        diffs = [util - rho for _, rho, util, _ in rows]
        assert diffs[0] < 0.0
        assert diffs[-1] > 0.0

    def test_figure_two_headers(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "figure", "--id", "2", "--q-list", "0.8",
                         "--points", "20", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "q,beta,rho,rho_model_i,rho_model_ii"

    @pytest.mark.parametrize("flag,message", [
        ("--q-list", "q list must not be empty"),
        ("--thresholds", "thresholds must not be empty"),
    ])
    def test_empty_list_flag_exits_two(self, capsys, flag, message):
        code, out, err = run(capsys, "figure", "--id", "4", flag, "")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_figure_spec_validation(self):
        with pytest.raises(DomainError, match=r"one of \[1, 2, 3, 4, 5\], got 7"):
            figure_dataset(7, (0.6,))
        with pytest.raises(DomainError):
            figure_dataset(1, (1.2,))
        header, rows = figure_dataset(1, (0.75,), points=5)
        assert header == ["q", "beta", "rho"]
        assert len(rows) == 5


def _records(header, rows):
    return {"records": [dict(zip(header, row)) for row in rows]}


def _metrics(q, beta, report):
    samples = [{"x": x, "probability": p} for x, p in report.tail_samples]
    return {"q": q, "beta": beta, **report._asdict(), "tail_samples": samples}


class TestOmittedFlags:
    # A flag not given is not passed on: each command's JSON equals that of
    # the library call with the library's own defaults.
    @pytest.mark.parametrize("argv,expected", [
        (["solve-beta", "--q", "0.75", "--mean", "2"],
         lambda: {"q": 0.75, "mean": 2.0, **solve_beta(0.75, 2.0)._asdict()}),
        (["generate", "--q", "0.6"],
         lambda: {"records": [r._asdict() for r in generate_correspondence(0.6)]}),
        (["metrics", "--q", "0.75", "--beta", "1"],
         lambda: _metrics(0.75, 1.0, qos_report(QueueModel(0.75, 1.0)))),
        (["figure", "--id", "4", "--q-list", "0.7"],
         lambda: _records(*figure_dataset(4, (0.7,)))),
    ], ids=["solve-beta", "generate", "metrics", "figure"])
    def test_omitted_flags_take_the_library_defaults(self, capsys, argv, expected):
        assert run_json(capsys, *argv) == expected()


class TestNumpyLoading:
    # numpy is imported inside Model II's variable-projection loop only, so
    # every other command starts without paying for its import.
    PROBE = """
import contextlib, io, json, sys
from tsqueue.cli import main
loaded = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv[:3])] = (code, "numpy" in sys.modules)
print(json.dumps(loaded))
"""

    def test_only_model_ii_loads_numpy(self):
        data = str(Path(__file__).parent / "golden" / "generate.csv")
        commands = [
            ["generate", "--q", "0.6"],
            ["figure", "--id", "1"],
            ["fit", "--model", "I", "--in", data],
            ["fit", "--model", "II", "--in", data],
        ]
        result = run_python("-c", self.PROBE, json.dumps(commands))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "import": False,
            "generate --q 0.6": [0, False],
            "figure --id 1": [0, False],
            "fit --model I": [0, False],
            "fit --model II": [0, True],
        }


class TestStartupImports:
    # The record types are plain classes, so importing the CLI loads neither
    # dataclasses nor the inspect module it imports.  -S keeps out what the
    # interpreter's site imports before tsqueue.
    def test_cli_import_loads_no_dataclasses(self):
        probe = ("import sys, tsqueue.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        result = run_python("-S", "-c", probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestUsageErrors:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["pmf", "--q", "0.75"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv,first_line", [
        (["generate", "--q", "0.6", "--points", "2"], "mean,beta,rho,q"),
        (["--format", "json", "generate", "--q", "0.6", "--points", "2"], '{"records": ['),
        (["--format", "json", "zeta", "2", "1", "--format", "csv"], "s,a,value"),
        (["--format", "csv", "zeta", "2", "1"], "s,a,value"),
    ])
    def test_format_before_or_after_the_command(self, capsys, argv, first_line):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith(first_line)

    @pytest.mark.parametrize("argv,message", [
        (["figure", "--id", "4", "--q-list", "0.6,x"],
         "expected a comma-separated list of numbers, got '0.6,x'"),
        (["metrics", "--q", "0.75", "--beta", "1", "--tail", "1,a"],
         "expected a comma-separated list of integers, got '1,a'"),
        # The id keeps the case's name from before the message became singular.
        pytest.param(["figure", "--id", "4", "--thresholds", "10,-1"],
                     "threshold must be nonnegative, got -1",
                     id="argv2-thresholds must be nonnegative, got -1"),
    ])
    def test_malformed_list_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        cli._parser.cache_clear()
        try:
            assert main(["zeta", "2", "1"]) == 0
            assert main(["pmf", "--q", "0.75", "--beta", "1", "--i", "0"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
