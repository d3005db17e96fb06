"""Benchmark problem definitions, study runner, report emission, and CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from multifem import cli


# ---------------------------------------------------------------------------
# manufactured solution


class TestManufacturedSolution:
    def test_source_balances_the_laplacian(self, studies):
        # -lap(cos(2 pi x) cos(2 pi y)) = 8 pi^2 cos(2 pi x) cos(2 pi y)
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0, 1, size=(2, 50))
        expected = 8 * np.pi ** 2 * np.cos(2 * np.pi * x) * np.cos(
            2 * np.pi * y)
        assert np.allclose(studies.source_term(x, y), expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self, studies):
        rng = np.random.default_rng(8)
        eps = 1e-6
        for x, y in rng.uniform(0.1, 0.9, size=(20, 2)):
            gx, gy = studies.exact_gradient(x, y)
            fx = (studies.exact_solution(x + eps, y)
                  - studies.exact_solution(x - eps, y)) / (2 * eps)
            fy = (studies.exact_solution(x, y + eps)
                  - studies.exact_solution(x, y - eps)) / (2 * eps)
            assert abs(gx - fx) <= 1e-6 and abs(gy - fy) <= 1e-6

    def test_mesh_size_halves_per_level(self, studies):
        assert [studies.mesh_size(n) for n in range(4)] == [
            0.10, 0.05, 0.025, 0.0125]


# ---------------------------------------------------------------------------
# configuration validation


class TestStudyConfig:
    def test_unknown_problem_rejected(self, studies):
        with pytest.raises(ValueError, match="unknown problem"):
            studies.StudyConfig(problem="helmholtz")

    def test_unknown_solver_rejected(self, studies):
        with pytest.raises(ValueError, match="unknown solver 'bogus'"):
            studies.StudyConfig(problem="quad-tri", solver="bogus")

    def test_degree_four_rejected(self, studies):
        with pytest.raises(ValueError, match="degrees"):
            studies.StudyConfig(problem="quad-tri", degrees=(1, 4))

    def test_empty_degrees_rejected(self, studies):
        with pytest.raises(ValueError, match="degrees"):
            studies.StudyConfig(problem="quad-tri", degrees=())

    def test_refinement_level_four_rejected(self, studies):
        with pytest.raises(ValueError, match="refinements"):
            studies.StudyConfig(problem="quad-tri", refinements=(4,))

    def test_nonpositive_penalty_rejected(self, studies):
        with pytest.raises(ValueError, match="penalty"):
            studies.StudyConfig(problem="quad-tri", penalty=0.0)

    @pytest.mark.parametrize("given, rule", [
        ({"penalty": math.inf}, "penalty must be a positive finite number"),
        ({"penalty": math.nan}, "penalty must be a positive finite number"),
        ({"penalty": True}, "penalty must be a positive finite number"),
        ({"degrees": (1.0,)}, "degrees must .* given as ints"),
        ({"degrees": (True, 2)}, "degrees must .* given as ints"),
        ({"refinements": (0.0,)}, "refinements must .* given as ints"),
        ({"refinements": (True,)}, "refinements must .* given as ints"),
        ({"degrees": iter(())}, "degrees must be a non-empty subset")])
    def test_inputs_that_could_only_fail_later_are_rejected(self, studies,
                                                           given, rule):
        # 1.0 == True == 1 passed the subset test: a float failed every
        # cell, and True ran as 1 but was reported as true
        with pytest.raises(ValueError, match=rule):
            studies.StudyConfig(problem="quad-tri", **given)

    def test_list_inputs_become_tuples(self, studies):
        cfg = studies.StudyConfig(problem="quad-tri", degrees=[1],
                                  refinements=[0, 1])
        assert cfg.degrees == (1,) and cfg.refinements == (0, 1)
        # an iterator is read once: the config keeps the values checked
        cfg = studies.StudyConfig(problem="quad-tri", degrees=iter([1, 2]),
                                  refinements=(k for k in [0, 1]))
        assert cfg.degrees == (1, 2) and cfg.refinements == (0, 1)

    def test_unknown_problem_in_builder(self, studies):
        with pytest.raises(ValueError, match="unknown problem"):
            studies.build_problem("helmholtz", 1, 0)


# ---------------------------------------------------------------------------
# solvers


class TestSolveProblem:
    @pytest.mark.parametrize("problem", ["quad-tri", "split-interface"])
    def test_solver_choice_does_not_change_the_answer(self, studies, problem):
        direct = studies.build_problem(problem, 1, 0)
        studies.solve_problem(direct, solver="lu")
        iterative = studies.build_problem(problem, 1, 0)
        studies.solve_problem(iterative, solver="cg-fieldsplit")
        l2_d, h1_d = studies.solution_errors(direct)
        l2_i, h1_i = studies.solution_errors(iterative)
        assert abs(l2_d - l2_i) <= 1e-9 * l2_d
        assert abs(h1_d - h1_i) <= 1e-9 * h1_d

    def test_unknown_solver_rejected(self, studies):
        problem = studies.build_problem("quad-tri", 1, 0)
        with pytest.raises(ValueError, match="unknown solver"):
            studies.solve_problem(problem, solver="gmres")


# ---------------------------------------------------------------------------
# study runner


class TestRunStudy:
    def test_rerun_is_bit_identical(self, studies):
        cfg = studies.StudyConfig(problem="quad-tri", degrees=(1,),
                                  refinements=(0,))
        first = studies.run_study(cfg)
        second = studies.run_study(cfg)
        assert first.rows[0].l2 == second.rows[0].l2
        assert first.rows[0].h1 == second.rows[0].h1

    def test_shorter_study_is_a_prefix_of_the_longer_one(self, studies):
        short = studies.run_study(studies.StudyConfig(
            problem="quad-tri", degrees=(1,), refinements=(0, 1)))
        full = studies.run_study(studies.StudyConfig(
            problem="quad-tri", degrees=(1,), refinements=(0, 1, 2)))
        for row_s, row_f in zip(short.rows, full.rows):
            assert (row_s.degree, row_s.level) == (row_f.degree, row_f.level)
            assert row_s.l2 == row_f.l2 and row_s.h1 == row_f.h1

    def test_an_overflowing_residual_norm_fails_its_cell(self, studies, asm):
        # at penalty 1e300 the first residual's entries are finite but its
        # norm overflows: that used to count as converged after 0 steps
        problem = studies.build_problem("quad-tri", 1, 0, penalty=1e300)
        with pytest.raises(asm.ConvergenceError,
                           match="Newton residual is not finite: its norm "
                                 "is inf"):
            studies.solve_problem(problem)
        report = studies.run_study(studies.StudyConfig(
            problem="quad-tri", degrees=(1,), refinements=(0,),
            penalty=1e300))
        (row,) = report.rows
        assert math.isnan(row.l2) and "norm is inf" in row.error

    def test_failed_cell_is_recorded_and_the_study_continues(
            self, studies, monkeypatch):
        original = studies.build_problem

        def sabotaged(problem, degree, level, penalty):
            if level == 0:
                raise RuntimeError("boom")
            return original(problem, degree, level, penalty)

        monkeypatch.setattr(studies, "build_problem", sabotaged)
        report = studies.run_study(studies.StudyConfig(
            problem="quad-tri", degrees=(1,), refinements=(0, 1)))
        assert len(report.rows) == 2
        assert math.isnan(report.rows[0].l2)
        assert "boom" in report.rows[0].error
        assert report.rows[1].error is None and report.rows[1].l2 > 0
        assert report.failures() == [report.rows[0]]


# ---------------------------------------------------------------------------
# tabulation and emission


def synthetic_report(studies):
    report = studies.StudyReport(problem="quad-tri", penalty=100.0,
                                 solver="lu")
    report.rows = [
        studies.StudyRow(1, 0, 1.0, 0.5, 0.1),
        studies.StudyRow(1, 1, 0.25, 0.25, 0.2),
        studies.StudyRow(2, 0, 0.125, 1.0, 0.3),
        studies.StudyRow(2, 1, 0.015625, 0.25, 0.4),
    ]
    return report


class TestTabulateReport:
    def test_rates_compare_adjacent_rows_of_the_same_degree(self, studies):
        table = studies.tabulate_report(synthetic_report(studies))
        assert [t[:2] for t in table] == [(1, 0), (1, 1), (2, 0), (2, 1)]
        assert math.isnan(table[0][3]) and math.isnan(table[0][5])
        assert math.isnan(table[2][3])  # new degree restarts the rates
        assert table[1][3] == pytest.approx(2.0, abs=1e-12)   # 1 -> 1/4
        assert table[1][5] == pytest.approx(1.0, abs=1e-12)   # 1/2 -> 1/4
        assert table[3][3] == pytest.approx(3.0, abs=1e-12)   # 1/8 -> 1/64
        assert table[3][5] == pytest.approx(2.0, abs=1e-12)   # 1 -> 1/4

    def test_rates_divide_by_the_level_gap(self, studies):
        report = studies.StudyReport(problem="quad-tri", penalty=100.0,
                                     solver="lu")
        report.rows = [
            studies.StudyRow(1, 0, 1.0, 0.5, 0.1),
            studies.StudyRow(1, 2, 1 / 16, 1 / 8, 0.2),  # two levels
            studies.StudyRow(2, 1, 0.25, 0.5, 0.3),
            studies.StudyRow(2, 0, 1.0, 1.0, 0.4),  # descending
            studies.StudyRow(2, 0, 0.5, 1.0, 0.5),  # repeated
        ]
        rates = [(t[3], t[5]) for t in studies.tabulate_report(report)]
        assert rates[1] == (2.0, 1.0)
        assert rates[3] == (2.0, 1.0)
        assert all(math.isnan(r) for k in (0, 2, 4) for r in rates[k])

    def test_failed_cells_tabulate_as_nan(self, studies):
        report = studies.StudyReport(problem="quad-tri", penalty=100.0,
                                     solver="lu")
        report.rows = [studies.StudyRow(1, 0, float("nan"), float("nan"),
                                        0.1, error="boom")]
        (row,) = studies.tabulate_report(report)
        assert math.isnan(row[2]) and math.isnan(row[4])


class TestEmitReport:
    HEADER = "p\tn\tlog2_L2\trate_L2\tlog2_H1\trate_H1\tseconds"

    def test_empty_report_is_header_only(self, studies, tmp_path):
        report = studies.StudyReport(problem="quad-tri", penalty=100.0,
                                     solver="lu")
        path = tmp_path / "empty.tsv"
        studies.emit_report(report, "tsv", path)
        assert path.read_text() == self.HEADER + "\n"

    def test_tsv_rates_equal_log2_error_ratios(self, studies, tmp_path):
        report = studies.run_study(studies.StudyConfig(
            problem="quad-tri", degrees=(1,), refinements=(0, 1)))
        path = tmp_path / "report.tsv"
        studies.emit_report(report, "tsv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 2
        log2_l2 = [float(r[2]) for r in rows]
        log2_h1 = [float(r[4]) for r in rows]
        assert math.isnan(float(rows[0][3])) and math.isnan(float(rows[0][5]))
        assert abs(float(rows[1][3]) - (log2_l2[0] - log2_l2[1])) <= 1e-12
        assert abs(float(rows[1][5]) - (log2_h1[0] - log2_h1[1])) <= 1e-12
        # the emitted log2 errors reproduce the stored errors exactly
        assert math.log2(report.rows[1].l2) == float(rows[1][2])

    def test_json_round_trip(self, studies, tmp_path):
        report = synthetic_report(studies)
        path = tmp_path / "report.json"
        studies.emit_report(report, "json", path)
        payload = json.loads(path.read_text())
        assert payload["problem"] == "quad-tri"
        assert payload["penalty"] == 100.0
        assert payload["solver"] == "lu"
        assert len(payload["rows"]) == 4
        first = payload["rows"][0]
        assert first["degree"] == 1 and first["level"] == 0
        assert first["l2"] == 1.0 and first["h1"] == 0.5
        assert first["rate_l2"] is None  # nan maps to null
        assert payload["rows"][1]["rate_l2"] == pytest.approx(2.0, abs=1e-12)
        assert first["error"] is None

    def test_unknown_format_rejected(self, studies, tmp_path):
        with pytest.raises(ValueError, match="format"):
            studies.emit_report(synthetic_report(studies), "xml",
                                tmp_path / "report.xml")


# ---------------------------------------------------------------------------
# command-line interface


class TestCli:
    def run(self, tmp_path, *extra, problem="quad-tri"):
        out = tmp_path / "report.tsv"
        argv = ["study", "--problem", problem, "--degrees", "1",
                "--refine", "0", "--out", str(out), *extra]
        return cli.main(argv), out

    def test_study_writes_a_rate_table(self, tmp_path, capsys):
        code, out = self.run(tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TestEmitReport.HEADER
        assert len(lines) == 2
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout
        assert "p=1 n=0" in stdout

    def test_refine_range_syntax(self, tmp_path):
        out = tmp_path / "report.tsv"
        code = cli.main(["study", "--problem", "quad-tri", "--degrees", "1",
                         "--refine", "0..1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3  # header + two levels

    def test_json_output(self, tmp_path):
        json_path = tmp_path / "report.json"
        code, _ = self.run(tmp_path, "--json", str(json_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["problem"] == "quad-tri"
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["l2"] > 0

    def test_matrix_dump_is_loadable(self, tmp_path):
        mtx = tmp_path / "system.mtx"
        code, _ = self.run(tmp_path, "--dump-matrix", str(mtx))
        assert code == 0
        A = scipy.io.mmread(mtx).tocsr()
        assert A.shape[0] == A.shape[1] > 0

    def test_no_matrix_is_dumped_when_no_cell_solved(
            self, tmp_path, studies, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(studies, "solve_problem", explode)
        mtx = tmp_path / "system.mtx"
        code, out = self.run(tmp_path, "--dump-matrix", str(mtx))
        assert code == 2
        assert out.exists() and not mtx.exists()
        assert ("error: no cell solved; matrix not dumped"
                in capsys.readouterr().err)

    def test_starting_the_cli_imports_no_matrix_market_writer(self):
        # only --dump-matrix writes MatrixMarket files, and dump_matrix
        # imports scipy.io when it does
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = ("import sys, multifem.cli; print(sorted(name for name in "
                "sys.modules if name.startswith('scipy.io')))")
        loaded = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                check=True).stdout
        assert loaded.strip() == "[]"

    def test_field_split_solver(self, tmp_path):
        code, out = self.run(tmp_path, "--solver", "cg-fieldsplit",
                             problem="split-interface")
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_unset_options_take_the_study_defaults(self, tmp_path,
                                                    studies, monkeypatch):
        # the CLI sets no default of its own: StudyConfig's apply
        seen = []

        def record(cfg, collect_matrix=False):
            seen.append(cfg)
            return studies.StudyReport(cfg.problem, cfg.penalty, cfg.solver)

        monkeypatch.setattr(cli, "run_study", record)
        out = str(tmp_path / "report.tsv")
        assert cli.main(["study", "--problem", "quad-tri", "--out", out]) == 0
        assert cli.main(["study", "--problem", "quad-tri", "--out", out,
                         "--penalty", "7", "--refine", "1..2"]) == 0
        assert seen == [studies.StudyConfig("quad-tri"),
                        studies.StudyConfig("quad-tri", refinements=(1, 2),
                                            penalty=7.0)]

    def test_invalid_config_exits_with_error(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code = cli.main(["study", "--problem", "quad-tri", "--degrees", "4",
                         "--refine", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_an_infinite_penalty_exits_with_error(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "--penalty", "inf")
        assert code == 2 and not out.exists()
        assert ("error: penalty must be a positive finite number"
                in capsys.readouterr().err)

    def test_an_overflowing_cell_exits_with_error(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        code, _ = self.run(tmp_path, "--penalty", "1e300", "--json",
                           str(json_path))
        assert code == 2
        (row,) = json.loads(json_path.read_text())["rows"]
        assert row["l2"] is None and "norm is inf" in row["error"]
        assert "FAILED p=1 n=0" in capsys.readouterr().err

    def test_failed_cell_exits_with_error_but_writes_reports(
            self, tmp_path, studies, monkeypatch, capsys):
        def explode(problem, degree, level, penalty):
            raise RuntimeError("boom")

        monkeypatch.setattr(studies, "build_problem", explode)
        json_path = tmp_path / "report.json"
        code, out = self.run(tmp_path, "--json", str(json_path))
        assert code == 2
        assert out.exists()
        payload = json.loads(json_path.read_text())
        assert "boom" in payload["rows"][0]["error"]
        assert "FAILED p=1 n=0" in capsys.readouterr().err
