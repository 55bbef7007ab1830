import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qotto import analytic, cli, engine, optimize
from qotto.cli import RunReport, SweepSpec, main, render_report
from qotto.engine import DriveSpec, EngineParams

TANH1 = math.tanh(1.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, raw = line.partition(" = ")
        values[key] = float(raw) if raw else None
    return values


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) if v else None for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSweepSpec:
    def test_validation(self):
        SweepSpec("p", 0.5, 1.0, 11)
        with pytest.raises(ValueError):
            SweepSpec("p", 0.4, 1.0, 11)
        with pytest.raises(ValueError):
            SweepSpec("p", 0.9, 0.6, 11)
        with pytest.raises(ValueError):
            SweepSpec("p", 0.5, 1.0, 1)
        with pytest.raises(ValueError):
            SweepSpec("voltage", 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepSpec("t_c", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="t_c must be positive with a finite reciprocal"):
            SweepSpec("t_c", 1e-320, 1.0, 5)  # 1/t_c, the cold beta, overflows
        with pytest.raises(ValueError):
            SweepSpec("beta_c", 0.5, 1.0, 3)  # only p and t_c are swept
        for start, stop in ((0.5, math.inf), (math.nan, 1.0), (0.5, math.nan), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                SweepSpec("t_c", start, stop, 5)

    def test_values(self):
        np.testing.assert_allclose(SweepSpec("p", 0.5, 1.0, 3).values(), [0.5, 0.75, 1.0])

    def test_slices_cover_the_grid_in_order(self):
        spec = SweepSpec("t_c", 0.1, 3.0, 2 * cli.GRID_SLICE + 3)
        slices = spec.slices()
        assert [len(s) for s in slices] == [cli.GRID_SLICE, cli.GRID_SLICE, 3]
        assert sum(slices, []) == spec.values().tolist()


class TestCycleCommand:
    def test_pvm_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--engine", "pvm", "--omega-x", "3", "--omega-z", "2",
            "--beta-c", "1", "--p", "1", "--theta", "1.5707963267948966", "--phi", "0",
            "--deterministic",
        )
        assert code == 0
        values = parse_kv(out)
        assert values["w_total"] == pytest.approx(0.5 * TANH1, abs=1e-10)
        assert values["eta"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert values["first_law_residual"] <= 1e-10

    def test_conventional_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--engine", "conventional", "--omega-x", "3", "--omega-z", "2",
            "--beta-c", "1", "--beta-h", "0.2", "--p", "1", "--deterministic",
        )
        assert code == 0
        values = parse_kv(out)
        assert values["w_total"] == pytest.approx(0.235140771752087, abs=1e-10)
        assert values["eta"] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_povm_v0_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--engine", "povm", "--v0", "--omega-x", "3", "--omega-z", "2",
            "--beta-c", "1", "--p", "1", "--deterministic",
        )
        assert code == 0
        values = parse_kv(out)
        assert values["w_total"] == pytest.approx(0.5 * (1.0 + TANH1), abs=1e-10)
        assert values["aux_reset_cost"] == pytest.approx(0.36533385508720767, abs=1e-10)
        assert values["net_work"] == pytest.approx(0.5154632228906748, abs=1e-10)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--engine", "pvm", "--theta", "1.2", "--deterministic",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["units"].startswith("energies in hbar")
        assert payload["columns"][:4] == ["e0", "e1", "e2", "e3"]
        assert len(payload["rows"]) == 1

    @pytest.mark.parametrize("argv", [
        ("cycle", "--engine", "pvm", "--theta", "1.0", "--beta-h", "0.2"),
        ("cycle", "--engine", "conventional"),
        ("cycle", "--engine", "povm"),
        ("cycle", "--engine", "povm", "--v0", "--su4-file", "nope.txt"),
        ("cycle", "--engine", "pvm"),
        ("cycle", "--engine", "conventional", "--beta-h", "0.2", "--v0"),
        ("cycle", "--engine", "conventional", "--beta-h", "0.2", "--phi", "1.0"),
        ("cycle", "--engine", "conventional", "--beta-h", "0.2", "--phi", "0"),
    ])
    def test_invalid_flag_combinations(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_values(self, capsys, value):
        base = ("cycle", "--engine", "povm", "--v0", "--omega-x", "5", "--omega-z", "2")
        for argv in (base + ("--t-c", value), base + ("--beta-c", value)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert "must be finite" in err
            assert out == ""

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["cycle", "--engine", "pvm", "--theta", "1.0", "--bogus"])
        assert info.value.code == 2


class TestFig2Command:
    def test_grid_longer_than_a_slice(self, capsys):
        n = cli.GRID_SLICE + 2
        code, out, _ = run_cli(capsys, "fig2", "--grid-points", str(n), "--deterministic")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == pytest.approx(np.linspace(0.5, 1.0, n).tolist(), abs=1e-12)
        assert all(r[4] <= 1e-10 for r in rows)

    def test_panel_a_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--panel", "a", "--deterministic")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "w_conv_bh02", "w_conv_bh0", "w_pvm_max", "first_law_residual"]
        assert len(rows) == 101
        for p, w02, w0, wpvm, resid in rows:
            assert wpvm >= w0 - 1e-12 >= w02 - 2e-12
            assert wpvm > 0.0
            assert resid <= 1e-10
        final = rows[-1]
        assert final[0] == 1.0
        assert final[1] == pytest.approx(0.235140771752087, abs=1e-10)
        assert final[2] == pytest.approx(0.5 * TANH1, abs=1e-10)
        assert final[3] == pytest.approx(0.5 * TANH1, abs=1e-10)
        peak = max(rows, key=lambda r: r[3])
        assert peak[0] == pytest.approx(0.875, abs=0.005)

    def test_panel_b_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--panel", "b", "--deterministic")
        assert code == 0
        _, rows = parse_csv(out)
        works = [r[3] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(works, works[1:]))
        assert max(works) == works[-1]

    @pytest.mark.parametrize("beta_c", ["0.2", "0.1"])
    def test_beta_c_at_or_below_the_hot_column(self, capsys, beta_c):
        code, out, err = run_cli(capsys, "fig2", "--beta-c", beta_c, "--deterministic")
        assert code == 2
        assert err.startswith("error: --beta-c must exceed 0.2")
        assert "w_conv_bh02" in err
        assert out == ""


class TestColdTemperatureOverflow:
    # a cold temperature (1/beta_c, or a swept t_c's 1/t_c), a squared gap or a beta_c * omega_x
    # that overflows is rejected by its own name, before anything is written and without a warning
    @pytest.mark.parametrize("argv,name", [
        ("cycle --engine povm --v0 --beta-c 5e-324", "beta_c"),
        ("fig3 --beta-c 1e-320", "beta_c"),
        ("optimize-povm --beta-c 1e-320", "beta_c"),
        ("fig4 --t-c-start 1e-320", "t_c"),
        ("table1 --omega-x 2e154", "omega_x"),
        ("cycle --engine pvm --theta 1 --beta-c 1e308", "beta_c * omega_x"),
        ("fig2 --beta-c 1e308", "beta_c * omega_x"),
        ("fig3 --beta-c 1e308", "beta_c * omega_x"),
        ("optimize-povm --beta-c 1e308", "beta_c * omega_x"),
        ("fig4 --t-c-start 1e-308", "t_c"),
    ], ids=["cycle", "fig3", "optimize-povm", "fig4", "table1-gap", "cycle-beta-gap", "fig2-beta-gap",
            "fig3-beta-gap", "optimize-povm-beta-gap", "fig4-beta-gap"])
    def test_exits_2_naming_the_flag_value(self, capsys, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv.split(), "--deterministic")
        assert code == 2
        assert err.startswith(f"error: {name} must")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        "table1 --omega-x 1e150",
        "cycle --engine povm --v0 --omega-x 5 --beta-c 2e299",
        "fig4 --omega-x 1e150 --grid-points 3",
        "optimize-povm --omega-x 1e150 --p 0.7 --net",
    ], ids=["table1", "cycle", "fig4", "optimize-povm"])
    def test_runs_at_the_bounds(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, *argv.split(), "--deterministic", "--format", "csv")
        assert code == 0
        cells = {v for line in out.splitlines() if not line.startswith("#") for v in line.split(",")}
        assert not cells & {"inf", "-inf", "nan"}


class TestFig3Command:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig3", "--panel", "b", "--grid-points", "2", "--deterministic",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "p", "w_povm_max", "w_povm_lower_bound", "w_net_max", "w_pvm_max",
            "first_law_residual", "converged",
        ]
        for p, gross, lower, net, pvm, resid, _converged in rows:
            assert lower == pytest.approx(gross - math.log(2.0), abs=1e-10)
            assert net <= gross + 1e-9
            assert net > pvm
            assert resid <= 1e-10

    def test_default_budget_hits_adiabatic_value(self, capsys):
        # the p = 1 row reaches the closed form to the printed digits
        code, out, _ = run_cli(
            capsys, "fig3", "--panel", "b", "--grid-points", "2", "--deterministic"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1][0] == 1.0
        assert rows[-1][1] == pytest.approx(1.5 * (1.0 + TANH1), abs=1e-10)
        assert all(row[-1] == 1 for row in rows)  # converged

    def test_byte_determinism(self, capsys):
        argv = ("fig3", "--panel", "a", "--grid-points", "2", "--deterministic")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_rejects_bad_reset_temperature(self, capsys, value):
        code, out, err = run_cli(capsys, "fig3", "--grid-points", "2", "--t-c", value)
        assert code == 2
        assert "t_c must be finite and nonnegative" in err
        assert out == ""

    def test_removed_search_flags(self, capsys):
        # nothing is left to budget, seed or fail to converge
        for flag in (("--budget", "10"), ("--strict",), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["fig3", "--grid-points", "2", *flag])
            assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "fig3", "--grid-points", "3", "--deterministic")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[-1] for row in rows] == [1, 1, 1]


class TestStackedRows:
    """fig2 and fig4 read their rows from the columns of stacked records."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"CycleRecord": 0, "MeasurementBasis": 0}
        for cls in (engine.CycleRecord, engine.MeasurementBasis):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-row projective optimum")

        monkeypatch.setattr(analytic, "pvm_optimal", forbidden)
        return counts

    def test_fig2_builds_three_records_per_slice(self, capsys, built):
        for points, slices in ((101, 1), (cli.GRID_SLICE + 4, 2)):
            built.update(CycleRecord=0)
            code, _, _ = run_cli(capsys, "fig2", "--grid-points", str(points), "--deterministic")
            assert code == 0
            assert built == {"CycleRecord": 3 * slices, "MeasurementBasis": 0}

    def test_fig4_builds_one_record(self, capsys, built):
        code, _, _ = run_cli(capsys, "fig4", "--deterministic")
        assert code == 0
        assert built == {"CycleRecord": 1, "MeasurementBasis": 0}


class TestOneStrokesPassPerSlice:
    """fig2 and fig3 run strokes I-II once per slice; fig3 builds no PovmSpec."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"strokes_i_ii": 0, "PovmSpec": 0}
        strokes, init = engine.strokes_i_ii, engine.PovmSpec.__init__

        def counted_strokes(*args):
            counts["strokes_i_ii"] += 1
            return strokes(*args)

        def counted_init(self, *args, **kwargs):
            counts["PovmSpec"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(engine, "strokes_i_ii", counted_strokes)
        monkeypatch.setattr(engine.PovmSpec, "__init__", counted_init)
        return counts

    @pytest.mark.parametrize("command", ["fig2", "fig3"])
    def test_one_strokes_pass_per_slice(self, capsys, monkeypatch, counts, command):
        monkeypatch.setattr(cli, "GRID_SLICE", 4)
        for points, slices in ((4, 1), (9, 3), (21, 6)):
            counts.update(strokes_i_ii=0)
            code, _, _ = run_cli(capsys, command, "--grid-points", str(points), "--deterministic")
            assert code == 0
            assert counts["strokes_i_ii"] == slices
        assert counts["PovmSpec"] == 0

    def test_fig3_slices_keep_the_bytes(self, capsys, monkeypatch):
        for argv in (("fig3",), ("fig3", "--panel", "b", "--beta-c", "3", "--t-c", "0.4", "--grid-points", "23")):
            _, whole, _ = run_cli(capsys, *argv, "--deterministic")
            monkeypatch.setattr(cli, "GRID_SLICE", 4)
            _, sliced, _ = run_cli(capsys, *argv, "--deterministic")
            monkeypatch.undo()
            assert sliced == whole


class TestFig4Command:
    def test_columns_and_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "fig4", "--grid-points", "12", "--deterministic")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t_c", "delta_w", "w_a_min", "first_law_residual"]
        for t_c, delta_w, w_a_min, resid in rows:
            assert delta_w == pytest.approx(1.5, abs=1e-12)
            assert resid <= 1e-10
        assert rows[0][2] < 1e-6  # cost vanishes at low temperature
        crossing = [l for l in out.splitlines() if l.startswith("# crossing_temperature")]
        assert len(crossing) == 1
        assert float(crossing[0].split(":")[1]) == pytest.approx(2.436872905700407, abs=1e-8)

    def test_large_gap(self, capsys):
        # the reset cost grows like t ln 2, so the crossing lies just above t_c_bound, beyond 1e9
        code, out, _ = run_cli(capsys, "fig4", "--omega-x", "1.3e9", "--omega-z", "1", "--deterministic")
        assert code == 0
        crossing = next(l for l in out.splitlines() if l.startswith("# crossing_temperature"))
        params = EngineParams(1.0, 1.3e9, 1.0)
        assert crossing == f"# crossing_temperature: {analytic.reset_crossing_temperature(params):.12g}"
        assert float(crossing.split(":")[1]) == pytest.approx(analytic.aux_cost_record(params).t_c_bound, rel=1e-9)

    @pytest.mark.parametrize("flag", ["--t-c-stop", "--t-c-start"])
    def test_rejects_non_finite_range(self, capsys, flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "fig4", flag, "inf", "--deterministic")
        assert code == 2
        assert "must be finite" in err
        assert out == ""


class TestTable1Command:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--deterministic", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        eff = [float(v) for v in table["efficiency_adiabatic"]]
        assert eff == pytest.approx([1.0 / 3.0] * 3, abs=1e-10)
        work = [float(v) for v in table["optimal_work_adiabatic"]]
        assert work[0] == pytest.approx(0.235140771752087, abs=1e-10)
        assert work[1] == pytest.approx(0.5 * TANH1, abs=1e-10)
        assert work[2] == pytest.approx(0.5 * (1.0 + TANH1), abs=1e-10)
        assert work[0] <= work[1] < work[2]
        eff_opt = table["efficiency_at_optimal_work"]
        assert float(eff_opt[1]) == pytest.approx(0.5, abs=1e-12)
        assert eff_opt[2] == ""  # undefined below the ratio threshold
        assert any("hierarchy_conv_le_pvm_lt_povm: True" in l for l in out.splitlines())

    @pytest.mark.parametrize("omega_x,omega_z,beta_c,beta_h", [(3.0, 2.0, 1.0, 0.2), (5.0, 2.0, 0.4, 0.1), (2.1, 2.0, 4.0, 3.9)])
    def test_povm_nonadiabatic_is_the_ceiling_maximum(self, capsys, omega_x, omega_z, beta_c, beta_h):
        params = EngineParams(omega_z, omega_x, beta_c, beta_h=beta_h)
        ceiling = max(
            analytic.povm_work_ceiling(params, DriveSpec(p=float(p))) for p in np.linspace(0.5, 1.0, 1001)
        )
        code, out, _ = run_cli(
            capsys, "table1", "--omega-x", repr(omega_x), "--omega-z", repr(omega_z), "--beta-c", repr(beta_c),
            "--beta-h", repr(beta_h), "--deterministic", "--format", "csv",
        )
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("optimal_work_nonadiabatic"))
        assert row.split(",")[3] == f"{ceiling:.12g}"

    def test_large_ratio_povm_efficiency(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--omega-x", "5", "--deterministic", "--format", "csv"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert float(table["efficiency_at_optimal_work"][2]) == pytest.approx(0.6, abs=1e-10)


class TestOptimizeCommand:
    def test_roundtrip_through_su4_file(self, capsys, tmp_path):
        su4_path = tmp_path / "k.txt"
        code, out, _ = run_cli(
            capsys, "optimize-povm", "--p", "0.9",
            "--su4-out", str(su4_path), "--deterministic",
        )
        assert code == 0
        best = parse_kv(out)["best_value"]
        code, out, _ = run_cli(
            capsys, "cycle", "--engine", "povm", "--su4-file", str(su4_path),
            "--p", "0.9", "--deterministic",
        )
        assert code == 0
        assert parse_kv(out)["w_total"] == pytest.approx(best, abs=1e-9)

    def test_unwritable_su4_out_prints_no_report(self, capsys, tmp_path):
        # --su4-out is written before the report, so its failure leaves stdout empty
        target = tmp_path / "missing" / "k.txt"
        code, out, err = run_cli(capsys, "optimize-povm", "--su4-out", str(target), "--deterministic")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_net_objective(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-povm", "--net", "--p", "1",
            "--deterministic", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        idx = payload["columns"].index("best_value")
        assert payload["rows"][0][idx] <= 0.5 * (1.0 + TANH1)

    @pytest.mark.parametrize("t_c", ["0.5", "nan"])
    def test_t_c_requires_net(self, capsys, t_c):
        code, out, err = run_cli(capsys, "optimize-povm", "--p", "0.8", "--t-c", t_c, "--deterministic")
        assert code == 2
        assert out == ""
        assert "--t-c requires --net" in err

    def test_t_c_with_net(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-povm", "--net", "--t-c", "0.5", "--p", "0.8", "--deterministic"
        )
        assert code == 0
        assert "objective: net\n# t_c: 0.5\n" in out

    def test_net_reports_the_default_t_c(self, capsys):
        # two net runs at different reset temperatures must not share a header
        code, out, _ = run_cli(
            capsys, "optimize-povm", "--net", "--beta-c", "4", "--deterministic", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["meta"]["t_c"] == 0.25
        code, out, _ = run_cli(capsys, "optimize-povm", "--beta-c", "4", "--deterministic")
        assert code == 0
        assert "t_c" not in out

    def test_removed_search_flags(self, capsys):
        for flag in (("--budget", "10"), ("--strict",), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["optimize-povm", "--p", "1", *flag])
            assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "optimize-povm", "--p", "1", "--deterministic")
        assert code == 0
        assert parse_kv(out)["converged"] == 1


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "fig4", "--grid-points", "5", "--deterministic", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.endswith("\n")
        assert "\r" not in text

    def test_csv_number_formatting(self):
        report = RunReport(meta={"a": 1}, columns=("x", "y"), rows=[(1.0 / 3.0, None)])
        text = render_report(report, "csv")
        assert "0.333333333333," in text
        assert "," not in text.splitlines()[0].replace("# a: 1", "")

    def test_deterministic_suppresses_timestamp(self, capsys):
        _, out, _ = run_cli(capsys, "fig4", "--grid-points", "5", "--deterministic")
        assert "timestamp" not in out
        _, out, _ = run_cli(capsys, "fig4", "--grid-points", "5")
        assert "timestamp" in out


@pytest.mark.parametrize("argv", [
    ("cycle", "--engine", "povm", "--v0"),
    ("optimize-povm", "--net", "--p", "0.8"),
    ("fig3", "--grid-points", "3"),
], ids=["cycle", "optimize-povm", "fig3"])
def test_negative_zero_reset_temperature_is_zero(capsys, argv):
    # -0 is accepted as the zero temperature and reported as 0, in the metadata and in every cost
    code, out, _ = run_cli(capsys, *argv, "--t-c", "-0", "--deterministic")
    assert code == 0
    _, zero, _ = run_cli(capsys, *argv, "--t-c", "0", "--deterministic")
    assert out == zero
    assert "# t_c: 0.0\n" in out
    assert not re.search(r"(?<![\de.])-0(\.0*)?(?![\d.e])", out)


# sha256 of the --deterministic report of each command, each recorded before a
# change to the code behind it; every printed number, first-law residuals
# included, must keep its bytes.
GOLDEN = [
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 8ecd220ec0229b84...)
    ("9783af86a0f242e0a4558b93bf19a7a823853eab93fe665134b53c4fecb401b0",
     "fig2 --panel a --beta-c 0.7 --grid-points 41"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 5409fbd8c6949c93...)
    ("b5984feffe05b9964cb0addaa50a62e3b2d73a7a3c44b7cf6b1c0987d68171d1",
     "fig2 --panel b --beta-c 3"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 646f09717bd115e2...)
    ("7ed2f7291e665fa9a79c15c318414fa4286c3d47a54d6daf533eab53a81089cb",
     "fig4 --omega-x 4.5 --omega-z 1.5 --t-c-start 0.1 --t-c-stop 3 --grid-points 37"),
    ("6bf28e3f2d9a80c008a16f75143da14897d05c4df3254d2550b248a12d85665b",
     "table1 --omega-x 5 --beta-c 1.2 --beta-h 0.3"),
    ("edf6e7d3e3f53e16047386b05e3251f9e9b2e3fd21c2f0b3c5dddbdd703b69ee",
     "cycle --engine conventional --beta-h 0.2 --p 0.7 --alpha 1"),
    ("54327b548d275b5cdb11f86d8f19f6b8ab33161d374bfe8bee23ed8aed1022c9",
     "cycle --engine pvm --p 0.8 --alpha 0.3 --theta 1.1 --phi 0.4"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 01b27782366039b7...)
    ("81913f866aebdb6237fa71abaf2ee2553af0fa5c6da6669628aa5fa4270bb4bd",
     "cycle --engine povm --v0 --p 0.7 --theta 0.9 --phi 1.5 --t-c 0.5"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 2ff314914dc1374d...)
    ("43e189150d4409ae73a213938ec41ab7b5b552fdba8e352b58083531e0f1f8d8",
     "fig3 --panel b --grid-points 5"),
    ("b9ce8ab6dc7d44a4fdc459b43c448eea81c8da05fd445df2b4ed1631a3d810c0",
     "optimize-povm --omega-x 5 --p 0.8"),
    # re-recorded when net reports began to carry their t_c (before: 629e5667616a7db6...)
    ("9e779f41cabe8d86be4985702088627ac5c7cc74d14531d643fc7ab60e96e6bb",
     "optimize-povm --omega-x 5 --p 0.8 --net --t-c 0.5"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 9e30346322eac07f...)
    ("0cb41cfd947faaef87703197615b916eb502e3174741a6ec4327a02c17181755",
     "fig4 --grid-points 7 --format json"),
    ("dbe1954a18c7cb60ec335b2446df36972fbfc275038a76296bbe4448c9be31bd",
     "table1 --format csv"),
    # re-recorded for the rank-one stroke-III kernel; residuals and two 12th digits move (before: 497a2de16470ce44...)
    ("c55e21a579718ccf7ccea42855fe92f71cd20fe8d675a8b50b3d7b3ffac49b96",
     "fig2 --panel b --beta-c 0.9 --grid-points 4100"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 7ad72e09706b6212...)
    ("860917f69ff25acc78c116cccf5ab4f8ce13c41b85871e927682824a94bfb63f",
     "fig2 --format text"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: c0c98ea483385b7c...)
    ("fac00d69a27d0358c00cee92c985f755c906de1afa3fbd06f29a9e9eeb834bd0",
     "fig4 --grid-points 9 --format csv"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 6fdbf1d0e4aedfa8...)
    ("5dcb13aa674a8ecfca67b83558bc4d1a9446cbaf1880e768bfeb2b3b71344b40",
     "fig3"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 28af002ed2b89347...)
    ("0c6da7d152d540268864fd784bc8172491edada01788dcda7a876a23fbb2d146",
     "fig3 --panel b --beta-c 3 --t-c 0.4 --grid-points 23 --format json"),
    ("a66d5f27a45ee85cd91e07a4048d77e932010adf76a72ce5394f3b3098f5afb0",
     "optimize-povm --omega-x 4 --p 0.6 --net --t-c 0"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("digest,argv", GOLDEN, ids=[argv.split()[0] + str(i) for i, (_, argv) in enumerate(GOLDEN)])
    def test_report_bytes(self, capsys, digest, argv):
        code, out, _ = run_cli(capsys, *argv.split(), "--deterministic")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def readme_commands():
    """Every ``qotto ...`` line of README.md's ``sh`` blocks, in order, as argv without the program name."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("qotto ")]


class TestReadmeExamples:
    """The README's examples run as written, and a written optimum reproduces its value."""

    def test_every_example_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        results, records, written = [], [], {}

        def spy(module, name, log):  # record every value the command computes, at full precision
            run = getattr(module, name)

            def logged(*args, **kwargs):
                log.append(run(*args, **kwargs))
                return log[-1]

            monkeypatch.setattr(module, name, logged)

        spy(optimize, "optimize_povm_work", results)
        spy(optimize, "optimize_povm_net_work", results)
        spy(engine, "run_povm_cycle", records)
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {"cycle", "fig2", "fig3", "fig4", "table1", "optimize-povm"}
        compared = 0
        for argv in commands:
            code, _, err = run_cli(capsys, *argv, "--deterministic")
            assert code == 0, (argv, err)
            if "--su4-out" in argv:
                written[argv[argv.index("--su4-out") + 1]] = results[-1].best_value
            if "--su4-file" in argv:
                value = written[argv[argv.index("--su4-file") + 1]]
                assert abs(records[-1].w_total - value) <= 1e-12, argv
                compared += 1
        assert compared >= 1


class TestParser:
    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_reuses_one_parser(self, capsys):
        run_cli(capsys, "cycle", "--engine", "pvm", "--theta", "1.0", "--deterministic")
        parser = cli._parser()
        code, out, _ = run_cli(capsys, "cycle", "--engine", "pvm", "--theta", "1.0", "--deterministic")
        assert code == 0 and "w_total" in out
        assert cli._parser() is parser

    def test_import_builds_no_parser(self):
        probe = "import qotto.cli as c; print(c._parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "0"
