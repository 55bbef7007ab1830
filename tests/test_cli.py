import json
import math
import warnings

import numpy as np
import pytest

from qotto import cli
from qotto.cli import RunReport, SweepSpec, main, render_report

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
        with pytest.raises(ValueError):
            SweepSpec("beta_c", 0.5, 1.0, 3)  # only p and t_c are swept
        for start, stop in ((0.5, math.inf), (math.nan, 1.0), (0.5, math.nan), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                SweepSpec("t_c", start, stop, 5)

    def test_values(self):
        np.testing.assert_allclose(SweepSpec("p", 0.5, 1.0, 3).values(), [0.5, 0.75, 1.0])


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

    def test_net_objective(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-povm", "--net", "--p", "1",
            "--deterministic", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        idx = payload["columns"].index("best_value")
        assert payload["rows"][0][idx] <= 0.5 * (1.0 + TANH1)

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
