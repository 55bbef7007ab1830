import argparse
import dataclasses
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
from qotto.engine import DriveSpec, EngineParams, PovmSpec
from helpers import bloch_vector, kraus_family

TANH1 = math.tanh(1.0)


# a printed negative zero: -0, -0.0, ... that is not part of a longer number
NEGATIVE_ZERO = re.compile(r"(?<![\de.])-0(\.0*)?(?![\d.e])")


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
        SweepSpec(0.5, 1.0, 11)
        SweepSpec(-3.0, -1.0, 2)  # a grid has no range of its own: the swept field's rules check its values
        for start, stop in ((0.9, 0.6), (0.5, 0.5)):
            with pytest.raises(ValueError, match="start must be below stop"):
                SweepSpec(start, stop, 11)
        with pytest.raises(ValueError, match="points must be at least 2"):
            SweepSpec(0.5, 1.0, 1)
        for start, stop in ((0.5, math.inf), (math.nan, 1.0), (0.5, math.nan), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                SweepSpec(start, stop, 5)

    def test_has_no_variable(self):
        # the grid of each command is its [start, stop] and point count; the variable name selected no rule any more
        assert [f.name for f in dataclasses.fields(SweepSpec)] == ["start", "stop", "points"]
        assert not hasattr(cli, "SWEEP_VARIABLES")

    def test_values(self):
        np.testing.assert_allclose(SweepSpec(0.5, 1.0, 3).values(), [0.5, 0.75, 1.0])

    def test_slices_cover_the_grid_in_order(self):
        spec = SweepSpec(0.1, 3.0, 2 * engine.GRID_SLICE + 3)
        slices = spec.slices()
        assert [len(s) for s in slices] == [engine.GRID_SLICE, engine.GRID_SLICE, 3]
        assert np.concatenate(slices).tolist() == spec.values().tolist()

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4"])
    def test_grid_too_large_to_allocate_exits_2(self, capsys, command):
        # 10^15 float64 points are 7.1 PiB, above any user address space, so the grid is never allocated
        code, out, err = run_cli(capsys, command, "--grid-points", str(10**15), "--deterministic")
        assert code == 2 and out == ""
        assert err == f"error: cannot allocate a grid of {10**15} points\n"


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

    @pytest.mark.parametrize("theta", ["0", "3.141592653589793"], ids=["theta-0", "theta-pi"])
    def test_poles_print_one_ledger_at_every_phi(self, capsys, theta):
        # phi has no meaning at the poles, and the ledger keeps its bytes whatever it is
        def ledger(phi):
            code, out, _ = run_cli(capsys, "cycle", "--engine", "pvm", "--p", "0.8", "--alpha", "0.3",
                                   "--theta", theta, "--phi", phi, "--deterministic")
            assert code == 0
            return [line for line in out.splitlines() if not line.startswith("#")]

        assert ledger("0") == ledger("5")

    def test_rounding_noise_runs_no_engine(self, capsys):
        # at beta_c = 1e-300, rho0 is I/2 to within 1e-300, so the printed w_total and q_h are rounding noise of
        # order eps omega_x, below ENGINE_TOL omega_x: the cycle reports no efficiency
        code, out, _ = run_cli(
            capsys, "cycle", "--engine", "pvm", "--beta-c", "1e-300", "--p", "0.8", "--alpha", "1.0",
            "--theta", "0.3", "--deterministic",
        )
        assert code == 0
        values = parse_kv(out)
        assert "eta = " in out.splitlines() and values["eta"] is None
        assert 0.0 < values["w_total"] <= engine.ENGINE_TOL * 3.0 and 0.0 < values["q_h"]  # the default omega_x

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

    @pytest.mark.parametrize("flags,message", [
        ("--engine conventional --beta-h 0.2 --phi 0", "--engine conventional takes [--beta-h], got --beta-h --phi"),
        ("--engine conventional --beta-h 0 --t-c 0", "--engine conventional takes [--beta-h], got --beta-h --t-c"),
        ("--engine pvm", "--engine pvm takes (--theta) [--phi], got none"),
        ("--engine pvm --theta 0 --beta-h 0", "--engine pvm takes (--theta) [--phi], got --beta-h --theta"),
        ("--engine pvm --theta 1 --v0", "--engine pvm takes (--theta) [--phi], got --theta --v0"),
        ("--engine povm --phi 0", "--engine povm takes (--v0 | --su4-file) [--theta] [--phi] [--t-c], got --phi"),
        ("--engine povm --v0 --su4-file u.txt",
         "--engine povm takes (--v0 | --su4-file) [--theta] [--phi] [--t-c], got --v0 --su4-file"),
        ("--engine povm --v0 --beta-h 0",
         "--engine povm takes (--v0 | --su4-file) [--theta] [--phi] [--t-c], got --beta-h --v0"),
    ], ids=["conventional-phi-0", "conventional-t-c-0", "pvm-none", "pvm-beta-h-0", "pvm-v0", "povm-phi-0", "povm-both",
            "povm-beta-h-0"])
    def test_each_engine_takes_the_flags_of_its_row(self, capsys, flags, message):
        # one table names the flags each engine takes; a flag given as 0 is given
        code, out, err = run_cli(capsys, "cycle", *flags.split(), "--deterministic")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [
        "--engine conventional --beta-h 0",
        "--engine pvm --theta 0 --phi 0",
        "--engine povm --v0 --theta 0 --phi 0 --t-c 0",
    ])
    def test_flags_given_as_0_run(self, capsys, flags):
        code, _, err = run_cli(capsys, "cycle", *flags.split(), "--deterministic")
        assert (code, err) == (0, "")

    def test_a_missing_beta_h_is_the_library_error(self, capsys):
        # EngineParams alone requires beta_h of the two-bath cycle, and the command says what it says
        code, out, err = run_cli(capsys, "cycle", "--engine", "conventional", "--deterministic")
        assert (code, out, err) == (2, "", "error: the conventional cycle requires beta_h\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_values(self, capsys, value):
        base = ("cycle", "--engine", "povm", "--v0", "--omega-x", "5", "--omega-z", "2")
        for argv in (base + ("--t-c", value), base + ("--beta-c", value)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert "must be finite" in err
            assert out == ""

    @pytest.mark.parametrize("argv,unknown", [
        ("cycle --engine pvm --theta 1.0 --bogus", "--bogus"),
        ("fig4 --beta-c 1", "--beta-c 1"),  # fig4 sweeps t_c = 1/beta_c, so it takes no --beta-c
    ], ids=["cycle-bogus", "fig4-beta-c"])
    def test_unknown_flag_exits_2(self, capsys, argv, unknown):
        with pytest.raises(SystemExit) as info:
            main([*argv.split(), "--deterministic"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: unrecognized arguments: {unknown}\n")


class TestFig2Command:
    def test_grid_longer_than_a_slice(self, capsys):
        n = engine.GRID_SLICE + 2
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
    # a cold temperature (1/beta_c, or a swept t_c's 1/t_c) that overflows, and a gap or a beta_c * omega_x beyond
    # its bound, are rejected by their own names, before anything is written and without a warning
    @pytest.mark.parametrize("argv,name", [
        ("cycle --engine povm --v0 --beta-c 5e-324", "beta_c"),
        ("fig3 --beta-c 1e-320", "beta_c"),
        ("optimize-povm --beta-c 1e-320", "beta_c"),
        ("fig4 --t-c-start 1e-320", "t_c"),
        ("table1 --omega-x 1.0000000000000002e300", "omega_x"),
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
        "table1 --omega-x 1e300 --beta-c 1e-300 --beta-h 0",
        "cycle --engine povm --v0 --omega-x 5 --beta-c 2e299",
        "fig4 --omega-x 1e300 --t-c-start 1 --grid-points 3",
        "optimize-povm --omega-x 1e300 --beta-c 1e-300 --p 0.7 --net",
        "fig4 --t-c-stop 1.7976931348623157e308 --grid-points 3",  # the grid reads t_c, not 1/(1/t_c) = inf
        "fig3 --beta-c 1e-300 --grid-points 3",  # t_c = 1e300: w_povm_lower_bound is about -7e299, still finite
        "optimize-povm --net --beta-c 1e-300",
    ], ids=["table1", "cycle", "fig4", "optimize-povm", "fig4-hottest", "fig3-hot-reset", "optimize-povm-hot-reset"])
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

        pvm_optimal = analytic.pvm_optimal

        def slices_only(params, p):
            if np.ndim(p) == 0:
                raise AssertionError("a per-row projective optimum")
            return pvm_optimal(params, p)

        monkeypatch.setattr(analytic, "pvm_optimal", slices_only)
        return counts

    def test_fig2_builds_one_record_per_slice(self, capsys, built):
        # its three columns are one (3, n) stack: two hot baths and the measurement
        for points, slices in ((101, 1), (engine.GRID_SLICE + 4, 2)):
            built.update(CycleRecord=0)
            code, _, _ = run_cli(capsys, "fig2", "--grid-points", str(points), "--deterministic")
            assert code == 0
            assert built == {"CycleRecord": slices, "MeasurementBasis": 0}

    def test_fig4_builds_one_record(self, capsys, built):
        code, _, _ = run_cli(capsys, "fig4", "--deterministic")
        assert code == 0
        assert built == {"CycleRecord": 1, "MeasurementBasis": 0}


class TestOneStrokesPassPerSlice:
    """fig2, fig3 and fig4 run the one stroke-I/II setup and each closed form once per slice and build no PovmSpec."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"_strokes": 0, "PovmSpec": 0}
        strokes, init = engine._strokes, engine.PovmSpec.__init__

        def counted_strokes(*args):
            counts["_strokes"] += 1
            return strokes(*args)

        def counted_init(self, *args, **kwargs):
            counts["PovmSpec"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(engine, "_strokes", counted_strokes)
        monkeypatch.setattr(engine.PovmSpec, "__init__", counted_init)
        return counts

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4"])
    def test_one_strokes_pass_per_slice(self, capsys, monkeypatch, counts, command):
        monkeypatch.setattr(engine, "GRID_SLICE", 4)
        for points, slices in ((4, 1), (9, 3), (21, 6)):
            counts.update(_strokes=0)
            code, _, _ = run_cli(capsys, command, "--grid-points", str(points), "--deterministic")
            assert code == 0
            assert counts["_strokes"] == slices
        assert counts["PovmSpec"] == 0

    @pytest.mark.parametrize("command,closed_form", [
        ("fig2", "pvm_optimal"), ("fig3", "pvm_optimal"), ("fig4", "aux_cost_record"),
    ])
    def test_one_closed_form_call_per_slice(self, capsys, monkeypatch, command, closed_form):
        # a column of closed-form values is one array call per slice, never one call per row
        calls, f = [], getattr(analytic, closed_form)

        def counted(params, x, *args):
            calls.append(np.shape(x))
            return f(params, x, *args)

        monkeypatch.setattr(analytic, closed_form, counted)
        monkeypatch.setattr(engine, "GRID_SLICE", 4)
        for points, sizes in ((4, [4]), (9, [4, 4, 1]), (21, [4] * 5 + [1])):
            calls.clear()
            code, _, _ = run_cli(capsys, command, "--grid-points", str(points), "--deterministic")
            assert code == 0
            assert calls == [(n,) for n in sizes]

    @pytest.mark.parametrize("command,built", [
        ("fig2", {"EngineParams": 1, "DriveSpec": 0}),
        ("fig3", {"EngineParams": 1, "DriveSpec": 0}),
        ("fig4", {"EngineParams": 2, "DriveSpec": 0}),  # its parameters, and the check at the coldest t_c
    ])
    def test_specs_built_do_not_grow_with_the_grid(self, capsys, monkeypatch, command, built):
        # a grid enters the kernel as arrays checked once per slice, never as one spec per row
        counts = dict.fromkeys(built, 0)
        for cls in (engine.EngineParams, engine.DriveSpec):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        for points in (2, 101, engine.GRID_SLICE + 4):
            counts.update(dict.fromkeys(built, 0))
            code, _, _ = run_cli(capsys, command, "--grid-points", str(points), "--deterministic")
            assert code == 0
            assert counts == built, points

    def test_fig3_slices_keep_the_bytes(self, capsys, monkeypatch):
        for argv in (("fig3",), ("fig3", "--panel", "b", "--beta-c", "3", "--t-c", "0.4", "--grid-points", "23")):
            _, whole, _ = run_cli(capsys, *argv, "--deterministic")
            monkeypatch.setattr(engine, "GRID_SLICE", 4)
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

    @pytest.mark.parametrize("flags,message", [
        ("--t-c-start 1e-308",
         "t_c must be warmer than 1e-308 at omega_x = 5.0: beta_c * omega_x must be at most 1e300, got 1e+308 * 5.0"),
        ("--t-c-start 1e-300 --omega-x 1e10",
         "t_c must be warmer than 1e-300 at omega_x = 10000000000.0: beta_c * omega_x must be at most 1e300, "
         "got 9.999999999999999e+299 * 10000000000.0"),
    ])
    def test_too_cold_message(self, capsys, flags, message):
        # the grid is checked once, at its coldest point, and says what a check of every row said
        code, out, err = run_cli(capsys, "fig4", *flags.split(), "--deterministic")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_rows_are_the_scalar_closed_form_to_the_printed_byte(self, capsys):
        # every printed cost, advantage and crossing is f"{x:.12g}" of the scalar closed form at that t_c
        rng = np.random.default_rng(21)
        for points in (2, 80, 80, 173, engine.GRID_SLICE + 4):
            omega_z = float(rng.uniform(1.0, 3.0))
            omega_x = omega_z * float(rng.uniform(1.1, 4.0))
            start, stop = float(rng.uniform(0.05, 0.2)), float(rng.uniform(2.0, 5.0))
            code, out, _ = run_cli(capsys, "fig4", f"--omega-x={omega_x!r}", f"--omega-z={omega_z!r}",
                                   f"--t-c-start={start!r}", f"--t-c-stop={stop!r}", f"--grid-points={points}",
                                   "--deterministic")
            assert code == 0
            params = EngineParams(omega_z, omega_x, 1.0)
            lines = out.splitlines()
            assert f"# crossing_temperature: {analytic.reset_crossing_temperature(params):.12g}" in lines
            rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
            grid = np.linspace(start, stop, points).tolist()
            assert len(rows) == points
            for t_c, row in zip(grid, rows):
                rec = analytic.aux_cost_record(params, t_c)
                assert row[:3] == [f"{t_c:.12g}", f"{rec.delta_w:.12g}", f"{rec.min_cost:.12g}"]

    @pytest.mark.parametrize("start", ["0", "-1", "5e-324", "1e-320"])
    def test_rejects_a_start_without_a_cold_beta(self, capsys, start):
        # the coldest row's beta_c = 1/t_c is checked by EngineParams, 1/0 taken as inf; nothing divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fig4", f"--t-c-start={start}", "--deterministic")
        assert (code, out) == (2, "")
        reason = "beta_c must be positive, got -1.0" if start == "-1" else "beta_c must be finite, got inf"
        assert err == f"error: t_c must be warmer than {float(start)} at omega_x = 5.0: {reason}\n"

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

    @pytest.mark.parametrize("beta_c,conventional,povm", [("0.5", "", ""), ("1", "0.6", "0.6")])
    def test_efficiency_at_optimal_work(self, capsys, beta_c, conventional, povm):
        # at (omega_z, omega_x) = (2, 5) the dilation ceiling peaks at p = 1 exactly when gamma >= 1 + 1/tz, so
        # at beta_c = 1 (1 + 1/tz = 2.31) but not at beta_c = 0.5 (3.16); there the two-bath cycle does no work
        code, out, _ = run_cli(
            capsys, "table1", "--omega-x", "5", "--omega-z", "2", "--beta-c", beta_c, "--deterministic",
            "--format", "csv",
        )
        assert code == 0
        assert not NEGATIVE_ZERO.search(out)
        table = {row.split(",")[0]: row.split(",")[1:] for row in out.splitlines() if not row.startswith("#")}
        assert table["efficiency_at_optimal_work"][0::2] == [conventional, povm]
        assert table["efficiency_adiabatic"] == [conventional, "0.6", "0.6"]  # eta0 only where the cycle runs
        params = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=float(beta_c))
        assert (params.gamma >= 1.0 + 1.0 / params.tau_z) == (povm != "")
        if povm:  # the simulated gross optimum at p = 1 runs at eta0
            strokes = engine.strokes_i_ii(params, DriveSpec(1.0))
            rec, _ = optimize._dilation_candidates(strokes, params.reset_temperature(), False)
            assert rec.eta == pytest.approx(0.6, abs=1e-10)
        else:
            assert table["optimal_work_adiabatic"][0] == table["optimal_work_nonadiabatic"][0] == "0"

    def test_efficiencies_do_not_depend_on_the_unit(self, capsys):
        # gaps of 1e-12 with inverse temperatures of 1e12 keep the efficiencies of unit gaps
        def efficiencies(*flags):
            code, out, _ = run_cli(capsys, "table1", *flags, "--deterministic", "--format", "csv")
            assert code == 0
            return [line for line in out.splitlines() if line.startswith("efficiency")]

        unit = efficiencies()
        assert unit[0] == "efficiency_adiabatic,0.333333333333,0.333333333333,0.333333333333"
        assert efficiencies("--omega-x", "3e-12", "--omega-z", "2e-12", "--beta-c", "1e12", "--beta-h", "2e11") == unit

    def test_gaps_of_1e_300_print_the_unit_table_scaled(self, capsys):
        # no closed form squares a gap, so gaps of 1e-300 (and inverse temperatures of 1e300) print the table of
        # unit gaps, cell by cell: each work times 1e-300, each efficiency and the hierarchy verdict as they are
        def table(*flags):
            code, out, _ = run_cli(capsys, "table1", *flags, "--deterministic", "--format", "csv")
            assert code == 0
            verdict = [line for line in out.splitlines() if line.startswith("# hierarchy")]
            return verdict, [line.split(",") for line in out.splitlines() if not line.startswith("#")]

        unit_verdict, unit = table("--omega-x", "3", "--omega-z", "1", "--beta-c", "0.1", "--beta-h", "0.02")
        verdict, tiny = table("--omega-x", "3e-300", "--omega-z", "1e-300", "--beta-c", "1e299", "--beta-h", "2e298")
        assert verdict == unit_verdict == ["# hierarchy_conv_le_pvm_lt_povm: True"]
        assert tiny[0] == unit[0] and len(tiny) == len(unit) == 5
        for (name, *cells), (unit_name, *unit_cells) in zip(tiny[1:], unit[1:]):
            assert name == unit_name
            if name.startswith("efficiency"):
                assert cells == unit_cells
            else:
                assert [float(c) for c in cells] == pytest.approx([1e-300 * float(c) for c in unit_cells], rel=1e-11)

    @pytest.mark.parametrize("omega_z,omega_x,beta_c", [
        (1e-300, 2e-300, 1e-8),  # the projective heat underflows to 0
        (2.0, 3.0, 1e-300),  # rounding-sized work and heat
    ])
    def test_pvm_efficiency_follows_the_engine_threshold(self, capsys, omega_z, omega_x, beta_c):
        # the projective optimum's efficiency is empty where its work or heat is at or below ENGINE_TOL * omega_x,
        # as the simulated cycle at that optimum says
        flags = ["--omega-z", repr(omega_z), "--omega-x", repr(omega_x), "--beta-c", repr(beta_c), "--beta-h", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "table1", *flags, "--deterministic", "--format", "csv")
        assert code == 0
        table = {row.split(",")[0]: row.split(",")[1:] for row in out.splitlines() if not row.startswith("#")}
        assert table["efficiency_at_optimal_work"][1] == ""
        params = EngineParams(omega_z, omega_x, beta_c)
        p = analytic.pvm_best_p(params).p_star
        assert engine.run_pvm_cycle(params, DriveSpec(p), analytic.pvm_optimal(params, p).basis).eta is None

    def test_large_ratio_povm_efficiency(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--omega-x", "5", "--deterministic", "--format", "csv"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert float(table["efficiency_at_optimal_work"][2]) == pytest.approx(0.6, abs=1e-10)


class TestOptimizeCommand:
    def test_roundtrip_through_su4_file(self, tmp_path):
        # --su4-out writes the valued unitary at 17 digits, so cycle --su4-file reproduces the value bit for bit
        su4_path = str(tmp_path / "u.txt")
        for objective, t_c, column in ((), (), "w_total"), (("--net",), ("--t-c", "0.7"), "net_work"):
            best = report("optimize-povm", "--p", "0.9", "--omega-x", "4.5", *objective, *t_c,
                          "--su4-out", su4_path).rows[0][0]
            with open(su4_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[0].startswith("#") and [len(line.split()) for line in lines[1:]] == [8, 8, 8, 8]
            rec = report("cycle", "--engine", "povm", "--su4-file", su4_path, "--p", "0.9", "--omega-x", "4.5", *t_c)
            assert rec.rows[0][cli.RECORD_COLUMNS.index(column)].hex() == best.hex()

    def test_prints_the_effect_found(self, capsys):
        # E_0 in Bloch form: a rank-one effect for the gross optimum, and I for the zero-entropy net winner
        def effect(*flags):
            code, out, _ = run_cli(capsys, "optimize-povm", *flags, "--deterministic", "--format", "csv")
            assert code == 0
            header, row = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
            assert header == ["best_value", "evaluations", "converged", "E0_I", "E0_x", "E0_y", "E0_z"]
            return [float(c) for c in row[3:]]

        assert effect("--omega-x", "5", "--p", "0.8") == pytest.approx([0.5, -0.3, 0.0, -0.4], abs=1e-12)
        assert effect("--net", "--t-c", "5") == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("t_c", [None, "0.5", "5"], ids=["gross", "net", "net-rotation"])
    def test_effect_is_the_kraus_family_sum(self, t_c):
        # E_0, a partial trace of the joint unitary, is sum K^dag K over the outcome-0 half of the Kraus family that
        # the optimum induces; at t_c = 5 the zero-entropy rotation wins, whose E_0 is I
        net = () if t_c is None else ("--net", "--t-c", t_c)
        row = report("optimize-povm", "--omega-x", "5", "--p", "0.8", *net).rows[0]
        params, drive = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0), DriveSpec(p=0.8)
        if t_c is None:
            result = optimize.optimize_povm_work(params, drive)
        else:
            result = optimize.optimize_povm_net_work(params, drive, t_c=float(t_c))
        family = kraus_family(PovmSpec(joint_unitary=result.best_point))
        e0 = sum(k.conj().T @ k for k in family[: len(family) // 2])
        want = [0.5 * np.trace(e0).real, *(0.5 * bloch_vector(e0))]
        np.testing.assert_allclose(row[3:], want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("count", [0, 14, 16, 31, 33])
    def test_su4_file_of_another_count_exits_2(self, capsys, tmp_path, count):
        path = tmp_path / "u.txt"
        path.write_text("# header\n" + " ".join(["0.5"] * count) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cycle", "--engine", "povm", "--su4-file", str(path), "--deterministic")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"found {count}" in err

    def test_su4_file_of_a_non_unitary_exits_2(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text(" ".join(["0.5", "0"] * 16) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cycle", "--engine", "povm", "--su4-file", str(path), "--deterministic")
        assert code == 2 and out == ""
        assert err == "error: joint_unitary is not unitary within 1e-10\n"

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
    assert not NEGATIVE_ZERO.search(out)


@pytest.mark.parametrize("argv", [
    ("--engine", "conventional", "--beta-h", "{z}", "--alpha", "{z}"),
    ("--engine", "pvm", "--theta", "{z}", "--phi", "{z}", "--alpha", "{z}"),
    ("--engine", "povm", "--v0", "--theta", "{z}", "--phi", "{z}", "--alpha", "{z}"),
], ids=["conventional", "pvm", "povm"])
def test_negative_zero_cycle_metadata_is_zero(capsys, argv):
    # a -0 angle or hot inverse temperature is echoed as 0 in the metadata, and the ledger is that of 0
    code, out, _ = run_cli(capsys, "cycle", *(a.format(z="-0") for a in argv), "--deterministic")
    assert code == 0
    assert not NEGATIVE_ZERO.search(out)
    _, zero, _ = run_cli(capsys, "cycle", *(a.format(z="0") for a in argv), "--deterministic")
    assert out == zero


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_negative_zero_table1_metadata_is_zero(capsys, fmt):
    # a -0 hot inverse temperature is printed as 0 in every format, and the table is that of 0
    code, out, _ = run_cli(capsys, "table1", "--beta-h", "-0", "--deterministic", "--format", fmt)
    assert code == 0
    assert not NEGATIVE_ZERO.search(out)
    _, zero, _ = run_cli(capsys, "table1", "--beta-h", "0", "--deterministic", "--format", fmt)
    assert out == zero


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_render_report_prints_every_float_zero_as_zero(fmt):
    text = render_report(RunReport({"a": -0.0, "b": np.float64(-0.0)}, ("x", "y"), [(-0.0, np.float64(-0.0))]), fmt)
    assert not NEGATIVE_ZERO.search(text)
    assert text == render_report(RunReport({"a": 0.0, "b": np.float64(0.0)}, ("x", "y"), [(0.0, np.float64(0.0))]), fmt)


def report(*argv):
    # the RunReport a command builds, its numbers at full precision
    args = cli._parser().parse_args([*argv, "--deterministic"])
    return args.func(args)


RESET_PARAMS = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=0.8)
RESET_FLAGS = ("--omega-x", "5", "--omega-z", "2", "--beta-c", "0.8")


def _cli_rows(*argv):
    # a command's rows at reset temperature t (None: no --t-c), as a function of t
    return lambda t: report(*argv, *(() if t is None else (f"--t-c={t!r}",))).rows


def _net_optimum(t):
    # the net optimizer's result at reset temperature t: the value's repr tells every float apart, and the point's
    # bytes, as hex, cannot spell "-0.0" by chance as an array's repr can
    res = optimize.optimize_povm_net_work(RESET_PARAMS, DriveSpec(0.8), t_c=t)
    return res.best_value, res.best_point.tobytes().hex(), res.evaluations, res.converged


# Every entry point that takes a reset temperature, as a function of it (None for the default), and whether it
# also rejects 0.
RESET_ENTRY_POINTS = {
    "run_povm_cycle": (lambda t: engine.run_povm_cycle(
        RESET_PARAMS, DriveSpec(0.8), engine.PovmSpec(joint_unitary=analytic.optimal_dilation_unitary()),
        reset_temperature=t), False),
    "optimize_povm_net_work": (_net_optimum, False),
    "povm_net_work_optimum": (lambda t: analytic.povm_net_work_optimum(RESET_PARAMS, DriveSpec(0.8), t), False),
    "aux_cost_record": (lambda t: analytic.aux_cost_record(RESET_PARAMS, t), True),
    "cycle": (_cli_rows("cycle", "--engine", "povm", "--v0", "--p", "0.8", *RESET_FLAGS), False),
    "fig3": (_cli_rows("fig3", "--panel", "b", "--beta-c", "0.8", "--grid-points", "5"), False),
    "optimize-povm": (_cli_rows("optimize-povm", "--net", "--p", "0.8", *RESET_FLAGS), False),
}


@pytest.mark.parametrize("name", RESET_ENTRY_POINTS)
def test_one_reset_temperature_rule(name):
    # every entry point defaults to 1/beta_c, rejects what is not finite and >= 0, and takes -0 as 0;
    # repr tells every float apart, -0.0 from 0.0 included
    run, positive = RESET_ENTRY_POINTS[name]
    assert repr(run(None)) == repr(run(1.0 / RESET_PARAMS.beta_c))
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match=f"t_c must be finite and nonnegative, got {bad}"):
            run(bad)
    if positive:
        for zero in (0.0, -0.0):
            with pytest.raises(ValueError, match="t_c must be positive, got 0.0"):
                run(zero)
    else:
        assert repr(run(-0.0)) == repr(run(0.0))
        assert "-0.0" not in repr(run(-0.0))


def test_fig3_net_column_is_the_net_optimizer():
    # each w_net_max equals optimize_povm_net_work's value at that row's drive, bit for bit, on either branch
    rng = np.random.default_rng(17)
    winners = set()
    for _ in range(6):
        panel = str(rng.choice(["a", "b"]))
        beta_c = float(rng.uniform(0.3, 3.0))
        for t_c in (None, 0.0, float(rng.uniform(0.0, 3.0))):
            flags = () if t_c is None else (f"--t-c={t_c!r}",)
            rows = report("fig3", "--panel", panel, "--beta-c", repr(beta_c), "--grid-points", "9", *flags).rows
            omega_x, omega_z = cli._PANELS[panel]
            params = EngineParams(omega_z=omega_z, omega_x=omega_x, beta_c=beta_c)
            for p, _, _, w_net, *_ in rows:
                net = optimize.optimize_povm_net_work(params, DriveSpec(p), t_c=t_c)
                assert w_net.hex() == net.best_value.hex()
                strokes = engine.strokes_i_ii(params, DriveSpec(p))
                rec, _ = optimize._dilation_candidates(strokes, params.reset_temperature(t_c), True)
                winners.add(int(optimize._net_winner(rec)))
    assert winners == {0, 1}


# sha256 of the --deterministic report of each command, each recorded before a
# change to the code behind it; every printed number, first-law residuals
# included, must keep its bytes.
GOLDEN = [
    # re-recorded when sin theta began to be taken as sin min(theta, pi - theta), which is 0 at the float pi: 6 of
    # 41 first-law residuals move at rounding (before: e5f33bccefb9d16e...)
    ("a5b8ddce9d70bce27615f2a70da0b760769d7883f89eabe302c6f07bac38af12",
     "fig2 --panel a --beta-c 0.7 --grid-points 41"),
    # re-recorded when sin theta began to be taken as sin min(theta, pi - theta), which is 0 at the float pi: 16 of
    # 101 first-law residuals move at rounding (before: 6a2bac4cd1509c06...)
    ("1b34d814e9d36694d3c57b2155a3381fd77e373c0d7b33a79d455fed7359c355",
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
    # re-recorded when eigenvectors lost their phase convention: 1 of 5 first-law residuals moves at rounding
    # (before: 43e189150d4409ae...)
    ("e2c129d95293592e73b6a62baea6c5d02dab25e9b8feaa6fcd4c10e754b75118",
     "fig3 --panel b --grid-points 5"),
    # the three optimize-povm reports re-recorded when the 15 k_* generator coefficients gave way to the effect
    # E_0 in Bloch form; best_value, evaluations and converged keep their bytes (before: b9ce8ab6dc7d44a4...,
    # 9e779f41cabe8d86... and a66d5f27a45ee85c...)
    ("e22e6893e125f533417d275f7475be3a9f771d89521db2fd759259a0ec4ac381",
     "optimize-povm --omega-x 5 --p 0.8"),
    ("6f5920edaa62f59f3269baebb7731dc01bae0185a4f4075b3d4eeeae50d6f3fa",
     "optimize-povm --omega-x 5 --p 0.8 --net --t-c 0.5"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: 9e30346322eac07f...)
    ("0cb41cfd947faaef87703197615b916eb502e3174741a6ec4327a02c17181755",
     "fig4 --grid-points 7 --format json"),
    ("dbe1954a18c7cb60ec335b2446df36972fbfc275038a76296bbe4448c9be31bd",
     "table1 --format csv"),
    # the w_pvm_max cells at p = 0.626372285923 and 0.837643327641 print ...725 and ...752, as analytic.pvm_optimal
    # does, since the projectors are built from the Bloch axis (before: b1fb23a734bc8175...); re-recorded when sin
    # theta began to be taken as sin min(theta, pi - theta), which is 0 at the float pi: 348 of 4100 first-law
    # residuals move at rounding (before: 530751b9d1f82362...)
    ("f2edaf2b54d561a0fd25787e78027bbcafe10d11d801eae55dd67d63da3cfaab",
     "fig2 --panel b --beta-c 0.9 --grid-points 4100"),
    # re-recorded when sin theta began to be taken as sin min(theta, pi - theta), which is 0 at the float pi: 11 of
    # 101 first-law residuals move at rounding (before: 72d167c6e9d9f02d...)
    ("8c4c895056cf07294f3a4d537eef3398019dc328cdfa25e1dfc70184f1136bb2",
     "fig2 --format text"),
    # re-recorded for the rank-one stroke-III kernel; residuals move at rounding (before: c0c98ea483385b7c...)
    ("fac00d69a27d0358c00cee92c985f755c906de1afa3fbd06f29a9e9eeb834bd0",
     "fig4 --grid-points 9 --format csv"),
    # re-recorded when eigenvectors lost their phase convention: 7 of 11 first-law residuals move at rounding
    # (before: 5dcb13aa674a8ecf...)
    ("32f1185840985814099fc18e913d71110bfb47784439332399bc4937ef1245a8",
     "fig3"),
    # re-recorded when eigenvectors lost their phase convention: 4 of 23 first-law residuals move at rounding
    # (before: 0c6da7d152d54026...)
    ("7c512f4944126320eda5c23f421b331e01eada4f4c057c0d3c69a84ebacdfed3",
     "fig3 --panel b --beta-c 3 --t-c 0.4 --grid-points 23 --format json"),
    ("1a0d815f9121b6e883b51efca8bf80a49e34c9dd0ceb1564c218a5d1887c5b60",
     "optimize-povm --omega-x 4 --p 0.6 --net --t-c 0"),
    # both cross GRID_SLICE; fig4's was recorded while grids still entered the kernel as lists of specs, and fig3's
    # re-recorded when the entropy began to normalize its probabilities: the zero-entropy candidate no longer pays a
    # reset for rounding noise, and 5 of 4100 w_net_max cells move in the 12th digit (before: cbae48111b94542b...)
    ("b34fd9478daff72be458a607d303f253220b0fe9cb82dbc4309c70fee661fc2f",
     "fig4 --grid-points 4100"),
    # fig3's re-recorded again when eigenvectors lost their phase convention: 1465 of 4100 first-law residuals move
    # at rounding, and the w_net_max cell at p = 0.512198097097 (0.68330317897259) now prints ...973, not ...972
    # (before: 7c82582f7ba5ad1a...)
    ("85f584cc0399424e6025593e93bb30c5e1a558b6410beb8a44e89abccbd410ca",
     "fig3 --grid-points 4100"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("digest,argv", GOLDEN, ids=[argv.split()[0] + str(i) for i, (_, argv) in enumerate(GOLDEN)])
    def test_report_bytes(self, capsys, digest, argv):
        code, out, _ = run_cli(capsys, *argv.split(), "--deterministic")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_coefficient_file_bytes(self, capsys, monkeypatch, tmp_path):
        # a --su4-file of 15 generator coefficients, read from the working directory so the path in the report's
        # metadata is fixed; recorded before --su4-file also read the unitary that --su4-out writes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k15.txt").write_text(
            "# generator coefficients, order: xx xy xz yx yy yz zx zy zz xI yI zI Ix Iy Iz\n"
            "0.3 -1.2 0.7 2.5 -0.4 0.05 -2.9 1.1 0.6\n-0.8 1.9 -3.1 0.25 -1.7 2.2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "cycle", "--engine", "povm", "--su4-file", "k15.txt", "--omega-x", "4",
                               "--p", "0.7", "--alpha", "0.6", "--theta", "0.4", "--phi", "2.1", "--t-c", "0.5",
                               "--deterministic")
        assert code == 0
        digest = "465925948a9a07f9e37f7de8e27b6a32b439cc93b83db8bde4cc373c77bbb592"
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
                assert records[-1].w_total.hex() == value.hex(), argv
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

    def test_every_option_is_read(self, capsys, monkeypatch):
        # main, running a command, reads every dest its subparser defines, so no flag is parsed and then ignored
        reads, parsed = set(), []

        class Logged(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parser = cli.build_parser()
        parse_args = parser.parse_args

        def parse_logged(argv):
            parsed.append(parse_args(argv, Logged()))
            reads.clear()  # argparse reads the namespace while it fills it in
            return parsed[-1]

        parser.parse_args = parse_logged
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        unread = {}
        for argv in (["cycle", "--engine", "povm", "--v0"], ["fig2", "--grid-points", "3"],
                     ["fig3", "--grid-points", "3"], ["fig4", "--grid-points", "3"], ["table1"],
                     ["optimize-povm", "--net"]):
            code, _, err = run_cli(capsys, *argv, "--deterministic")
            assert (code, err) == (0, "")
            unread[argv[0]] = set(vars(parsed[-1])) - reads - {"command", "func"}
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert unread == dict.fromkeys(commands, set())

    def test_import_builds_no_parser(self):
        probe = "import qotto.cli as c; print(c._parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "0"

    def test_commands_load_no_scipy_optimize(self):
        # scipy.optimize costs most of a cold import, and only the basis search's polish uses it
        commands = [
            ["fig2"], ["fig3", "--grid-points", "3"], ["fig4"], ["table1"],
            ["cycle", "--engine", "conventional", "--beta-h", "0.2"],
            ["cycle", "--engine", "pvm", "--theta", "1.0"],
            ["cycle", "--engine", "povm", "--v0"],
            ["optimize-povm"], ["optimize-povm", "--net"],
        ]
        probe = f"""
import contextlib, io, json, sys
import qotto, qotto.cli

def loaded():
    return [m for m in sys.modules if m == "scipy.optimize" or m.startswith("scipy.optimize.")]

steps = {{"import": ("scipy" in sys.modules, loaded())}}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qotto.cli.main(argv + ["--deterministic"]) for argv in {commands!r}]
steps["commands"] = (codes, loaded())
qotto.optimize_pvm_basis(qotto.EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0), qotto.DriveSpec(p=0.8), grid_size=4)
steps["basis search"] = "scipy.optimize" in sys.modules
print(json.dumps(steps))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        steps = json.loads(out.stdout)
        assert steps["import"] == [True, []]
        assert steps["commands"] == [[0] * len(commands), []]
        assert steps["basis search"] is True
