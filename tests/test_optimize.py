import math

import numpy as np
import pytest

from qotto import analytic, cli, engine, qmat
from qotto.engine import TWO_PI, DriveSpec, EngineParams, MeasurementBasis, PovmSpec
from qotto import optimize
from qotto.optimize import (
    SU4_GENERATOR_LABELS,
    OptimizerConfig,
    Su4Point,
    optimize_povm_net_work,
    optimize_povm_work,
    optimize_pvm_basis,
    su4_from_point,
)
from helpers import bloch_vector, chart_basis, haar_unitary, pvm_exact_optimum

P32 = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0)
P52 = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0)
TANH1 = math.tanh(1.0)

# the dilation optimizers take a config only for existing callers; it changes nothing
SEEDED_CFG = OptimizerConfig(seed=7)


class TestGenerators:
    def test_frozen_ordering(self):
        assert SU4_GENERATOR_LABELS == (
            "xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz",
            "xI", "yI", "zI", "Ix", "Iy", "Iz",
        )
        sx, sy, sz, i2 = qmat.SIGMA_X, qmat.SIGMA_Y, qmat.SIGMA_Z, qmat.ID2
        explicit = np.stack([
            np.kron(sx, sx), np.kron(sx, sy), np.kron(sx, sz),
            np.kron(sy, sx), np.kron(sy, sy), np.kron(sy, sz),
            np.kron(sz, sx), np.kron(sz, sy), np.kron(sz, sz),
            np.kron(sx, i2), np.kron(sy, i2), np.kron(sz, i2),
            np.kron(i2, sx), np.kron(i2, sy), np.kron(i2, sz),
        ])
        assert np.array_equal(optimize._GENERATOR_STACK, explicit)
        # exp(i (pi/2) G_j) = i G_j for every Pauli product G_j, so the unit
        # point along coefficient j exposes the generator behind label j
        factor = {"x": qmat.SIGMA_X, "y": qmat.SIGMA_Y, "z": qmat.SIGMA_Z, "I": qmat.ID2}
        for j, label in enumerate(SU4_GENERATOR_LABELS):
            k = np.zeros(15)
            k[j] = 0.5 * math.pi
            generator = np.kron(factor[label[0]], factor[label[1]])
            np.testing.assert_allclose(
                su4_from_point(Su4Point(k)), 1j * generator, atol=1e-12, err_msg=label
            )

    def test_zero_point_is_identity(self):
        np.testing.assert_allclose(su4_from_point(Su4Point(np.zeros(15))), qmat.ID4, atol=1e-14)

    def test_single_generator_rotation(self):
        k = np.zeros(15)
        k[12] = 0.5 * math.pi  # I (x) sigma_x
        np.testing.assert_allclose(
            su4_from_point(Su4Point(k)), 1j * np.kron(qmat.ID2, qmat.SIGMA_X), atol=1e-12
        )

    def test_outputs_unitary(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            u = su4_from_point(Su4Point(rng.uniform(-math.pi, math.pi, 15)))
            np.testing.assert_allclose(u.conj().T @ u, qmat.ID4, atol=1e-10)

    def test_matches_the_tensordot_form(self):
        # the generator combination as one matrix product gives the tensordot form's unitary bit for bit,
        # so unitaries read from coefficient files (cycle --su4-file) keep their values
        rng = np.random.default_rng(44)
        for scale in (0.01, 1.0, math.pi, 50.0):
            for _ in range(250):
                point = Su4Point(rng.uniform(-scale, scale, 15))
                want = qmat._exp_i(np.tensordot(point.k, optimize._GENERATOR_STACK, axes=1))
                got = su4_from_point(point)
                assert got.shape == (4, 4)
                np.testing.assert_array_equal(got.view(float), want.view(float))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            Su4Point(np.zeros(14))
        with pytest.raises(ValueError):
            Su4Point(np.full(15, np.nan))

    def test_points_compare_by_identity(self):
        a = Su4Point(np.zeros(15))
        b = Su4Point(np.zeros(15))
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2


class TestPvmBasisOptimizer:
    def test_adiabatic_reference(self):
        res = optimize_pvm_basis(P32, DriveSpec(p=1.0))
        assert res.best_value == pytest.approx(0.5 * TANH1, abs=1e-8)
        assert res.best_point.theta_x == pytest.approx(math.pi / 2.0, abs=1e-4)

    @pytest.mark.parametrize("p,expected", [
        (0.875, 0.4283967127251177),
        (0.5, 0.30569461712017465),
    ])
    def test_nonadiabatic_reference(self, p, expected):
        res = optimize_pvm_basis(P32, DriveSpec(p=p))
        assert res.best_value == pytest.approx(expected, abs=1e-8)
        assert res.best_value == pytest.approx(analytic.pvm_optimal(P32, p).work, abs=1e-8)

    def test_reported_value_reproducible(self):
        res = optimize_pvm_basis(P32, DriveSpec(p=0.7))
        again = engine.run_pvm_cycle(P32, DriveSpec(p=0.7), res.best_point).w_total
        assert again == res.best_value

    def test_deterministic(self):
        a = optimize_pvm_basis(P32, DriveSpec(p=0.8))
        b = optimize_pvm_basis(P32, DriveSpec(p=0.8))
        assert a.best_value == b.best_value
        assert a.best_point == b.best_point
        assert a.evaluations == b.evaluations

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            optimize_pvm_basis(P32, DriveSpec(p=1.0), grid_size=1)
        for bad in (2.5, "8"):
            with pytest.raises(ValueError, match="grid_size"):
                optimize_pvm_basis(P32, DriveSpec(p=1.0), grid_size=bad)

    def test_block_size_changes_no_result(self, monkeypatch):
        # a scan in blocks of one theta-row each (GRID_SLICE 4) and one at the default block size pick the same grid
        # point, so the polish and its result agree bit for bit, at p = 1/2, 1 (phi-degenerate ties) and inside, and
        # inside with gaps near 1e+200 and 1e-200 (beta_c scaled inversely); at beta_c = 1e-300 rho1 is I/2 to
        # rounding, every basis does the same work, and the maximum ties exactly between theta-rows, so the first
        # maximum and the strict between-block comparison decide the start of the polish; at grid 30 the default
        # scan is one block
        rng = np.random.default_rng(28)
        cases = []
        for p, scale in ((0.5, 1.0), (1.0, 1.0), (None, 1.0), (None, 1e200), (None, 1e-200)):
            omega_z = rng.uniform(1.0, 3.0)
            params = EngineParams(omega_z * scale, 2.0 * omega_z * scale, rng.uniform(0.2, 3.0) / scale)
            drive = DriveSpec(rng.uniform(0.5, 1.0) if p is None else p, rng.uniform(0.0, TWO_PI))
            cases += [(params, drive, g) for g in (2, 7, 30, 64, 100)]
        for p in (1.0, None):
            omega_z = rng.uniform(1.0, 3.0)
            drive = DriveSpec(rng.uniform(0.5, 1.0) if p is None else p, rng.uniform(0.0, TWO_PI))
            cases += [(EngineParams(omega_z, 2.0 * omega_z, 1e-300), drive, g) for g in (7, 8, 30, 64, 100)]

        def summary(res):
            b = res.best_point
            return res.best_value.hex(), b.theta_x.hex(), b.phi_x.hex(), res.evaluations, res.converged

        default = [summary(optimize_pvm_basis(*case[:2], grid_size=case[2])) for case in cases]
        monkeypatch.setattr(engine, "GRID_SLICE", 4)
        assert [summary(optimize_pvm_basis(*case[:2], grid_size=case[2])) for case in cases] == default

    def test_matches_the_exact_optimum(self):
        # the search against the re-simulated top eigenvector of the 3x3 quadratic form, at seeded points with any
        # drive phase, p at 1/2, 1 or inside, and every fourth (one of each p) at a gap ratio of exactly 2, on even
        # grids and on odd ones, whose half scan visits bases the full grid did not
        rng = np.random.default_rng(26)
        for k in range(12):
            omega_z = rng.uniform(1.0, 3.0)
            gamma = 2.0 if k % 4 == 0 else rng.uniform(1.1, 4.0)
            params = EngineParams(omega_z, gamma * omega_z, math.exp(rng.uniform(math.log(0.1), math.log(5.0))))
            drive = DriveSpec((0.5, 1.0, rng.uniform(0.5, 1.0))[k % 3], rng.uniform(0.0, TWO_PI))
            exact = engine.run_pvm_cycle(params, drive, pvm_exact_optimum(params, drive)).w_total
            for g in (2, 3, 7, 8, 64, 256):
                assert optimize_pvm_basis(params, drive, grid_size=g).best_value == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("g", [2, 4, 8, 64, 256])
    def test_lower_rows_repeat_the_upper_ones(self, g):
        # on an even grid, (theta[g-1-i], phi[j + g/2]) is the basis at (theta[i], phi[j]) with its outcomes swapped
        thetas = np.linspace(0.0, math.pi, g)
        phis = np.linspace(0.0, TWO_PI, g, endpoint=False)
        upper = engine.basis_projectors(thetas[:, None], phis)
        lower = engine.basis_projectors(thetas[::-1, None], np.roll(phis, -(g // 2)))
        np.testing.assert_allclose(lower, upper[..., ::-1, :, :], rtol=0.0, atol=8 * np.finfo(float).eps)

    def test_half_scan_keeps_the_grid_maximum(self):
        # on an even grid the rows with theta <= pi/2 reach the maximum work of the whole grid, up to rounding
        rng = np.random.default_rng(29)
        for k in range(10):
            omega_z = rng.uniform(1.0, 3.0)
            params = EngineParams(omega_z, rng.uniform(1.1, 4.0) * omega_z, rng.uniform(0.2, 3.0))
            drive = DriveSpec((0.5, 1.0, rng.uniform(0.5, 1.0))[k % 3], rng.uniform(0.0, TWO_PI))
            strokes = engine.strokes_i_ii(params, drive)
            for g in (2, 4, 8, 64, 256):
                thetas = np.linspace(0.0, math.pi, g)
                phis = np.linspace(0.0, TWO_PI, g, endpoint=False)
                grid = strokes.work(engine._measure(strokes.rho1, engine.basis_projectors(thetas[:, None], phis)))
                assert abs(grid[: g // 2].max() - grid.max()) <= 8 * np.finfo(float).eps * params.omega_x

    @pytest.mark.parametrize("g", [2, 3, 7, 8, 51, 64, 65])
    def test_scans_the_rows_up_to_the_equator(self, g, monkeypatch):
        # the scanned theta-rows are the first ceil(g/2) of the grid, an odd grid's last one its middle row at
        # pi/2 (linspace puts it one ulp above at g = 51); evaluations counts their points, the polish and the
        # final cycle, each of which builds one pair of projectors
        rows, single = [], 0
        projectors = engine.basis_projectors

        def recording(theta, phi):
            nonlocal single
            if np.ndim(theta) == 2:
                rows.extend(theta[:, 0])
            else:
                single += 1
            return projectors(theta, phi)

        monkeypatch.setattr(engine, "basis_projectors", recording)
        res = optimize_pvm_basis(P32, DriveSpec(p=0.8, alpha=1.0), grid_size=g)
        assert rows == np.linspace(0.0, math.pi, g)[: (g + 1) // 2].tolist()
        if g % 2:
            assert abs(rows[-1] - math.pi / 2.0) <= math.ulp(math.pi / 2.0)
        assert res.evaluations == len(rows) * g + single

    @pytest.mark.parametrize("n", [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.6, -0.48, 0.64), (-0.28, 0.0, -0.96)])
    def test_chart_round_trip(self, n):
        # a Bloch axis, the poles among them, through the chart and back out of the basis's first projector
        basis = chart_basis(np.array(n))
        np.testing.assert_allclose(bloch_vector(basis.projectors()[0]), n, rtol=0.0, atol=1e-15)
        th, ph = basis.theta_x, basis.phi_x
        np.testing.assert_allclose(n, (math.cos(th), -math.sin(th) * math.sin(ph), math.sin(th) * math.cos(ph)),
                                   rtol=0.0, atol=1e-15)


class TestPovmWorkOptimizer:
    def test_adiabatic_endpoint_32(self):
        res = optimize_povm_work(P32, DriveSpec(p=1.0))
        assert res.best_value == pytest.approx(0.5 * (3.0 - 2.0) * (1.0 + TANH1), abs=1e-12)

    def test_adiabatic_endpoint_52(self):
        res = optimize_povm_work(P52, DriveSpec(p=1.0))
        assert res.best_value == pytest.approx(1.5 * (1.0 + TANH1), abs=1e-12)

    def test_never_exceeds_ceiling(self):
        for p in (0.5, 0.8):
            res = optimize_povm_work(P32, DriveSpec(p=p), SEEDED_CFG)
            assert res.best_value <= analytic.povm_work_ceiling(P32, DriveSpec(p=p)) + 1e-9

    def test_dominates_projective_optimum(self):
        for p in (0.5, 0.75, 1.0):
            res = optimize_povm_work(P52, DriveSpec(p=p), SEEDED_CFG)
            assert res.best_value >= analytic.pvm_optimal(P52, p).work

    def test_feasible_and_reproducible(self):
        """Re-simulating the returned point reproduces the value bit for bit, gross and net.

        The value is the simulated cycle at the built unitary, and the point
        is that unitary, read-only.
        """
        rng = np.random.default_rng(44)
        cases = [(P32, DriveSpec(p=0.9), 1.0)]
        for _ in range(40):
            wz = rng.uniform(0.2, 4.0)
            beta_c = math.exp(rng.uniform(math.log(0.05), math.log(1e3)))
            params = EngineParams(wz, wz * rng.uniform(1.05, 4.0), beta_c)
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            cases.append((params, drive, rng.uniform(0.0, 3.0)))
        for params, drive, t_c in cases:
            gross = optimize_povm_work(params, drive, SEEDED_CFG)
            net = optimize_povm_net_work(params, drive, t_c=t_c, cfg=SEEDED_CFG)
            for res, value in ((gross, "w_total"), (net, "net_work")):
                assert res.best_point.shape == (4, 4) and not res.best_point.flags.writeable
                povm = PovmSpec(joint_unitary=res.best_point)
                again = engine.run_povm_cycle(params, drive, povm, reset_temperature=t_c)
                assert getattr(again, value).hex() == res.best_value.hex()

    def test_deterministic(self):
        a = optimize_povm_work(P32, DriveSpec(p=0.8), SEEDED_CFG)
        b = optimize_povm_work(P32, DriveSpec(p=0.8), SEEDED_CFG)
        assert a.best_value == b.best_value
        assert a.best_point.tobytes() == b.best_point.tobytes()
        assert a.evaluations == b.evaluations
        assert a.converged == b.converged

    def test_config_has_no_effect(self):
        for run in (optimize_povm_work, optimize_povm_net_work):
            a = run(P52, DriveSpec(p=0.7))
            b = run(P52, DriveSpec(p=0.7), cfg=SEEDED_CFG)
            assert a.best_value == b.best_value
            assert a.best_point.tobytes() == b.best_point.tobytes()

    def test_any_drive_phase(self):
        # the construction never assumed alpha = 0: both optima reach their closed forms at any phase
        rng = np.random.default_rng(41)
        for params in (P32, P52, EngineParams(omega_z=1.0, omega_x=2.5, beta_c=3.0)):
            for _ in range(10):
                drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
                t_c = rng.uniform(0.0, 2.0)
                gross = optimize_povm_work(params, drive)
                net = optimize_povm_net_work(params, drive, t_c=t_c)
                assert gross.best_value == pytest.approx(analytic.povm_work_ceiling(params, drive), abs=1e-10)
                assert net.best_value == pytest.approx(analytic.povm_net_work_optimum(params, drive, t_c), abs=1e-10)


class TestPovmNetOptimizer:
    def test_net_bounds_at_adiabatic_endpoint(self):
        res = optimize_povm_net_work(P32, DriveSpec(p=1.0))
        gross = 0.5 * (3.0 - 2.0) * (1.0 + TANH1)
        assert res.best_value >= gross - math.log(2.0) - 1e-9
        assert res.best_value >= analytic.aux_cost_record(P32, 1.0).net_work_v0 - 1e-9

    def test_net_below_gross(self):
        gross = optimize_povm_work(P32, DriveSpec(p=0.75), SEEDED_CFG)
        net = optimize_povm_net_work(P32, DriveSpec(p=0.75), cfg=SEEDED_CFG)
        assert net.best_value <= gross.best_value + 1e-9

    def test_zero_temperature_reset_is_free(self):
        gross = optimize_povm_work(P32, DriveSpec(p=1.0), SEEDED_CFG)
        net = optimize_povm_net_work(P32, DriveSpec(p=1.0), t_c=0.0, cfg=SEEDED_CFG)
        assert net.best_value == pytest.approx(gross.best_value, abs=1e-6)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            optimize_povm_net_work(P32, DriveSpec(p=1.0), t_c=-1.0)

    @pytest.mark.parametrize("t_c", [math.nan, math.inf])
    def test_rejects_non_finite_temperature(self, t_c):
        with pytest.raises(ValueError, match="t_c must be finite and nonnegative"):
            optimize_povm_net_work(P32, DriveSpec(p=1.0), t_c=t_c)


# (params, p, t_c, net branch): p = 1/2, p = 1, a gap ratio of exactly 2, a
# free reset, and each net branch
PROPERTY_POINTS = (
    (P32, 0.5, 1.0, "gross"),
    (P52, 1.0, 1.0, "zero"),
    (EngineParams(omega_z=2.0, omega_x=4.0, beta_c=0.7), 0.8, 1.0 / 0.7, "zero"),
    (EngineParams(omega_z=1.0, omega_x=2.5, beta_c=2.0), 0.65, 0.0, "gross"),
    (P32, 1.0, 1.0, "zero"),
    (P32, 1.0, 0.1, "gross"),
)


def net_branch(params, drive, t_c):
    # which candidate the net optimum takes, by the closed form
    tz = params.tau_z
    d = analytic.discriminant(params, drive.p)
    q = 0.5 * (1.0 + tz)
    cost = t_c * math.log(2.0) * -sum(x * math.log2(x) for x in (q, 1.0 - q) if x > 0.0)  # t_c ln2 H2(q)
    return "gross" if 0.5 * d - cost >= 0.5 * tz * d else "zero"


class TestClosedFormDilations:
    def test_cold_band_regression(self):
        # the annealer stopped 2.8e-5 (gross) and 2.5e-4 (net) short here
        params, drive, t_c = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=4.0), DriveSpec(p=0.9), 0.25
        gross = optimize_povm_work(params, drive)
        net = optimize_povm_net_work(params, drive, t_c=t_c)
        assert gross.best_value == pytest.approx(analytic.povm_work_ceiling(params, drive), abs=1e-12)
        assert net.best_value == pytest.approx(
            analytic.povm_net_work_optimum(params, drive, t_c), abs=1e-12
        )

    @pytest.mark.parametrize("index", range(len(PROPERTY_POINTS)))
    def test_haar_random_unitaries_never_beat_the_optima(self, index):
        params, p, t_c, branch = PROPERTY_POINTS[index]
        drive = DriveSpec(p=p)
        assert net_branch(params, drive, t_c) == branch
        gross = optimize_povm_work(params, drive).best_value
        net = optimize_povm_net_work(params, drive, t_c=t_c).best_value
        rng = np.random.default_rng([2024, index])
        for _ in range(200):
            povm = PovmSpec(joint_unitary=haar_unitary(rng))
            rec = engine.run_povm_cycle(params, drive, povm, reset_temperature=t_c)
            assert rec.w_total <= gross + 1e-12
            assert rec.net_work <= net + 1e-12

    def test_net_optimum_pays_no_reset_for_a_pure_auxiliary(self):
        # the zero-entropy candidate leaves the auxiliary pure, with outcome probabilities that rounding leaves
        # summing to 1 - 1e-15; it pays no reset, so even at the hottest resets, where it wins, the simulated net
        # optimum equals the closed form to rounding
        rng = np.random.default_rng(2323)
        for _ in range(400):
            wz = rng.uniform(0.2, 4.0)
            params = EngineParams(wz, wz * rng.uniform(1.05, 4.0), rng.uniform(0.1, 4.0))
            drive = DriveSpec(p=rng.uniform(0.5, 1.0))
            for t_c in (1e6, 1e300):
                res = optimize_povm_net_work(params, drive, t_c=t_c)
                exact = analytic.povm_net_work_optimum(params, drive, t_c)
                assert res.best_value == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_net_matches_closed_form_on_grid(self):
        branches = set()
        for params in (P32, P52, EngineParams(omega_z=2.0, omega_x=5.0, beta_c=4.0)):
            for p in np.linspace(0.5, 1.0, 6):
                drive = DriveSpec(p=float(p))
                for t_c in (0.0, 0.25, 1.0, 3.0):
                    res = optimize_povm_net_work(params, drive, t_c=t_c)
                    exact = analytic.povm_net_work_optimum(params, drive, t_c)
                    assert res.best_value == pytest.approx(exact, abs=1e-10)
                    branches.add(net_branch(params, drive, t_c))
        assert branches == {"gross", "zero"}

    def test_points_reproduce_their_unitaries(self):
        # each optimum's point is the candidate it valued, the one of its closed-form branch for net work
        for params, p, t_c, branch in PROPERTY_POINTS:
            drive = DriveSpec(p=p)
            candidates = optimize._optimal_dilations(engine.strokes_i_ii(params, drive))
            gross = optimize_povm_work(params, drive)
            net = optimize_povm_net_work(params, drive, t_c=t_c)
            np.testing.assert_array_equal(gross.best_point, candidates[0])
            np.testing.assert_array_equal(net.best_point, candidates[{"gross": 0, "zero": 1}[branch]])

    def test_result_metadata(self):
        gross = optimize_povm_work(P52, DriveSpec(p=0.8))
        net = optimize_povm_net_work(P52, DriveSpec(p=0.8))
        assert (gross.evaluations, gross.converged) == (1, True)
        assert (net.evaluations, net.converged) == (2, True)


class TestOneStrokesPass:
    def test_strokes_once_per_call(self, monkeypatch):
        calls = []
        strokes = engine.strokes_i_ii

        def counted(*args):
            calls.append(args)
            return strokes(*args)

        monkeypatch.setattr(engine, "strokes_i_ii", counted)
        optimize_povm_work(P52, DriveSpec(p=0.8))
        assert len(calls) == 1
        optimize_povm_net_work(P52, DriveSpec(p=0.8), t_c=0.3)
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", [2.0 * qmat.ID4, np.full((4, 4), np.nan)])
    def test_candidates_are_checked_unitary(self, monkeypatch, bad):
        def built(strokes, net=True):
            return np.stack([bad, bad]) if net else bad

        monkeypatch.setattr(optimize, "_optimal_dilations", built)
        for run in (optimize_povm_work, optimize_povm_net_work):
            with pytest.raises(ValueError, match="joint_unitary is not a finite unitary"):
                run(P52, DriveSpec(p=0.8))

    def test_points_only_for_the_winners(self, monkeypatch):
        # an optimizer call returns its winner's unitary as built: past the two eigen-solves that build the
        # candidates, of rho1 and of h2 - u h1 u^dag, it runs no linear algebra
        params, drive = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0), DriveSpec(p=0.8)
        engine.strokes_i_ii(params, drive)  # the specs' constants, computed on first use
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "inv", "solve"):
            run = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _run=run, _name=name: calls.append(_name) or _run(*a))
        optimize_povm_work(params, drive)
        assert calls == ["eigh", "eigh"]
        optimize_povm_net_work(params, drive, t_c=0.3)
        assert calls == ["eigh"] * 4

    def test_gross_call_builds_only_the_gross_candidate(self):
        strokes = engine.strokes_i_ii(P52, DriveSpec(p=0.8))
        gross = optimize._optimal_dilations(strokes, net=False)
        both = optimize._optimal_dilations(strokes, net=True)
        assert gross.shape == (4, 4) and both.shape == (2, 4, 4)
        assert gross.tobytes() == both[0].tobytes()


def scrambled_eigh(rng):
    # np.linalg.eigh with each returned eigenvector column multiplied by a phase drawn from rng
    eigh = np.linalg.eigh

    def run(a):
        vals, vecs = eigh(a)
        return vals, vecs * np.exp(1.0j * rng.uniform(0.0, TWO_PI, vecs.shape[:-2] + (1, vecs.shape[-1])))

    return run


def phase_probe(params, drive, t_c, aux, rho):
    # what a result may depend on: the gross and net best values and the net work of both net candidates, the
    # effect E_0 of both optima in optimize-povm's Bloch form, and the channel sum_K K rho K^dag of a spec with a
    # mixed auxiliary
    gross = optimize_povm_work(params, drive)
    net = optimize_povm_net_work(params, drive, t_c=t_c)
    candidates = optimize._dilation_candidates(engine.strokes_i_ii(params, drive), t_c, True)[0].net_work
    effects = []
    for result in (gross, net):
        k0 = PovmSpec(joint_unitary=result.best_point).kraus_operators()[0]
        effects.append(0.5 * np.einsum("jab,ba->j", cli._BLOCH_BASIS, k0.conj().T @ k0).real)
    channel = sum(k @ rho @ k.conj().T for k in aux.kraus_operators())
    return (gross.best_value, net.best_value, *candidates), gross.best_point, effects, channel


class TestEigenvectorPhases:
    def test_no_result_depends_on_an_eigenvector_phase(self, monkeypatch):
        # eigh's phases are LAPACK's; drawing them at random moves the optimal unitaries by a phase per
        # eigen-subspace, which cancels in every value, effect and channel
        rng = np.random.default_rng(2501)

        def density():
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return m @ m.conj().T / np.trace(m @ m.conj().T).real

        points = []
        for _ in range(500):
            wz = rng.uniform(0.5, 3.0)
            params = EngineParams(wz, wz * rng.uniform(1.1, 3.0), math.exp(rng.uniform(-6.0, 3.0)))
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, TWO_PI))
            aux = PovmSpec(haar_unitary(rng), density(), MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI)))
            points.append((params, drive, rng.uniform(0.0, 5.0), aux, density()))
        plain = [phase_probe(*x) for x in points]
        monkeypatch.setattr(np.linalg, "eigh", scrambled_eigh(np.random.default_rng(2502)))
        compared = moved = 0
        for x, (values, point, effects, channel) in zip(points, plain):
            s_values, s_point, s_effects, s_channel = phase_probe(*x)
            moved += not np.allclose(s_point, point, rtol=0.0, atol=1e-6)
            for a, b in zip(s_values, values):  # a small work rounds at the scale of the energies
                assert a == pytest.approx(b, rel=1e-13, abs=1e-13 * x[0].omega_x)
            np.testing.assert_allclose(s_effects[0], effects[0], rtol=0.0, atol=1e-12)
            # where the two net candidates tie to rounding, rounding picks the winner and its effect
            n0, n1 = values[2:]
            if abs(n1 - n0) > 1e-9 * max(abs(n0), abs(n1)):
                compared += 1
                np.testing.assert_allclose(s_effects[1], effects[1], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(s_channel, channel, rtol=0.0, atol=1e-12)
        assert moved > 400 and compared > 300  # the phases did move the unitaries, and most net effects compared
