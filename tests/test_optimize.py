import math

import numpy as np
import pytest

from qotto import analytic, engine, qmat
from qotto.engine import DriveSpec, EngineParams, MeasurementBasis, PovmSpec
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


class TestPovmWorkOptimizer:
    def test_adiabatic_endpoint_32(self):
        res = optimize_povm_work(P32, DriveSpec(p=1.0))
        target = analytic.povm_adiabatic_optimal(P32).work
        assert res.best_value == pytest.approx(target, abs=1e-12)

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
        res = optimize_povm_work(P32, DriveSpec(p=0.9), SEEDED_CFG)
        povm = PovmSpec(joint_unitary=su4_from_point(res.best_point))
        again = engine.run_povm_cycle(P32, DriveSpec(p=0.9), povm).w_total
        assert again == pytest.approx(res.best_value, abs=1e-12)

    def test_deterministic(self):
        a = optimize_povm_work(P32, DriveSpec(p=0.8), SEEDED_CFG)
        b = optimize_povm_work(P32, DriveSpec(p=0.8), SEEDED_CFG)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.best_point.k, b.best_point.k)
        assert a.evaluations == b.evaluations
        assert a.converged == b.converged

    def test_config_has_no_effect(self):
        for run in (optimize_povm_work, optimize_povm_net_work):
            a = run(P52, DriveSpec(p=0.7))
            b = run(P52, DriveSpec(p=0.7), cfg=SEEDED_CFG)
            assert a.best_value == b.best_value
            np.testing.assert_array_equal(a.best_point.k, b.best_point.k)

    def test_rejects_phase(self):
        with pytest.raises(ValueError):
            optimize_povm_work(P32, DriveSpec(p=1.0, alpha=0.4))


class TestPovmNetOptimizer:
    def test_net_bounds_at_adiabatic_endpoint(self):
        res = optimize_povm_net_work(P32, DriveSpec(p=1.0))
        gross = analytic.povm_adiabatic_optimal(P32).work
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


def haar_unitary(rng, n=4):
    # QR of a complex Ginibre matrix, with R's diagonal phases moved into Q
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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
    cost = t_c * math.log(2.0) * analytic.binary_entropy_bits(0.5 * (1.0 + tz))
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
        for params, p, t_c, _ in PROPERTY_POINTS:
            drive = DriveSpec(p=p)
            candidates = optimize._optimal_dilations(engine.strokes_i_ii(params, drive))
            points = [optimize._su4_point(v) for v in candidates]
            for v, point in zip(candidates, points):
                u = su4_from_point(point)
                phase = (u @ v.conj().T)[0, 0]  # u is v times a global phase
                np.testing.assert_allclose(u, phase * v, atol=1e-12)
                assert abs(abs(phase) - 1.0) < 1e-12
                assert abs(np.linalg.det(u) - 1.0) < 1e-12
            gross = optimize_povm_work(params, drive)
            net = optimize_povm_net_work(params, drive, t_c=t_c)
            np.testing.assert_array_equal(gross.best_point.k, points[0].k)
            assert any(np.array_equal(net.best_point.k, pt.k) for pt in points)

    def test_result_metadata(self):
        gross = optimize_povm_work(P52, DriveSpec(p=0.8))
        net = optimize_povm_net_work(P52, DriveSpec(p=0.8))
        assert (gross.evaluations, gross.converged) == (1, True)
        assert (net.evaluations, net.converged) == (2, True)
