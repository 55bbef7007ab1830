import math

import numpy as np
import pytest

from qotto import analytic, engine, qmat
from qotto.engine import DriveSpec, EngineParams, MeasurementBasis, PovmSpec
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

# trimmed budget for tests that only exercise plumbing, not accuracy
FAST_CFG = OptimizerConfig(seed=7, global_iterations=400, restarts=3, local_max_evals=1500)


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
        assert res.best_value >= target - 1e-4
        assert res.best_value <= target + 1e-9

    def test_adiabatic_endpoint_52(self):
        res = optimize_povm_work(P52, DriveSpec(p=1.0))
        assert res.best_value == pytest.approx(1.5 * (1.0 + TANH1), abs=1e-4)

    def test_never_exceeds_ceiling(self):
        for p in (0.5, 0.8):
            res = optimize_povm_work(P32, DriveSpec(p=p), FAST_CFG)
            assert res.best_value <= analytic.povm_work_ceiling(P32, DriveSpec(p=p)) + 1e-9

    def test_dominates_projective_optimum(self):
        for p in (0.5, 0.75, 1.0):
            res = optimize_povm_work(P52, DriveSpec(p=p), FAST_CFG)
            assert res.best_value >= analytic.pvm_optimal(P52, p).work

    def test_feasible_and_reproducible(self):
        res = optimize_povm_work(P32, DriveSpec(p=0.9), FAST_CFG)
        povm = PovmSpec(joint_unitary=su4_from_point(res.best_point))
        again = engine.run_povm_cycle(P32, DriveSpec(p=0.9), povm).w_total
        assert again == pytest.approx(res.best_value, abs=1e-12)

    def test_deterministic(self):
        a = optimize_povm_work(P32, DriveSpec(p=0.8), FAST_CFG)
        b = optimize_povm_work(P32, DriveSpec(p=0.8), FAST_CFG)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.best_point.k, b.best_point.k)
        assert a.evaluations == b.evaluations
        assert a.converged == b.converged

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
        gross = optimize_povm_work(P32, DriveSpec(p=0.75), FAST_CFG)
        net = optimize_povm_net_work(P32, DriveSpec(p=0.75), cfg=FAST_CFG)
        assert net.best_value <= gross.best_value + 1e-9

    def test_zero_temperature_reset_is_free(self):
        gross = optimize_povm_work(P32, DriveSpec(p=1.0), FAST_CFG)
        net = optimize_povm_net_work(P32, DriveSpec(p=1.0), t_c=0.0, cfg=FAST_CFG)
        assert net.best_value == pytest.approx(gross.best_value, abs=1e-6)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            optimize_povm_net_work(P32, DriveSpec(p=1.0), t_c=-1.0)

    @pytest.mark.parametrize("t_c", [math.nan, math.inf])
    def test_rejects_non_finite_temperature(self, t_c):
        with pytest.raises(ValueError, match="t_c must be finite and nonnegative"):
            optimize_povm_net_work(P32, DriveSpec(p=1.0), t_c=t_c)
