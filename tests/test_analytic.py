import math

import numpy as np
import pytest

from qotto import analytic, engine, qmat
from qotto.analytic import (
    aux_cost_record,
    conventional_record,
    delta_w_pvm_conventional,
    intermediates,
    optimal_dilation_unitary,
    povm_adiabatic_optimal,
    povm_net_work_optimum,
    povm_work_ceiling,
    pvm_adiabatic_record,
    pvm_best_p,
    pvm_nonadiabatic_record,
    pvm_nonadiabatic_work,
    pvm_optimal,
    rearrangement_energy_bound,
    reset_crossing_temperature,
)
from qotto.engine import DriveSpec, EngineParams, MeasurementBasis, PovmSpec

P32 = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0)
P52 = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0)
TANH1 = math.tanh(1.0)


def records_close(a, b, tol=1e-10):
    for name in ("e0", "e1", "e2", "e3", "w1", "w2", "w_total", "q_c", "q_h"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=tol), name
    if a.eta is None or b.eta is None:
        assert a.eta == b.eta
    else:
        assert a.eta == pytest.approx(b.eta, abs=tol)


class TestConventionalRecord:
    def test_adiabatic_example(self):
        params = EngineParams(2.0, 3.0, 1.0, beta_h=0.2)
        rec = conventional_record(params, 1.0)
        assert rec.w_total == pytest.approx(0.5 * (TANH1 - math.tanh(0.3)), abs=1e-14)
        assert rec.q_h == pytest.approx(1.5 * (TANH1 - math.tanh(0.3)), abs=1e-14)
        assert rec.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_infinite_hot_bath(self):
        params = EngineParams(2.0, 3.0, 1.0, beta_h=0.0)
        assert conventional_record(params, 1.0).w_total == pytest.approx(0.5 * TANH1, abs=1e-14)

    def test_carnot_boundary_yields_no_work(self):
        # beta_h tuned to beta_c omega_z / omega_x is the engine threshold
        params = EngineParams(2.0, 3.0, 1.0, beta_h=2.0 / 3.0)
        for p in (0.5, 0.75, 1.0):
            assert conventional_record(params, p).w_total <= 1e-14

    def test_requires_beta_h(self):
        with pytest.raises(ValueError):
            conventional_record(P32, 1.0)


class TestPvmRecords:
    def test_adiabatic_formulas(self):
        rec = pvm_adiabatic_record(P32, math.pi / 2.0)
        assert rec.w_total == pytest.approx(0.5 * TANH1, abs=1e-14)
        assert rec.q_h == pytest.approx(1.5 * TANH1, abs=1e-14)
        assert rec.q_c == pytest.approx(-TANH1, abs=1e-14)
        assert rec.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_adiabatic_first_law_identity(self):
        for theta in np.linspace(0.0, math.pi, 17):
            rec = pvm_adiabatic_record(P32, float(theta))
            assert rec.first_law_residual <= 1e-14

    def test_nonadiabatic_reduces_to_adiabatic(self):
        for theta in np.linspace(0.0, math.pi, 9):
            basis = MeasurementBasis(float(theta), 0.0)
            w_na = pvm_nonadiabatic_work(P32, DriveSpec(p=1.0, alpha=0.0), basis)
            w_ad = pvm_adiabatic_record(P32, float(theta)).w_total
            assert w_na == pytest.approx(w_ad, abs=1e-12)

    def test_pole_basis_never_an_engine(self):
        # at theta = 0 the work is -2 wz tz p(1-p) <= 0
        for p in (0.5, 0.6, 0.8, 1.0):
            w = pvm_nonadiabatic_work(P32, DriveSpec(p=p), MeasurementBasis(0.0))
            assert w == pytest.approx(-2.0 * 2.0 * TANH1 * p * (1.0 - p), abs=1e-12)
            assert w <= 1e-12

    def test_intermediates_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0, 2 * math.pi))
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            mid = intermediates(P32, drive, basis)
            assert 2.0 * mid.big_b - 1.0 == pytest.approx(math.cos(basis.theta_x), abs=1e-12)
            assert 2.0 * mid.big_a - 1.0 == pytest.approx(mid.mu, abs=1e-12)
            for val in (mid.big_a, mid.big_b):
                assert -1e-12 <= val <= 1.0 + 1e-12
            # the reversed stroke-IV drive sees the overlap big_a again:
            # the simulated e3 is -(wz/2) tz (2 big_a - 1)^2
            e3 = engine.run_pvm_cycle(P32, drive, basis).e3
            assert e3 == pytest.approx(-TANH1 * (2.0 * mid.big_a - 1.0) ** 2, abs=1e-10)


class TestSimulatorEquivalence:
    def test_conventional_grid(self):
        rng = np.random.default_rng(21)
        for _ in range(250):
            wz = rng.uniform(0.5, 3.0)
            params = EngineParams(wz, wz * rng.uniform(1.05, 3.0), rng.uniform(0.1, 4.0),
                                  beta_h=None)
            params = EngineParams(params.omega_z, params.omega_x, params.beta_c,
                                  beta_h=rng.uniform(0.0, 0.9 * params.beta_c))
            p = rng.uniform(0.5, 1.0)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            sim = engine.run_conventional_cycle(params, DriveSpec(p=p, alpha=alpha))
            records_close(conventional_record(params, p), sim)

    def test_pvm_grid(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            wz = rng.uniform(0.5, 3.0)
            params = EngineParams(wz, wz * rng.uniform(1.05, 3.0), rng.uniform(0.1, 4.0))
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            sim = engine.run_pvm_cycle(params, drive, basis)
            records_close(pvm_nonadiabatic_record(params, drive, basis), sim)

    def test_structured_grid(self):
        # 5x5x5x5 sweep over (gap ratio, beta_c, p, theta)
        for gamma in (1.2, 1.5, 2.0, 2.5, 3.5):
            for beta_c in (0.2, 0.5, 1.0, 2.0, 4.0):
                params = EngineParams(2.0, 2.0 * gamma, beta_c)
                for p in (0.5, 0.65, 0.8, 0.95, 1.0):
                    drive = DriveSpec(p=p, alpha=0.9)
                    for theta in (0.0, 0.7, math.pi / 2.0, 2.2, math.pi):
                        basis = MeasurementBasis(theta, 0.3)
                        sim = engine.run_pvm_cycle(params, drive, basis)
                        ana = pvm_nonadiabatic_record(params, drive, basis)
                        assert ana.w_total == pytest.approx(sim.w_total, abs=1e-10)


class TestPvmOptimal:
    def test_adiabatic_endpoint(self):
        opt = pvm_optimal(P32, 1.0)
        assert opt.work == pytest.approx(0.5 * TANH1, abs=1e-14)
        assert opt.basis.theta_x == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert opt.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sudden_endpoint(self):
        opt = pvm_optimal(P32, 0.5)
        assert opt.work == pytest.approx(0.25 * TANH1 * (math.sqrt(13.0) - 2.0), abs=1e-13)
        assert opt.work == pytest.approx(0.30569461712017465, abs=1e-12)

    def test_interior_peak(self):
        opt = pvm_optimal(P32, 0.875)
        assert opt.work == pytest.approx(9.0 * TANH1 / 16.0, abs=1e-13)
        assert opt.eta == pytest.approx(0.5, abs=1e-12)
        assert opt.basis.theta_x == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_work_matches_dense_grid(self):
        # vectorized scan of the closed-form work surface as the oracle
        tz, wz, wx = TANH1, 2.0, 3.0
        for p in (0.5, 0.6, 0.75, 0.9, 1.0):
            a = 2.0 * p - 1.0
            b = 2.0 * math.sqrt(p * (1.0 - p))
            th, ph = np.meshgrid(
                np.linspace(0.0, math.pi, 1501),
                np.linspace(0.0, 2.0 * math.pi, 1501, endpoint=False),
                indexing="ij",
            )
            mu = a * np.cos(th) + b * np.sin(th) * np.cos(ph)
            grid = -(tz / 2.0) * (-a * wx + wz - wz * mu**2 + wx * mu * np.cos(th))
            opt = pvm_optimal(P32, p)
            assert grid.max() <= opt.work + 1e-12
            assert opt.work - grid.max() <= 5e-6

    def test_heat_matches_simulator(self):
        # the returned heat must track the simulator over the whole drive
        # range, not just at the endpoints where shortcut forms coincide
        for params in (P32, P52):
            for p in np.linspace(0.5, 1.0, 21):
                opt = pvm_optimal(params, float(p))
                sim = engine.run_pvm_cycle(params, DriveSpec(p=float(p)), opt.basis)
                assert opt.work == pytest.approx(sim.w_total, abs=1e-10)
                assert opt.heat == pytest.approx(sim.q_h, abs=1e-10)
                assert opt.eta == pytest.approx(sim.w_total / sim.q_h, abs=1e-10)

    def test_stationary_point(self):
        for p in (0.55, 0.7, 0.875, 0.95):
            opt = pvm_optimal(P32, p)
            drive = DriveSpec(p=p)

            def work(th, ph):
                return pvm_nonadiabatic_work(P32, drive, MeasurementBasis.wrapped(th, ph))

            h = 1e-5
            th0, ph0 = opt.basis.theta_x, opt.basis.phi_x
            grad_th = (work(th0 + h, ph0) - work(th0 - h, ph0)) / (2.0 * h)
            grad_ph = (work(th0, ph0 + h) - work(th0, ph0 - h)) / (2.0 * h)
            assert abs(grad_th) < 1e-6
            assert abs(grad_ph) < 1e-6

    def test_hessian_negative_definite(self):
        # strictly non-adiabatic drives: both curvatures negative, no mixing
        for p in (0.55, 0.7, 0.875, 0.95):
            opt = pvm_optimal(P32, p)
            drive = DriveSpec(p=p)

            def work(th, ph):
                return pvm_nonadiabatic_work(P32, drive, MeasurementBasis.wrapped(th, ph))

            h = 1e-5
            th0, ph0 = opt.basis.theta_x, opt.basis.phi_x
            f0 = work(th0, ph0)
            d2_th = (work(th0 + h, ph0) - 2.0 * f0 + work(th0 - h, ph0)) / h**2
            d2_ph = (work(th0, ph0 + h) - 2.0 * f0 + work(th0, ph0 - h)) / h**2
            d2_mix = (
                work(th0 + h, ph0 + h) - work(th0 + h, ph0 - h)
                - work(th0 - h, ph0 + h) + work(th0 - h, ph0 - h)
            ) / (4.0 * h**2)
            assert d2_th < 0.0
            assert d2_ph < 0.0
            assert abs(d2_mix) < 1e-4

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            pvm_optimal(P32, 0.3)


class TestPvmBestP:
    def test_interior_regime(self):
        best = pvm_best_p(P32)
        assert best.p_star == pytest.approx(0.875, abs=1e-14)
        assert best.work == pytest.approx(9.0 * TANH1 / 16.0, abs=1e-13)
        assert best.eta == pytest.approx(0.5)

    def test_adiabatic_regime(self):
        best = pvm_best_p(P52)
        assert best.p_star == 1.0
        assert best.work == pytest.approx(1.5 * TANH1, abs=1e-13)
        assert best.eta == pytest.approx(0.6, abs=1e-13)

    def test_boundary_ratio_is_continuous(self):
        params = EngineParams(2.0, 4.0, 1.0)  # gamma exactly 2
        best = pvm_best_p(params)
        assert best.p_star == 1.0
        assert best.work == pytest.approx(TANH1, abs=1e-13)
        # the interior-branch formula coincides there
        assert best.work == pytest.approx(16.0 * TANH1 / 16.0, abs=1e-13)

    def test_against_grid_search(self):
        for params in (P32, P52, EngineParams(1.0, 1.7, 0.7)):
            grid = np.linspace(0.5, 1.0, 2001)
            works = [pvm_optimal(params, float(p)).work for p in grid]
            best = pvm_best_p(params)
            i = int(np.argmax(works))
            assert abs(grid[i] - best.p_star) <= 2.5e-4 + 1e-12
            assert works[i] <= best.work + 1e-12
            assert best.work - works[i] <= 1e-7


class TestPovmOptimal:
    def test_closed_form_and_simulation(self):
        opt = povm_adiabatic_optimal(P32)
        assert opt.work == pytest.approx(0.5 * (1.0 + TANH1), abs=1e-14)
        rec = engine.run_povm_cycle(P32, DriveSpec(p=1.0), PovmSpec(joint_unitary=opt.v0))
        assert rec.w_total == pytest.approx(opt.work, abs=1e-10)

    def test_v0_is_the_stated_permutation(self):
        t = np.kron(qmat.HADAMARD, qmat.HADAMARD)
        in_x_basis = t @ optimal_dilation_unitary() @ t
        perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(in_x_basis, perm, atol=1e-12)

    def test_cold_limit(self):
        params = EngineParams(2.0, 3.0, 200.0)
        assert povm_adiabatic_optimal(params).work == pytest.approx(1.0, abs=1e-12)

    def test_rearrangement_attains_half_omega_x(self):
        rho0 = engine.thermal_state(engine.hamiltonian_h1(P32), 1.0)
        u = engine.drive_unitary(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        joint = np.kron(rho1, qmat.projector(qmat.KET_PLUS))
        h_joint = np.kron(engine.hamiltonian_h2(P32), qmat.ID2)
        assert rearrangement_energy_bound(h_joint, joint) == pytest.approx(1.5, abs=1e-12)


class TestWorkCeiling:
    def test_reduces_to_adiabatic_optimum(self):
        for params in (P32, P52):
            ceiling = povm_work_ceiling(params, DriveSpec(p=1.0))
            assert ceiling == pytest.approx(povm_adiabatic_optimal(params).work, abs=1e-13)

    def test_matches_rearrangement_construction(self):
        # independent route: pair eigenvectors of the effective observable
        # with those of the dilated state and simulate that unitary
        rng = np.random.default_rng(27)
        for _ in range(25):
            wz = rng.uniform(0.5, 3.0)
            params = EngineParams(wz, wz * rng.uniform(1.1, 3.0), rng.uniform(0.2, 3.0))
            p = rng.uniform(0.5, 1.0)
            drive = DriveSpec(p=p)
            h1 = engine.hamiltonian_h1(params)
            h2 = engine.hamiltonian_h2(params)
            rho0 = engine.thermal_state(h1, params.beta_c)
            u = engine.drive_unitary(drive)
            rho1 = u @ rho0 @ u.conj().T
            joint = np.kron(rho1, qmat.projector(qmat.KET_PLUS))
            effective = np.kron(h2 - u @ h1 @ u.conj().T, qmat.ID2)
            w1 = np.trace(h2 @ rho1).real - np.trace(h1 @ rho0).real
            bound = rearrangement_energy_bound(effective, joint) - w1
            assert povm_work_ceiling(params, drive) == pytest.approx(bound, abs=1e-10)
            _, mv = qmat.hermitian_eig(effective)
            _, rv = qmat.hermitian_eig(joint)
            pairing = mv @ rv.conj().T
            rec = engine.run_povm_cycle(params, drive, PovmSpec(joint_unitary=pairing))
            assert rec.w_total == pytest.approx(bound, abs=1e-9)

    def test_dominates_projective_optimum(self):
        for params in (P32, P52):
            for p in np.linspace(0.5, 1.0, 21):
                assert povm_work_ceiling(params, DriveSpec(p=float(p))) > pvm_optimal(
                    params, float(p)
                ).work


class TestRearrangementBound:
    def test_maximally_mixed(self):
        rng = np.random.default_rng(33)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (m + m.conj().T)
        assert rearrangement_energy_bound(h, qmat.ID4 / 4.0) == pytest.approx(
            np.trace(h).real / 4.0, abs=1e-12
        )

    def test_mixed_aux_non_inverted_regime(self):
        # q |psi><psi| + (1-q)|perp><perp| with (1-q) e^{v_z} > q e^{-v_z}:
        # the reachable measurement-stroke energy tops out at (wx/2) tanh(v_z)
        rng = np.random.default_rng(34)
        h_joint = np.kron(engine.hamiltonian_h2(P32), qmat.ID2)
        rho0 = engine.thermal_state(engine.hamiltonian_h1(P32), 1.0)
        u = engine.drive_unitary(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        q_cap = math.exp(2.0) / (1.0 + math.exp(2.0))
        for _ in range(20):
            q = rng.uniform(0.5, q_cap - 1e-3)
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket /= np.linalg.norm(ket)
            perp = np.array([-ket[1].conj(), ket[0].conj()])
            aux = q * np.outer(ket, ket.conj()) + (1.0 - q) * np.outer(perp, perp.conj())
            bound = rearrangement_energy_bound(h_joint, np.kron(rho1, aux))
            assert bound == pytest.approx(1.5 * TANH1, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rearrangement_energy_bound(qmat.SIGMA_Z, qmat.ID4 / 4.0)


class TestAuxCost:
    def test_reference_values(self):
        rec = aux_cost_record(P32, 1.0)
        p_hi = 0.5 * (1.0 + TANH1)
        entropy = -(p_hi * math.log2(p_hi) + (1.0 - p_hi) * math.log2(1.0 - p_hi))
        assert rec.min_cost == pytest.approx(math.log(2.0) * entropy, abs=1e-13)
        assert rec.min_cost == pytest.approx(0.36533385508720767, abs=1e-12)
        assert rec.net_work_v0 == pytest.approx(0.5154632228906748, abs=1e-12)
        assert rec.delta_w == pytest.approx(0.5, abs=1e-15)
        assert rec.max_cost == pytest.approx(math.log(2.0), abs=1e-15)

    def test_min_cost_matches_simulated_entropy(self):
        # oracle: entropy of the simulated post-measurement auxiliary
        for t_c in (0.4, 1.0, 2.5):
            params = EngineParams(2.0, 3.0, 1.0 / t_c)
            povm = PovmSpec(joint_unitary=optimal_dilation_unitary())
            rec = engine.run_povm_cycle(params, DriveSpec(p=1.0), povm)
            assert rec.aux_reset_cost == pytest.approx(
                aux_cost_record(params, t_c).min_cost, abs=1e-10
            )

    def test_temperature_bound(self):
        assert aux_cost_record(P52, 1.0).t_c_bound == pytest.approx(
            3.0 / (2.0 * math.log(2.0)), abs=1e-13
        )
        assert aux_cost_record(P52, 1.0).t_c_bound == pytest.approx(2.1640425613334453, abs=1e-12)

    def test_cold_limit(self):
        rec = aux_cost_record(P32, 1e-4)
        assert rec.min_cost < 1e-8
        assert rec.net_work_v0 == pytest.approx(1.0, abs=1e-8)

    def test_defaults_to_cold_bath(self):
        assert aux_cost_record(P32) == aux_cost_record(P32, 1.0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            aux_cost_record(P32, 0.0)

    @pytest.mark.parametrize("t_c", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_nonpositive_temperature(self, t_c):
        with pytest.raises(ValueError, match="t_c must be finite and positive"):
            aux_cost_record(P32, t_c)


class TestNetWorkOptimum:
    def test_free_reset_is_the_ceiling(self):
        for p in (0.5, 0.8, 1.0):
            drive = DriveSpec(p=p)
            assert povm_net_work_optimum(P52, drive, 0.0) == povm_work_ceiling(P52, drive)

    def test_defaults_to_cold_bath(self):
        drive = DriveSpec(p=0.7)
        assert povm_net_work_optimum(P32, drive) == povm_net_work_optimum(P32, drive, 1.0)

    def test_hot_reset_keeps_the_auxiliary_pure(self):
        # at a hot enough reset the zero-entropy rotation wins: tz D / 2 above
        # the drive-stroke work, twice the projective optimum
        for p in (0.5, 0.75, 1.0):
            assert povm_net_work_optimum(P52, DriveSpec(p=p), 50.0) == pytest.approx(
                2.0 * pvm_optimal(P52, p).work, abs=1e-12
            )

    def test_adiabatic_gross_branch_matches_v0_ledger(self):
        rec = aux_cost_record(P52, 1.0)
        assert povm_net_work_optimum(P52, DriveSpec(p=1.0), 1.0) == pytest.approx(
            max(rec.net_work_v0, 2.0 * pvm_optimal(P52, 1.0).work), abs=1e-12
        )

    @pytest.mark.parametrize("t_c", [-1.0, math.nan, math.inf])
    def test_rejects_bad_temperature(self, t_c):
        with pytest.raises(ValueError, match="t_c must be finite and nonnegative"):
            povm_net_work_optimum(P32, DriveSpec(p=1.0), t_c)


class TestCrossingTemperature:
    def test_reference_value(self):
        t_ad = reset_crossing_temperature(P52)
        assert t_ad == pytest.approx(2.436872905700407, abs=1e-8)

    def test_crossing_balances_cost_and_advantage(self):
        for params in (P52, P32, EngineParams(1.0, 4.0, 1.0)):
            t_ad = reset_crossing_temperature(params)
            rec = aux_cost_record(params, t_ad)
            assert abs(rec.min_cost - rec.delta_w) <= 1e-8
            for t in np.linspace(0.05, t_ad * (1.0 - 1e-6), 25):
                below = aux_cost_record(params, float(t))
                assert below.delta_w > below.min_cost


class TestCrossEngineGaps:
    def test_delta_w_pvm_conventional(self):
        assert delta_w_pvm_conventional(P32, 1.0) == pytest.approx(0.0, abs=1e-13)
        expected = 0.25 * TANH1 * (math.sqrt(7.0) - 1.0 + 1.5)
        assert delta_w_pvm_conventional(P32, 0.75) == pytest.approx(expected, abs=1e-13)
        # cross-check as optimal projective work minus hot-bath-free work
        conv = conventional_record(EngineParams(2.0, 3.0, 1.0, beta_h=0.0), 0.75).w_total
        assert delta_w_pvm_conventional(P32, 0.75) == pytest.approx(
            pvm_optimal(P32, 0.75).work - conv, abs=1e-12
        )

    def test_monotone_advantage(self):
        for params in (P32, P52):
            for p in np.linspace(0.5, 1.0, 101):
                assert delta_w_pvm_conventional(params, float(p)) >= -1e-14

    def test_generalized_vs_projective_gap_constant_in_beta(self):
        for beta_c in (0.2, 0.5, 1.0, 2.0, 5.0):
            params = EngineParams(2.0, 3.0, beta_c)
            gap = povm_adiabatic_optimal(params).work - pvm_optimal(params, 1.0).work
            assert gap == pytest.approx(0.5, abs=1e-13)
