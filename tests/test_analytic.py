import math
import warnings

import mpmath
import numpy as np
import pytest

from qotto import analytic, engine, optimize, qmat
from qotto.analytic import (
    aux_cost_record,
    conventional_record,
    optimal_dilation_unitary,
    povm_net_work_optimum,
    povm_work_ceiling,
    pvm_best_p,
    pvm_nonadiabatic_record,
    pvm_optimal,
    reset_crossing_temperature,
)
from qotto.engine import DriveSpec, EngineParams, MeasurementBasis, PovmSpec
from helpers import drive_reference, h1_reference, h2_reference, rearrangement_energy_bound

P32 = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0)
P52 = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0)
TANH1 = math.tanh(1.0)
ADIABATIC = DriveSpec(p=1.0)


def pvm_work(params, drive, basis):
    return pvm_nonadiabatic_record(params, drive, basis).w_total


def plus_projector():
    return np.outer(qmat.KET_PLUS, qmat.KET_PLUS.conj())


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
        rec = pvm_nonadiabatic_record(P32, ADIABATIC, MeasurementBasis(math.pi / 2.0))
        assert rec.w_total == pytest.approx(0.5 * TANH1, abs=1e-14)
        assert rec.q_h == pytest.approx(1.5 * TANH1, abs=1e-14)
        assert rec.q_c == pytest.approx(-TANH1, abs=1e-14)
        assert rec.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_adiabatic_first_law_identity(self):
        for theta in np.linspace(0.0, math.pi, 17):
            rec = pvm_nonadiabatic_record(P32, ADIABATIC, MeasurementBasis(float(theta)))
            assert rec.first_law_residual <= 1e-14

    def test_nonadiabatic_reduces_to_adiabatic(self):
        # at p = 1 the stroke energies are e2 = -(wx/2) tz cos^2(theta) and
        # e3 = -(wz/2) tz cos^2(theta), so the work is (tz/2)(wx - wz) sin^2(theta)
        for theta in np.linspace(0.0, math.pi, 9):
            for phi in (0.0, 2.1):
                rec = pvm_nonadiabatic_record(P32, ADIABATIC, MeasurementBasis(float(theta), phi))
                cos2 = math.cos(theta) ** 2
                assert rec.e2 == pytest.approx(-1.5 * TANH1 * cos2, abs=1e-14)
                assert rec.e3 == pytest.approx(-TANH1 * cos2, abs=1e-14)
                assert rec.w_total == pytest.approx(0.5 * TANH1 * math.sin(theta) ** 2, abs=1e-12)

    def test_pole_basis_never_an_engine(self):
        # at theta = 0 the work is -2 wz tz p(1-p) <= 0
        for p in (0.5, 0.6, 0.8, 1.0):
            w = pvm_work(P32, DriveSpec(p=p), MeasurementBasis(0.0))
            assert w == pytest.approx(-2.0 * 2.0 * TANH1 * p * (1.0 - p), abs=1e-12)
            assert w <= 1e-12

    def test_intermediates_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0, 2 * math.pi))
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            # mu is the overlap of the driven ground state with the measurement axis
            a = 2.0 * drive.p - 1.0
            b = 2.0 * math.sqrt(drive.p * (1.0 - drive.p))
            th = basis.theta_x
            mu = a * math.cos(th) + b * math.sin(th) * math.cos(drive.alpha - basis.phi_x)
            assert a**2 + b**2 == pytest.approx(1.0, abs=1e-12)
            assert -1.0 - 1e-12 <= mu <= 1.0 + 1e-12
            rec = pvm_nonadiabatic_record(P32, drive, basis)
            assert rec.e2 == pytest.approx(-1.5 * TANH1 * mu * math.cos(th), abs=1e-14)
            work = -0.5 * TANH1 * (-a * 3.0 + 2.0 - 2.0 * mu**2 + 3.0 * mu * math.cos(th))
            assert rec.w_total == pytest.approx(work, abs=1e-13)
            # the reversed stroke-IV drive sees the overlap mu again:
            # the simulated e3 is -(wz/2) tz mu^2
            e3 = engine.run_pvm_cycle(P32, drive, basis).e3
            assert e3 == pytest.approx(-TANH1 * mu**2, abs=1e-10)


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
                return pvm_work(P32, drive, MeasurementBasis.wrapped(th, ph))

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
                return pvm_work(P32, drive, MeasurementBasis.wrapped(th, ph))

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
        for p in (0.3, 1.01, [0.7, 1.01], [0.7, math.nan], [[0.7, 0.4]]):
            for f in (pvm_optimal, povm_work_ceiling):
                with pytest.raises(ValueError, match="p must lie in"):
                    f(P32, p)
        # a float is the 0-d case of the array form, and an array of any shape is taken whole
        assert pvm_optimal(P32, 0.7).theta == pvm_optimal(P32, [[0.7]]).theta[0, 0]

    def test_slice_angles_equal_single_optima(self):
        # one call for a grid of p gives every row's pvm_optimal angle bit for bit, and both lie within one ulp of
        # the scalar formula through math.atan2, which np.arctan2 may round the other way
        def scalar_theta(params, p):
            wz, wx = params.omega_z, params.omega_x
            a = 2.0 * p - 1.0
            b = 2.0 * math.sqrt(p * (1.0 - p))
            x = math.atan2(-(b * (wx - 2.0 * a * wz)), -(wz * (b * b - a * a) + a * wx))
            return 0.5 * (x + 2.0 * math.pi if x < 0.0 else x)

        rng = np.random.default_rng(31)
        grid = [0.5, 1.0, 0.875, *np.linspace(0.5, 1.0, 101).tolist(), *rng.uniform(0.5, 1.0, 400).tolist()]
        for params in (P32, P52, EngineParams(2.0, 4.0, 1.0), EngineParams(0.3, 3.7, 2.0)):
            angles = pvm_optimal(params, grid).theta
            assert angles.shape == (len(grid),)
            singles = [pvm_optimal(params, p).basis.theta_x for p in grid]
            assert [a.hex() for a in angles.tolist()] == [t.hex() for t in singles]
            for t, p in zip(singles, grid):
                assert abs(t - scalar_theta(params, p)) <= math.ulp(t)


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
        work = 0.5 * (3.0 - 2.0) * (1.0 + TANH1)  # (1/2)(wx - wz)(1 + tz)
        assert povm_work_ceiling(P32, ADIABATIC) == pytest.approx(work, abs=1e-14)
        rec = engine.run_povm_cycle(P32, ADIABATIC, PovmSpec(joint_unitary=optimal_dilation_unitary()))
        assert rec.w_total == pytest.approx(work, abs=1e-10)

    def test_v0_is_the_stated_permutation(self):
        t = np.kron(qmat.HADAMARD, qmat.HADAMARD)
        in_x_basis = t @ optimal_dilation_unitary() @ t
        perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(in_x_basis, perm, atol=1e-12)

    def test_v0_is_one_read_only_constant(self):
        # built once, at import, bit for bit the product of the Hadamard pair around the swap of the middle states
        t = np.kron(qmat.HADAMARD, qmat.HADAMARD)
        perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        v0 = optimal_dilation_unitary()
        assert v0 is optimal_dilation_unitary()
        assert v0.dtype == complex and v0.shape == (4, 4)
        assert v0.tobytes() == (t @ perm @ t).tobytes()
        assert not v0.flags.writeable
        with pytest.raises(ValueError):
            v0[0, 0] = 0.0

    def test_cold_limit(self):
        params = EngineParams(2.0, 3.0, 200.0)
        assert povm_work_ceiling(params, ADIABATIC) == pytest.approx(1.0, abs=1e-12)

    def test_rearrangement_attains_half_omega_x(self):
        rho0 = engine._gibbs(h1_reference(P32), 1.0)
        u = drive_reference(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        joint = np.kron(rho1, plus_projector())
        h_joint = np.kron(h2_reference(P32), qmat.ID2)
        assert rearrangement_energy_bound(h_joint, joint) == pytest.approx(1.5, abs=1e-12)


class TestWorkCeiling:
    def test_reduces_to_adiabatic_optimum(self):
        for params in (P32, P52):
            ceiling = povm_work_ceiling(params, DriveSpec(p=1.0))
            adiabatic = 0.5 * (params.omega_x - params.omega_z) * (1.0 + params.tau_z)
            assert ceiling == pytest.approx(adiabatic, abs=1e-13)

    def test_matches_rearrangement_construction(self):
        # independent route: pair eigenvectors of the effective observable
        # with those of the dilated state and simulate that unitary
        rng = np.random.default_rng(27)
        for _ in range(25):
            wz = rng.uniform(0.5, 3.0)
            params = EngineParams(wz, wz * rng.uniform(1.1, 3.0), rng.uniform(0.2, 3.0))
            p = rng.uniform(0.5, 1.0)
            drive = DriveSpec(p=p)
            h1 = h1_reference(params)
            h2 = h2_reference(params)
            rho0 = engine._gibbs(h1, params.beta_c)
            u = drive_reference(drive)
            rho1 = u @ rho0 @ u.conj().T
            joint = np.kron(rho1, plus_projector())
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
        h_joint = np.kron(h2_reference(P32), qmat.ID2)
        rho0 = engine._gibbs(h1_reference(P32), 1.0)
        u = drive_reference(DriveSpec(p=1.0))
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

    def test_one_eigen_solve_per_matrix(self, monkeypatch):
        # the density check's spectrum of rho is the one the bound uses: two eigvalsh calls, the same bits
        rng = np.random.default_rng(35)
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for n in (2, 4) * 25:
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (m + m.conj().T)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            want = float(np.sort(eigvalsh(h)) @ np.sort(eigvalsh(rho)))
            calls.clear()
            assert rearrangement_energy_bound(h, rho).hex() == want.hex()
            assert calls == [(n, n), (n, n)]


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

    def test_min_cost_against_50_digits(self):
        # exact where the pole population (1 - tz)/2 underflows 1 - (1 + tz)/2: at t_c = 0.05 and
        # omega_z = 2 the cost is 8.7e-18, not 0
        def exact(t_c, omega_z):
            with mpmath.workdps(50):
                q = 1 / (1 + mpmath.exp(mpmath.mpf(omega_z) / mpmath.mpf(t_c)))
                return mpmath.mpf(t_c) * (-q * mpmath.log(q) - (1 - q) * mpmath.log1p(-q))

        checked = 0
        for omega_z in np.logspace(-6.0, 6.0, 37).tolist():
            for t_c in np.logspace(math.log10(0.02), 1.0, 31).tolist():
                got = aux_cost_record(EngineParams(omega_z, 2.5 * omega_z, 1.0), t_c).min_cost
                ref = exact(t_c, omega_z)
                if omega_z / t_c <= 700.0:  # the cost is a normal float, above 1e-300
                    assert abs(got - ref) <= 1e-13 * ref, (omega_z, t_c)
                    checked += 1
                else:  # it underflows toward 0, as e^(-omega_z / t_c) does
                    assert abs(got - ref) <= 1e-300, (omega_z, t_c)
        assert checked > 700
        assert aux_cost_record(P52, 0.05).min_cost == pytest.approx(8.709126223347777e-18, rel=1e-13)

    @pytest.mark.parametrize("t_c", [1e-310, 5e-324])
    def test_temperature_too_small_for_its_reciprocal(self, t_c):
        # omega_z / t_c overflows; the pole population q and so the cost are 0 there, their limit as t_c -> 0
        for params in (P52, EngineParams(1e-12, 2e-12, 1.0), EngineParams(1e150 / 3.0, 1e150, 1e-151)):
            rec = aux_cost_record(params, t_c)
            delta_w = 0.5 * (params.omega_x - params.omega_z)
            assert (rec.min_cost, rec.net_work_v0, rec.max_cost) == (0.0, 2.0 * delta_w, t_c * math.log(2.0))
            grid = np.array([t_c, 1e-300, 1e-30, 0.05, 1.0, 4.0])
            rows = aux_cost_record(params, grid)
            for i, t in enumerate(grid.tolist()):
                single = aux_cost_record(params, t)
                for name in ("min_cost", "max_cost", "net_work_v0"):
                    assert getattr(rows, name)[i].hex() == getattr(single, name).hex(), (name, t)
            assert np.all(np.isfinite(rows.min_cost)) and np.all(np.isfinite(rows.net_work_v0))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            aux_cost_record(P32, 0.0)

    @pytest.mark.parametrize("t_c", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_nonpositive_temperature(self, t_c):
        match = "t_c must be positive" if t_c == 0.0 else "t_c must be finite and nonnegative"
        with pytest.raises(ValueError, match=match):
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


class TestArrayForms:
    """Every closed form a grid evaluates takes its swept field as an array, each value bit for bit its scalar call."""

    # p in {1/2, 1}, a gap ratio of exactly 2, and seeded points; fig4's default t_c range
    PARAMS = (P32, P52, EngineParams(2.0, 4.0, 1.0), EngineParams(0.3, 3.7, 2.0), EngineParams(1.0, 1.0 + 1e-9, 0.4))
    P_GRID = [0.5, 1.0, 0.875, *np.linspace(0.5, 1.0, 101).tolist(),
              *np.random.default_rng(41).uniform(0.5, 1.0, 200).tolist()]
    T_GRID = [*np.linspace(0.05, 4.0, 80).tolist(), *np.random.default_rng(42).uniform(1e-3, 10.0, 50).tolist(), 1e-310]

    @staticmethod
    def assert_rows(grid, singles, shape):
        assert isinstance(grid, np.ndarray) and grid.shape == shape
        assert all(type(x) is float for x in singles)
        assert [x.hex() for x in grid.ravel().tolist()] == [x.hex() for x in singles]

    @pytest.mark.parametrize("shape", [(304,), (16, 19)])
    @pytest.mark.parametrize("params", PARAMS)
    def test_p_forms(self, params, shape):
        ps = np.reshape(self.P_GRID, shape)
        hot = EngineParams(params.omega_z, params.omega_x, params.beta_c, beta_h=0.3 * params.beta_c)
        cases = [
            (analytic._discriminant(params, ps), [float(analytic._discriminant(params, p)) for p in self.P_GRID]),
            (povm_work_ceiling(params, ps), [povm_work_ceiling(params, DriveSpec(p)) for p in self.P_GRID]),
            (povm_work_ceiling(params, ps), [povm_work_ceiling(params, p) for p in self.P_GRID]),
        ]
        opt = pvm_optimal(params, ps)
        singles = [pvm_optimal(params, p) for p in self.P_GRID]
        cases += [(getattr(opt, f), [getattr(x, f) for x in singles]) for f in analytic.PvmOptimum._fields]
        for t_c in (None, 0.0, 0.7):
            cases.append((povm_net_work_optimum(params, ps, t_c),
                          [povm_net_work_optimum(params, DriveSpec(p), t_c) for p in self.P_GRID]))
        conv = conventional_record(hot, ps)
        singles = [conventional_record(hot, p) for p in self.P_GRID]
        cases += [(getattr(conv, f), [getattr(x, f) for x in singles])
                  for f in ("e0", "e1", "e2", "e3", "w1", "w2", "w_total", "q_c", "q_h")]
        for grid, single in cases:
            self.assert_rows(grid, single, shape)

    @pytest.mark.parametrize("shape", [(131,), (1, 131), (0,)])
    @pytest.mark.parametrize("params", PARAMS)
    def test_t_c_forms(self, params, shape):
        grid = self.T_GRID[:math.prod(shape)]  # an empty grid gives empty columns
        rows = aux_cost_record(params, np.reshape(grid, shape))
        singles = [aux_cost_record(params, t) for t in grid]
        for name in ("min_cost", "max_cost", "net_work_v0"):
            self.assert_rows(getattr(rows, name), [getattr(x, name) for x in singles], shape)
        for name in ("delta_w", "t_c_bound"):
            scalars = {getattr(x, name).hex() for x in [*singles, aux_cost_record(params, 1.0)]}
            assert scalars == {float(getattr(rows, name)).hex()}

    def test_a_grid_is_checked_whole(self):
        for bad in ([0.6, 0.4], [0.7, math.nan], [1.0, 1.5]):
            for f in (pvm_optimal, povm_work_ceiling, conventional_record, povm_net_work_optimum):
                with pytest.raises(ValueError, match="p must lie in"):
                    f(EngineParams(2.0, 3.0, 1.0, beta_h=0.2), np.array(bad))
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=f"t_c must be finite and nonnegative, got {bad}"):
                aux_cost_record(P32, np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError, match="t_c must be positive, got 0.0"):
            aux_cost_record(P32, np.array([1.0, -0.0, 2.0]))


class TestOptimaScale:
    """Scaling the gaps and the reset temperature by s = 2^k and beta by 1/s scales every optimum by s exactly."""

    # (omega_z, omega_x, beta_c, p, t_c): p in {1/2, 1}, a gap ratio of 2 and seeded points
    POINTS = [(2.0, 3.0, 1.0, 0.875, 1.0), (2.0, 4.0, 1.0, 0.5, 0.3), (1.0, 2.5, 3.0, 1.0, 2.0),
              *[(wz, wz * g, bc, p, t) for wz, g, bc, p, t in np.random.default_rng(43).uniform(
                  [0.2, 1.05, 0.1, 0.5, 0.0], [4.0, 4.0, 4.0, 1.0, 3.0], (5, 5)).tolist()]]

    @staticmethod
    def optima(point, s):
        wz, wx, bc, p, t_c = point
        params, drive, ps = EngineParams(s * wz, s * wx, bc / s), DriveSpec(p), np.array([0.5, p, 1.0])
        opt, grid = pvm_optimal(params, p), pvm_optimal(params, ps)
        best = pvm_best_p(params)
        scaled = [opt.work, opt.heat, grid.work, grid.heat, best.work, povm_work_ceiling(params, drive),
                  povm_work_ceiling(params, ps), povm_net_work_optimum(params, drive, s * t_c),
                  povm_net_work_optimum(params, ps, s * t_c),
                  optimize.optimize_povm_work(params, drive).best_value,
                  optimize.optimize_povm_net_work(params, drive, t_c=s * t_c).best_value]
        kept = [opt.theta, opt.eta, grid.theta, grid.eta, best.p_star, best.eta]
        return scaled, kept

    @pytest.mark.parametrize("k", [-40, -10, 10, 40])
    @pytest.mark.parametrize("point", POINTS)
    def test_optima_scale_exactly(self, point, k):
        s = 2.0**k
        unit, scaled = self.optima(point, 1.0), self.optima(point, s)
        for u, x in zip(unit[0], scaled[0]):
            assert [v.hex() for v in np.ravel(x).tolist()] == [(s * v).hex() for v in np.ravel(u).tolist()]
        for u, x in zip(unit[1], scaled[1]):
            assert [v.hex() for v in np.ravel(x).tolist()] == [v.hex() for v in np.ravel(u).tolist()]


class TestTinyGaps:
    """No closed form squares a gap or multiplies two, so gaps of 1e-300, which EngineParams accepts, lose no digit."""

    def test_matches_mpmath(self):
        params, p = EngineParams(1e-300, 3e-300, 1e299), 0.7
        opt = pvm_optimal(params, p)
        with mpmath.workdps(60):
            wz, wx, bc, t_c, pm = map(mpmath.mpf, (1e-300, 3e-300, 1e299, params.reset_temperature(), p))
            tz, a, b = mpmath.tanh(bc * wz / 2), 2 * pm - 1, 2 * mpmath.sqrt(pm * (1 - pm))
            d = mpmath.sqrt((wx - wz) ** 2 + 4 * wx * wz * (1 - pm))
            work, heat = tz / 4 * (d - wz + a * wx), wx * tz * (a * d + wx - a * wz) / (4 * d)
            x = mpmath.atan2(-(b * (wx - 2 * a * wz)), -(wz * (b * b - a * a) + a * wx))
            q = 1 / (1 + mpmath.exp(bc * wz))
            cost = t_c * (-q * mpmath.log(q) - (1 - q) * mpmath.log(1 - q))
            drive_work = tz / 2 * (a * wx - wz)
            cases = [
                (analytic._discriminant(params, p), d), (opt.work, work), (opt.heat, heat), (opt.eta, work / heat),
                (opt.theta, (x if x >= 0 else x + 2 * mpmath.pi) / 2),
                (povm_work_ceiling(params, p), drive_work + d / 2),
                (povm_net_work_optimum(params, p), drive_work + max(d / 2 - cost, tz * d / 2)),
            ]
            for got, want in cases:
                assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


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

    @pytest.mark.parametrize("params", [P52, P32, EngineParams(1e-12, 2e-12, 1.0), EngineParams(1.0, 1.3e9, 1.0),
                                        EngineParams(1.0, 1.0 + 1e-9, 1.0)])
    def test_crossing_is_bracketed_to_adjacent_floats(self, params):
        # the returned temperature is the first float whose cost reaches delta_w: the float below it falls short
        t_ad = reset_crossing_temperature(params)
        rec = aux_cost_record(params, np.array([math.nextafter(t_ad, 0.0), t_ad]))
        assert rec.min_cost[0] < rec.delta_w <= rec.min_cost[1]

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 2.5, 4.0])
    def test_crossing_at_every_scale(self, gamma):
        # the crossing over omega_z depends only on gamma, so no scale of the gaps may lose it
        unit = reset_crossing_temperature(EngineParams(1.0, gamma, 1.0))
        for omega_z in (10.0 ** np.arange(-12, 12.5, 1.5)).tolist():
            params = EngineParams(omega_z, gamma * omega_z, 1.0)
            t_ad = reset_crossing_temperature(params)
            rec = aux_cost_record(params, t_ad)
            assert rec.min_cost == pytest.approx(rec.delta_w, rel=1e-12, abs=0.0)
            assert t_ad / omega_z == pytest.approx(unit, rel=1e-12)

    def test_crossing_at_tiny_gaps(self):
        params = EngineParams(1e-12, 2e-12, 1.0)
        t_ad = reset_crossing_temperature(params)
        assert t_ad == pytest.approx(8.952e-13, rel=1e-3)
        rec = aux_cost_record(params, t_ad)
        assert rec.min_cost == pytest.approx(rec.delta_w, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("omega_x", [1.3e9, 1e12])
    def test_crossing_at_large_gaps(self, omega_x):
        # the cost grows like t ln 2, so a large gap crosses just above t_c_bound, far beyond 1e9
        params = EngineParams(1.0, omega_x, 1.0)
        rec = aux_cost_record(params, reset_crossing_temperature(params))
        assert rec.min_cost == pytest.approx(rec.delta_w, rel=1e-12, abs=0.0)


def delta_w_pvm_conventional(params, p):
    # optimal projective work minus the infinite-temperature two-bath work
    conv = conventional_record(EngineParams(params.omega_z, params.omega_x, params.beta_c, beta_h=0.0), p)
    return pvm_optimal(params, p).work - conv.w_total


class TestCrossEngineGaps:
    def test_delta_w_pvm_conventional(self):
        # (tz/4)[D - (wx - wz) + 2 wx (1 - p)], vanishing only at p = 1
        assert delta_w_pvm_conventional(P32, 1.0) == pytest.approx(0.0, abs=1e-13)
        expected = 0.25 * TANH1 * (math.sqrt(7.0) - 1.0 + 1.5)
        assert delta_w_pvm_conventional(P32, 0.75) == pytest.approx(expected, abs=1e-13)
        for params in (P32, P52):
            wz, wx = params.omega_z, params.omega_x
            for p in np.linspace(0.5, 1.0, 11):
                d = math.sqrt((wx - wz) ** 2 + 4.0 * wx * wz * (1.0 - p))
                expected = 0.25 * params.tau_z * (d - (wx - wz) + 2.0 * wx * (1.0 - p))
                assert delta_w_pvm_conventional(params, float(p)) == pytest.approx(expected, abs=1e-12)

    def test_monotone_advantage(self):
        for params in (P32, P52):
            for p in np.linspace(0.5, 1.0, 101):
                assert delta_w_pvm_conventional(params, float(p)) >= -1e-14

    def test_generalized_vs_projective_gap_constant_in_beta(self):
        for beta_c in (0.2, 0.5, 1.0, 2.0, 5.0):
            params = EngineParams(2.0, 3.0, beta_c)
            gap = povm_work_ceiling(params, ADIABATIC) - pvm_optimal(params, 1.0).work
            assert gap == pytest.approx(0.5, abs=1e-13)


class TestOneRulePerField:
    """Each field rule has one home, so every entry that meets a bad value says the same thing."""

    HOT = EngineParams(2.0, 3.0, 1.0, beta_h=0.2)

    @pytest.mark.parametrize("bad", [0.4, 1.01, math.nan, np.array([0.7, 1.01]), 0.8 + 0.1j, np.complex128(0.8), "0.8"],
                             ids=["low", "high", "nan", "array", "complex", "numpy-complex", "string"])
    def test_p(self, bad):
        entries = (DriveSpec, lambda p: pvm_optimal(self.HOT, p), lambda p: povm_work_ceiling(self.HOT, p),
                   lambda p: povm_net_work_optimum(self.HOT, p), lambda p: conventional_record(self.HOT, p))
        for entry in entries:
            with pytest.raises(ValueError) as info:
                entry(bad)
            assert str(info.value) == f"p must lie in [1/2, 1], got {bad}"

    @pytest.mark.parametrize("p", [np.array([0.7, 0.8]), np.array([0.7]), [0.7]])
    def test_a_drive_takes_one_p(self, p):
        with pytest.raises(ValueError, match=r"p must lie in \[1/2, 1\]"):
            DriveSpec(p)

    def test_beta_h(self):
        entries = (lambda: engine.run_conventional_cycle(P32, ADIABATIC), lambda: conventional_record(P32, 1.0),
                   lambda: P32.tau_x, lambda: P32.v_x, lambda: P32._hot_state)
        for entry in entries:
            with pytest.raises(ValueError) as info:
                entry()
            assert str(info.value) == "the conventional cycle requires beta_h"
        drive = DriveSpec(0.8)
        with pytest.raises(ValueError):
            engine.run_conventional_cycle(P32, drive)
        assert "_strokes_slot" not in vars(drive)  # raised before the drive kept a setup

    @pytest.mark.parametrize("params,p", [
        (EngineParams(2.0, 3.0, 1e-300), 0.875),  # rounding-sized work and heat
        (EngineParams(1e-300, 2e-300, 1e-8), 1.0),  # the heat underflows to 0, which 0/0 made NaN
    ])
    def test_pvm_optimum_efficiency_is_the_ledger_rule(self, params, p):
        # below ENGINE_TOL * omega_x the optimum runs no engine, as every ledger of it says; a grid reads NaN there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = pvm_optimal(params, p)
            grid = pvm_optimal(params, np.array([p, p]))
        assert opt.eta is None and np.isnan(grid.eta).all()
        assert pvm_best_p(params).eta is None
        for rec in (engine.run_pvm_cycle(params, DriveSpec(p), opt.basis),
                    pvm_nonadiabatic_record(params, DriveSpec(p), opt.basis)):
            assert rec.eta is None
