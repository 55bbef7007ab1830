import math

import numpy as np
import pytest

from qotto import analytic, engine, qmat
from qotto.optimize import optimize_pvm_basis
from qotto.engine import (
    DriveSpec,
    EngineParams,
    MeasurementBasis,
    PovmSpec,
    drive_unitary,
    hamiltonian_h1,
    hamiltonian_h2,
    povm_stroke,
    pvm_stroke,
    run_conventional_cycle,
    run_povm_cycle,
    run_pvm_cycle,
)
from qotto.qmat import HADAMARD, ID2, ID4, KET_MINUS, KET_PLUS

P32 = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0)
P52 = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0)


def random_su4(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return qmat._exp_i(0.5 * (m + m.conj().T))


def haar_unitary(rng, n=4):
    # QR of a complex Ginibre matrix, with R's diagonal phases moved into Q
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng, shape=()):
    m = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


# The same matrix in the memory layouts a caller may pass: C order, a transposed view, Fortran order, a strided
# view and a view with negative strides.
LAYOUTS = (
    np.ascontiguousarray,
    lambda a: np.ascontiguousarray(a.T).T,
    np.asfortranarray,
    lambda a: np.kron(a, np.ones((2, 2)))[::2, ::2],
    lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
)


def matmul_measure(rho, projectors):
    # sum_i P_i rho P_i in its matmul form, valid for projectors of any rank
    x = projectors @ rho[..., None, :, :] @ projectors
    return x[..., 0, :, :] + x[..., 1, :, :]


def joint_povm_stroke(rho, v, aux_state, aux_projectors):
    # the joint state rotated by v, measured with the joint projectors I (x) P_i, and both its marginals
    x = v @ engine._kron(rho, aux_state) @ v.conj().swapaxes(-1, -2)
    return qmat._marginals(matmul_measure(x, engine._kron(ID2, aux_projectors)))


class TestParams:
    def test_rejects_inverted_gaps(self):
        with pytest.raises(ValueError):
            EngineParams(omega_z=3.0, omega_x=2.0, beta_c=1.0)
        with pytest.raises(ValueError):
            EngineParams(omega_z=-1.0, omega_x=2.0, beta_c=1.0)

    def test_rejects_bad_temperatures(self):
        with pytest.raises(ValueError):
            EngineParams(omega_z=2.0, omega_x=3.0, beta_c=0.0)
        with pytest.raises(ValueError):
            EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=1.0)
        with pytest.raises(ValueError):
            EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=-0.1)

    @pytest.mark.parametrize("beta_c", [5e-324, 1e-320, 5e-309])
    def test_rejects_an_infinite_cold_temperature(self, beta_c):
        # 1/beta_c, the default reset temperature, overflows to inf
        with pytest.raises(ValueError, match="beta_c must have a finite reciprocal"):
            EngineParams(omega_z=2.0, omega_x=3.0, beta_c=beta_c)

    def test_smallest_cold_beta_runs(self):
        params = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=6e-309)  # 1/beta_c is about 1.7e308
        rec = run_povm_cycle(params, DriveSpec(p=1.0), PovmSpec(joint_unitary=analytic.optimal_dilation_unitary()))
        assert math.isfinite(rec.aux_reset_cost)

    # omega_x <= 1e150 and beta_c * omega_x <= 1e300 keep squared gaps and Gibbs
    # exponents finite; every cycle runs, warning-free, at each bound
    @pytest.mark.parametrize("omega_x,beta_c", [(1e150, 1.0), (5.0, 2e299), (1e150, 1e150)])
    def test_cycles_run_at_the_bounds(self, omega_x, beta_c):
        assert omega_x <= 1e150 and beta_c * omega_x <= 1e300
        params = EngineParams(omega_z=2.0, omega_x=omega_x, beta_c=beta_c, beta_h=0.5 * beta_c)
        drive = DriveSpec(p=0.7, alpha=0.3)
        records = [
            run_conventional_cycle(params, drive),
            run_pvm_cycle(params, drive, MeasurementBasis(1.0, 0.5)),
            run_povm_cycle(params, drive, PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())),
            analytic.pvm_nonadiabatic_record(params, drive, MeasurementBasis(1.0, 0.5)),
        ]
        assert all(math.isfinite(r.w_total) and math.isfinite(r.net_work) for r in records)
        assert math.isfinite(analytic.povm_work_ceiling(params, drive))

    def test_rejects_a_gap_beyond_the_bound(self):
        with pytest.raises(ValueError, match="omega_x must be at most 1e150"):
            EngineParams(omega_z=2.0, omega_x=math.nextafter(1e150, math.inf), beta_c=1e-100)
        with pytest.raises(ValueError, match="omega_x must be at most 1e150"):
            EngineParams(omega_z=2.0, omega_x=2e154, beta_c=1.0)  # (omega_x - omega_z)**2 overflows

    @pytest.mark.parametrize("omega_x,beta_c", [(5.0, math.nextafter(2e299, math.inf)), (3.0, 1e308), (1e150, 1e151)])
    def test_rejects_beta_times_gap_beyond_the_bound(self, omega_x, beta_c):
        with pytest.raises(ValueError, match=r"beta_c \* omega_x must be at most 1e300"):
            EngineParams(omega_z=2.0, omega_x=omega_x, beta_c=beta_c)

    def test_derived_quantities(self):
        p = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=0.2)
        assert p.v_z == pytest.approx(1.0)
        assert p.v_x == pytest.approx(0.3)
        assert p.tau_z == pytest.approx(math.tanh(1.0))
        assert p.tau_x == pytest.approx(math.tanh(0.3))
        assert p.gamma == pytest.approx(1.5)

    def test_vx_requires_beta_h(self):
        with pytest.raises(ValueError):
            _ = P32.v_x

    @pytest.mark.parametrize("field", ["omega_z", "omega_x", "beta_c", "beta_h"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=0.2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EngineParams(**kwargs)


class TestDriveAndBasis:
    def test_drive_validation(self):
        with pytest.raises(ValueError):
            DriveSpec(p=0.4)
        with pytest.raises(ValueError):
            DriveSpec(p=1.0, alpha=7.0)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            MeasurementBasis(theta_x=-0.1)
        with pytest.raises(ValueError):
            MeasurementBasis(theta_x=1.0, phi_x=2.0 * math.pi)

    def test_wrapped_continues_the_chart(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(-3.0 * math.pi, 3.0 * math.pi)
            phi = rng.uniform(-3.0 * math.pi, 3.0 * math.pi)
            b = MeasurementBasis.wrapped(theta, phi)
            # same Bloch vector (poles |+> and |->), hence the same projectors
            n = np.array([math.cos(theta), math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi)])
            m = np.array([math.cos(b.theta_x), math.sin(b.theta_x) * math.cos(b.phi_x),
                          math.sin(b.theta_x) * math.sin(b.phi_x)])
            np.testing.assert_allclose(m, n, atol=1e-12)
        assert MeasurementBasis.wrapped(1.0, 0.5) == MeasurementBasis(1.0, 0.5)

    def test_basis_completeness(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            b = MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            pp, pm = b.projectors()
            np.testing.assert_allclose(pp + pm, ID2, atol=1e-12)
            np.testing.assert_allclose(pp @ pm, np.zeros((2, 2)), atol=1e-12)


class TestHamiltonians:
    def test_h1_diagonal(self):
        np.testing.assert_allclose(
            hamiltonian_h1(P32), np.diag([1.0, -1.0]).astype(complex), atol=1e-15
        )

    def test_h2_eigenpairs(self):
        vals, vecs = qmat.hermitian_eig(hamiltonian_h2(P32))
        np.testing.assert_allclose(vals, [-1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(vecs[:, 1], KET_PLUS, atol=1e-12)
        np.testing.assert_allclose(vecs[:, 0], KET_MINUS, atol=1e-12)

    def test_hadamard_relates_equal_gaps(self):
        p = EngineParams(omega_z=1.0, omega_x=1.0 + 1e-12, beta_c=1.0)
        h1 = hamiltonian_h1(p)
        np.testing.assert_allclose(HADAMARD @ h1 @ HADAMARD, hamiltonian_h2(p), atol=1e-10)


class TestThermalState:
    # engine._gibbs is the kernel's unchecked Gibbs state; its beta comes from EngineParams.
    def test_infinite_temperature(self):
        np.testing.assert_allclose(engine._gibbs(hamiltonian_h2(P32), 0.0), ID2 / 2.0, atol=1e-14)

    def test_gibbs_populations_and_energy(self):
        rho = engine._gibbs(hamiltonian_h1(P32), 1.0)
        z = 2.0 * math.cosh(1.0)
        np.testing.assert_allclose(np.diag(rho).real, [math.exp(-1.0) / z, math.exp(1.0) / z], atol=1e-12)
        energy = np.trace(hamiltonian_h1(P32) @ rho).real
        assert energy == pytest.approx(-math.tanh(1.0), abs=1e-12)

    def test_zero_temperature_limit(self):
        rho = engine._gibbs(hamiltonian_h1(P32), 50.0)
        ground = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(rho, ground, atol=1e-10)

    def test_rejects_negative_beta(self):
        # every beta that reaches _gibbs is beta_c or beta_h of an EngineParams
        for beta in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                EngineParams(omega_z=2.0, omega_x=3.0, beta_c=beta)
            with pytest.raises(ValueError):
                EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=beta)


class TestDriveUnitary:
    def test_adiabatic_columns(self):
        u = drive_unitary(DriveSpec(p=1.0))
        np.testing.assert_allclose(u[:, 0], KET_PLUS, atol=1e-14)
        np.testing.assert_allclose(u[:, 1], -KET_MINUS, atol=1e-14)

    def test_sudden_limit_fixes_ground_state(self):
        u = drive_unitary(DriveSpec(p=0.5))
        np.testing.assert_allclose(u[:, 0], [1.0, 0.0], atol=1e-14)

    def test_unitary_and_transition_probability(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            u = drive_unitary(d)
            np.testing.assert_allclose(u.conj().T @ u, ID2, atol=1e-12)
            amp = KET_PLUS.conj() @ u[:, 0]
            assert abs(amp) ** 2 == pytest.approx(d.p, abs=1e-14)

    def test_adiabatic_population_transfer(self):
        rho0 = engine._gibbs(hamiltonian_h1(P32), 1.0)
        u = drive_unitary(DriveSpec(p=1.0, alpha=1.3))
        rho1 = u @ rho0 @ u.conj().T
        pops = np.diag(rho0).real
        expected = pops[0] * np.outer(KET_PLUS, KET_PLUS.conj()) + pops[1] * np.outer(KET_MINUS, KET_MINUS.conj())
        np.testing.assert_allclose(rho1, expected, atol=1e-12)


class TestPvmStroke:
    def test_fixed_point(self):
        basis = MeasurementBasis(theta_x=1.1, phi_x=0.4)
        pp, pm = basis.projectors()
        rho = 0.3 * pp + 0.7 * pm
        for layout in LAYOUTS:
            np.testing.assert_allclose(pvm_stroke(layout(rho), basis), rho, atol=1e-12)

    def test_computational_basis_zeroes_energy(self):
        # theta = pi/2 measures in {|0>, |1>}; the post-measurement state
        # carries no sigma_x polarization.
        rho0 = engine._gibbs(hamiltonian_h1(P32), 1.0)
        u = drive_unitary(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        rho2 = pvm_stroke(rho1, MeasurementBasis(theta_x=math.pi / 2.0))
        e2 = np.trace(hamiltonian_h2(P32) @ rho2).real
        assert e2 == pytest.approx(0.0, abs=1e-12)

    def test_pole_basis_injects_no_heat(self):
        rho0 = engine._gibbs(hamiltonian_h1(P32), 1.0)
        u = drive_unitary(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        h2 = hamiltonian_h2(P32)
        e1 = np.trace(h2 @ rho1).real
        for layout in LAYOUTS:
            rho2 = pvm_stroke(layout(rho1), MeasurementBasis(theta_x=0.0))
            e2 = np.trace(h2 @ rho2).real
            assert e2 == pytest.approx(e1, abs=1e-12)
            assert e2 == pytest.approx(-0.5 * 3.0 * math.tanh(1.0), abs=1e-12)


class TestPovmSpec:
    def test_optimal_dilation_kraus_complete(self):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        total = sum(k.conj().T @ k for k in povm.kraus_operators())
        np.testing.assert_allclose(total, ID2, atol=1e-12)
        assert len(povm.kraus_operators()) == 2

    def test_random_specs_kraus_complete(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            spec = PovmSpec(
                joint_unitary=random_su4(rng),
                aux_basis=MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
            )
            total = sum(k.conj().T @ k for k in spec.kraus_operators())
            np.testing.assert_allclose(total, ID2, atol=1e-10)

    def test_mixed_aux_kraus_complete(self):
        rng = np.random.default_rng(8)
        aux = np.diag([0.3, 0.7]).astype(complex)
        spec = PovmSpec(joint_unitary=random_su4(rng), aux_state=aux)
        total = sum(k.conj().T @ k for k in spec.kraus_operators())
        np.testing.assert_allclose(total, ID2, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            PovmSpec(joint_unitary=np.eye(4) * 1.001)

    @pytest.mark.parametrize(
        "aux",
        [np.outer(KET_PLUS, KET_PLUS.conj()), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), 0.5 * ID2],
        ids=["pure", "mixed", "maximally-mixed"],
    )
    def test_completeness_follows_from_unitarity(self, aux):
        # sum K^dag K - I = Tr_a[(I x rho_a)(V^dag V - I)], so a V off-unitary
        # by eps (accepted) leaves the Kraus family complete within 2 eps
        rng = np.random.default_rng(21)
        eps = 1e-11
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = 0.5 * (m + m.conj().T)
        tight = np.kron(ID2, np.ones((2, 2)))  # attains 2 eps on |+><+|
        for h in (m / np.max(np.abs(m)), tight):
            v = random_su4(rng) @ (ID4 + 0.5 * eps * h)
            assert np.max(np.abs(v.conj().T @ v - ID4)) <= eps + 1e-15
            spec = PovmSpec(joint_unitary=v, aux_state=aux)
            total = sum(k.conj().T @ k for k in spec.kraus_operators())
            assert np.max(np.abs(total - ID2)) <= 2.0 * eps + 1e-15

    def test_rejects_bad_aux_state(self):
        with pytest.raises(ValueError):
            PovmSpec(joint_unitary=ID4, aux_state=np.diag([0.9, 0.3]))

    def test_compares_by_identity(self):
        a = PovmSpec(joint_unitary=ID4)
        b = PovmSpec(joint_unitary=ID4)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2


class TestPovmStroke:
    def test_identity_dilation_leaves_system(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            for layout in LAYOUTS:
                povm = PovmSpec(joint_unitary=layout(ID4), aux_basis=MeasurementBasis(0.0))
                system, _ = povm_stroke(layout(rho), povm)
                np.testing.assert_allclose(system, rho, atol=1e-12)

    def test_optimal_dilation_pins_plus(self):
        rho0 = engine._gibbs(hamiltonian_h1(P32), 1.0)
        u = drive_unitary(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        plus, minus = np.outer(KET_PLUS, KET_PLUS.conj()), np.outer(KET_MINUS, KET_MINUS.conj())
        tz = math.tanh(1.0)
        expected_aux = 0.5 * (1.0 - tz) * plus + 0.5 * (1.0 + tz) * minus
        for layout in LAYOUTS:
            povm = PovmSpec(joint_unitary=layout(analytic.optimal_dilation_unitary()))
            system, aux = povm_stroke(layout(rho1), povm)
            np.testing.assert_allclose(system, plus, atol=1e-12)
            e2 = np.trace(hamiltonian_h2(P32) @ system).real
            assert e2 == pytest.approx(1.5, abs=1e-12)
            # auxiliary keeps the thermal populations along its poles
            np.testing.assert_allclose(aux, expected_aux, atol=1e-12)

    def test_matches_kraus_channel(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            v = random_su4(rng)
            aux_basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            for layout in LAYOUTS:
                aux_state = layout(np.outer(KET_PLUS, KET_PLUS.conj()))
                spec = PovmSpec(joint_unitary=layout(v), aux_state=aux_state, aux_basis=aux_basis)
                system, _ = povm_stroke(layout(rho), spec)
                channel = sum(k @ rho @ k.conj().T for k in spec.kraus_operators())
                np.testing.assert_allclose(system, channel, atol=1e-12)

    @pytest.mark.parametrize(
        "aux",
        [np.outer(KET_PLUS, KET_PLUS.conj()), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), 0.5 * ID2],
        ids=["pure", "mixed", "maximally-mixed"],
    )
    def test_marginals_of_the_measured_joint_state(self, aux):
        # measuring the auxiliary on its marginal gives both marginals of the joint state measured with I (x) P_i
        rng = np.random.default_rng(42)
        for _ in range(100):
            spec = PovmSpec(
                joint_unitary=haar_unitary(rng),
                aux_state=aux,
                aux_basis=MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
            )
            rho = random_density(rng)
            ref = joint_povm_stroke(rho, spec.joint_unitary, spec.aux_state, spec.aux_basis.projectors())
            for got, want in zip(povm_stroke(rho, spec), ref):
                assert np.max(np.abs(got - want)) <= 1e-15

    def test_stored_arrays_are_immutable(self):
        povm = PovmSpec(joint_unitary=ID4)
        with pytest.raises(ValueError):
            povm.joint_unitary[0, 0] = 2.0
        with pytest.raises(ValueError):
            povm.aux_state[0, 1] = 0.3


class TestConventionalCycle:
    def test_adiabatic_example(self):
        params = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=0.2)
        rec = run_conventional_cycle(params, DriveSpec(p=1.0))
        expected_w = 0.5 * (math.tanh(1.0) - math.tanh(0.3)) * (3.0 - 2.0)
        assert rec.w_total == pytest.approx(expected_w, abs=1e-12)
        assert rec.w_total == pytest.approx(0.235140771752087, abs=1e-12)
        assert rec.q_h == pytest.approx(1.5 * (math.tanh(1.0) - math.tanh(0.3)), abs=1e-12)
        assert rec.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_infinite_hot_bath_nonadiabatic(self):
        params = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=0.0)
        rec = run_conventional_cycle(params, DriveSpec(p=0.75))
        expected = 0.5 * math.tanh(1.0) * (3.0 * 0.5 - 2.0)
        assert rec.w_total == pytest.approx(expected, abs=1e-12)
        assert rec.w_total == pytest.approx(-0.190398538988941, abs=1e-12)
        assert rec.eta is None  # not an engine

    def test_matched_bath_produces_no_work(self):
        # tanh arguments coincide when beta_h omega_x = beta_c omega_z
        params = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0, beta_h=2.0 / 3.0)
        rec = run_conventional_cycle(params, DriveSpec(p=1.0))
        assert rec.w_total == pytest.approx(0.0, abs=1e-12)

    def test_requires_beta_h(self):
        with pytest.raises(ValueError):
            run_conventional_cycle(P32, DriveSpec(p=1.0))


class TestPvmCycle:
    def test_adiabatic_optimum(self):
        rec = run_pvm_cycle(P32, DriveSpec(p=1.0), MeasurementBasis(theta_x=math.pi / 2.0))
        assert rec.w_total == pytest.approx(0.5 * math.tanh(1.0), abs=1e-12)
        assert rec.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_pole_basis_extracts_nothing(self):
        rec = run_pvm_cycle(P32, DriveSpec(p=1.0), MeasurementBasis(theta_x=0.0))
        assert rec.w_total == pytest.approx(0.0, abs=1e-12)
        assert rec.eta is None

    def test_nonadiabatic_optimal_basis(self):
        opt = analytic.pvm_optimal(P32, 0.75)
        rec = run_pvm_cycle(P32, DriveSpec(p=0.75), opt.basis)
        assert rec.w_total == pytest.approx(0.4085479146603032, abs=1e-10)

    def test_phase_invariance(self):
        # work depends on (alpha, phi_x) only through their difference
        rng = np.random.default_rng(12)
        for _ in range(15):
            p = rng.uniform(0.5, 1.0)
            alpha = rng.uniform(0.0, 1.5)
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 1.5)
            shift = rng.uniform(0.0, 2.0)
            w1 = run_pvm_cycle(P32, DriveSpec(p, alpha), MeasurementBasis(theta, phi)).w_total
            w2 = run_pvm_cycle(
                P32, DriveSpec(p, alpha + shift), MeasurementBasis(theta, phi + shift)
            ).w_total
            assert w1 == pytest.approx(w2, abs=1e-10)

    def test_engine_for_every_drive(self):
        # simulated work at the analytically optimal basis stays positive
        for params in (P32, P52):
            for p in np.linspace(0.5, 1.0, 101):
                basis = analytic.pvm_optimal(params, float(p)).basis
                rec = run_pvm_cycle(params, DriveSpec(p=float(p)), basis)
                assert rec.w_total > 0.0


class TestPovmCycle:
    def test_optimal_dilation_work(self):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        rec = run_povm_cycle(P32, DriveSpec(p=1.0), povm)
        expected = 0.5 * (3.0 - 2.0) * (1.0 + math.tanh(1.0))
        assert rec.w_total == pytest.approx(expected, abs=1e-12)
        assert rec.eta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_reset_cost_matches_binary_entropy(self):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        rec = run_povm_cycle(P32, DriveSpec(p=1.0), povm)
        p_hi = 0.5 * (1.0 + math.tanh(1.0))
        entropy = -(p_hi * math.log2(p_hi) + (1.0 - p_hi) * math.log2(1.0 - p_hi))
        assert rec.aux_entropy == pytest.approx(entropy, abs=1e-12)
        assert rec.aux_reset_cost == pytest.approx(math.log(2.0) * entropy, abs=1e-12)
        assert rec.net_work == pytest.approx(rec.w_total - rec.aux_reset_cost, abs=1e-15)

    def test_trivial_dilation_injects_no_heat(self):
        povm = PovmSpec(joint_unitary=ID4)
        rec = run_povm_cycle(P32, DriveSpec(p=0.8), povm)
        assert rec.q_h == pytest.approx(0.0, abs=1e-12)
        assert rec.w_total == pytest.approx(0.0, abs=1e-12)

    def test_identity_cycle_with_mixed_aux_nets_zero(self):
        # a maximally mixed auxiliary that the cycle leaves alone gains no
        # entropy, so resetting it costs nothing
        povm = PovmSpec(joint_unitary=ID4, aux_state=0.5 * ID2)
        rec = run_povm_cycle(P52, DriveSpec(p=0.8), povm)
        assert rec.aux_entropy == pytest.approx(1.0, abs=1e-12)
        assert rec.aux_reset_cost == pytest.approx(0.0, abs=1e-12)
        assert rec.net_work == pytest.approx(0.0, abs=1e-12)

    def test_mixed_aux_pays_only_the_entropy_gained(self):
        rng = np.random.default_rng(22)
        aux = np.diag([0.9, 0.1]).astype(complex)
        s_init = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        for _ in range(10):
            povm = PovmSpec(joint_unitary=random_su4(rng), aux_state=aux)
            rec = run_povm_cycle(P52, DriveSpec(p=0.8), povm, reset_temperature=0.7)
            expected = 0.7 * math.log(2.0) * max(rec.aux_entropy - s_init, 0.0)
            assert rec.aux_reset_cost == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_bad_reset_temperature(self, t):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        with pytest.raises(ValueError, match="reset_temperature must be finite and nonnegative"):
            run_povm_cycle(P32, DriveSpec(p=1.0), povm, reset_temperature=t)

    def test_reset_temperature_scales_cost(self):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        rec1 = run_povm_cycle(P32, DriveSpec(p=1.0), povm, reset_temperature=1.0)
        rec2 = run_povm_cycle(P32, DriveSpec(p=1.0), povm, reset_temperature=2.0)
        assert rec2.aux_reset_cost == pytest.approx(2.0 * rec1.aux_reset_cost, abs=1e-12)
        assert rec2.aux_entropy == pytest.approx(rec1.aux_entropy, abs=1e-14)


class TestFirstLawAndUniversality:
    def test_first_law_random_cycles(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            wz = rng.uniform(0.5, 3.0)
            wx = wz * rng.uniform(1.05, 3.0)
            bc = rng.uniform(0.1, 4.0)
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            kind = rng.integers(0, 3)
            if kind == 0:
                params = EngineParams(wz, wx, bc, beta_h=rng.uniform(0.0, 0.9 * bc))
                rec = run_conventional_cycle(params, drive)
            elif kind == 1:
                params = EngineParams(wz, wx, bc)
                basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                rec = run_pvm_cycle(params, drive, basis)
            else:
                params = EngineParams(wz, wx, bc)
                povm = PovmSpec(
                    joint_unitary=random_su4(rng),
                    aux_basis=MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                )
                rec = run_povm_cycle(params, drive, povm)
            assert rec.first_law_residual <= 1e-10

    def test_adiabatic_efficiency_universality(self):
        rng = np.random.default_rng(15)
        v0 = analytic.optimal_dilation_unitary()
        for _ in range(10):
            wz = 2.0
            wx = wz * rng.uniform(1.1, 3.5)
            bc = rng.uniform(0.2, 4.0)
            eta0 = 1.0 - wz / wx
            drive = DriveSpec(p=1.0)
            conv = run_conventional_cycle(EngineParams(wz, wx, bc, beta_h=0.0), drive)
            pvm = run_pvm_cycle(EngineParams(wz, wx, bc), drive, MeasurementBasis(math.pi / 2.0))
            povm = run_povm_cycle(EngineParams(wz, wx, bc), drive, PovmSpec(joint_unitary=v0))
            for rec in (conv, pvm, povm):
                assert rec.q_h > 0.0
                assert rec.eta == pytest.approx(eta0, abs=1e-10)


class TestRankOneMeasurement:
    """The kernel's sum_i Tr(P_i rho) P_i against sum_i P_i rho P_i in its matmul form."""

    @staticmethod
    def projector_stack(rng, n):
        theta = rng.uniform(0.0, math.pi, n)
        theta[rng.random(n) < 0.2] = 0.0  # the pole bases
        theta[rng.random(n) < 0.2] = math.pi
        return engine.basis_projectors(theta, rng.uniform(0.0, 2.0 * math.pi, n))

    def test_matches_the_matmul_form(self):
        rng = np.random.default_rng(40)
        for k in range(600):
            n = int(rng.integers(1, 17))
            case = k % 4
            if case == 0:  # one shared state against a stack of bases
                rho, projectors = random_density(rng), self.projector_stack(rng, n)
            elif case == 1:  # a stack of states against one shared basis
                rho, projectors = random_density(rng, (n,)), self.projector_stack(rng, 1)[0]
            elif case == 2:  # one basis per state
                rho, projectors = random_density(rng, (n,)), self.projector_stack(rng, n)
            else:  # one state, one basis
                rho, projectors = random_density(rng), self.projector_stack(rng, 1)[0]
            got = engine._measure(rho, projectors)
            want = matmul_measure(rho, projectors)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15


class TestKernel:
    def test_checks_run_only_at_construction(self, monkeypatch):
        params = EngineParams(2.0, 3.0, 1.0, beta_h=0.2)
        drive = DriveSpec(p=0.8, alpha=0.4)
        basis = MeasurementBasis(1.1, 0.3)
        povm = PovmSpec(
            joint_unitary=analytic.optimal_dilation_unitary(), aux_state=np.diag([0.9, 0.1])
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("input check on the cycle path")

        for name in ("as_matrix", "validate_hermitian", "validate_density_matrix", "validate_unitary"):
            monkeypatch.setattr(qmat, name, forbidden)
        run_conventional_cycle(params, drive)
        run_pvm_cycle(params, drive, basis)
        run_povm_cycle(params, drive, povm)
        optimize_pvm_basis(params, drive, grid_size=8)

    def test_stacked_projectors_match_single_bases(self):
        # a theta-row of stacked projectors gives bitwise the per-basis cycle work
        rng = np.random.default_rng(16)
        for _ in range(5):
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            strokes = engine.strokes_i_ii(P52, drive)
            theta = rng.uniform(0.0, math.pi)
            phis = rng.uniform(0.0, 2.0 * math.pi, size=16)
            row = strokes.work(engine._measure(strokes.rho1, engine.basis_projectors(theta, phis)))
            single = [run_pvm_cycle(P52, drive, MeasurementBasis(theta, ph)).w_total for ph in phis]
            np.testing.assert_array_equal(row, single)

    def test_grid_rows_must_agree(self):
        drives = [DriveSpec(p=0.6), DriveSpec(p=0.7)]
        strokes = engine.strokes_i_ii(P32, drives)
        with pytest.raises(ValueError):
            strokes.measure(engine.basis_projectors(np.ones(3), 0.0))
        with pytest.raises(ValueError):
            strokes.thermalize(np.full(3, 0.2))
        with pytest.raises(ValueError):
            engine.strokes_i_ii([EngineParams(2.0, 3.0, 1.0, beta_h=0.2)] * 3, drives)

    def test_stacked_drive_unitaries(self):
        drives = [DriveSpec(p=0.5), DriveSpec(p=0.8, alpha=1.2), DriveSpec(p=1.0, alpha=5.0)]
        stack = drive_unitary(drives)
        assert stack.shape == (3, 2, 2)
        for u, d in zip(stack, drives):
            np.testing.assert_array_equal(u, drive_unitary(d))
