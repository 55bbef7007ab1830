import copy
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest

from qotto import analytic, engine, qmat
from qotto.optimize import optimize_pvm_basis
from qotto.engine import (
    DriveSpec,
    EngineParams,
    MeasurementBasis,
    PovmSpec,
    run_conventional_cycle,
    run_povm_cycle,
    run_pvm_cycle,
)
from qotto.qmat import HADAMARD, ID2, ID4, KET_MINUS, KET_PLUS
from helpers import basis_kets, bloch_vector, drive_reference, h1_reference, h2_reference, haar_unitary, kraus_family

P32 = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0)
P52 = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0)


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


def dilation(rho, spec):
    # Strokes.dilate of rho with a checked spec, as run_povm_cycle calls it: (the record it builds, the system
    # marginal it hands to Strokes.record, the outcome probabilities it hands to qmat._entropy_bits)
    with mock.patch.object(engine.Strokes, "record", autospec=True, side_effect=engine.Strokes.record) as record, \
            mock.patch.object(qmat, "_entropy_bits", wraps=qmat._entropy_bits) as entropy:
        rec = engine.Strokes(rho, 0.0, 0.0, ID2, ID2, 2.0).dilate(spec.joint_unitary, spec, 1.0)  # h2 = (2/2) I
    (_, system, *_), _ = record.call_args
    (probabilities,), _ = entropy.call_args
    return rec, system, probabilities


def spec_stroke(rho, spec):
    # the system marginal and outcome probabilities of the engine's dilation stroke
    return dilation(rho, spec)[1:]


def joint_povm_stroke(rho, v, aux_state, aux_projectors):
    # the joint state rotated by v and measured with the joint projectors I (x) P_i: its (system, auxiliary)
    # marginals and its outcome probabilities Tr[(I x P_i) X (I x P_i)]
    x = v @ engine._kron(rho, aux_state) @ v.conj().swapaxes(-1, -2)
    joint = engine._kron(ID2, aux_projectors)
    branches = joint @ x[..., None, :, :] @ joint
    return (*qmat._marginals(branches[..., 0, :, :] + branches[..., 1, :, :]),
            np.trace(branches, axis1=-2, axis2=-1).real)


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

    # omega_x <= 1e300 and beta_c * omega_x <= 1e300 keep sums of a few gaps and Gibbs
    # exponents finite; every cycle runs, warning-free, at each bound
    @pytest.mark.parametrize("omega_x,beta_c", [(1e300, 1.0), (5.0, 2e299), (1e150, 1e150), (1e300, 1e-300)])
    def test_cycles_run_at_the_bounds(self, omega_x, beta_c):
        assert omega_x <= 1e300 and beta_c * omega_x <= 1e300
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
        with pytest.raises(ValueError, match="omega_x must be at most 1e300"):
            EngineParams(omega_z=2.0, omega_x=math.nextafter(1e300, math.inf), beta_c=1e-100)
        with pytest.raises(ValueError, match="omega_x must be at most 1e300"):
            EngineParams(omega_z=2.0, omega_x=1e308, beta_c=1e-300)  # the projective closed forms overflow

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


EPS = np.finfo(float).eps


class TestBasisProjectors:
    """basis_projectors, (I +- n.sigma)/2 of the chart axis, against the outer products of the basis kets."""

    @staticmethod
    def angle_stacks():
        # (theta, phi) at raw angles beyond the chart, the exact poles among the thetas, as a theta column against a
        # phi row, a scalar theta against a phi array and a theta array against a scalar phi
        rng = np.random.default_rng(30)
        thetas = np.concatenate([[0.0, math.pi], rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 46)])
        phis = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 48)
        yield thetas[:, None], phis
        for theta in (0.0, math.pi, float(thetas[2])):
            yield theta, phis
        yield thetas, float(phis[0])

    @staticmethod
    def ket_projectors(theta, phi):
        k = basis_kets(theta, phi)
        return k[..., :, None] * k.conj()[..., None, :]

    def test_matches_the_ket_outer_products(self):
        points = 0
        for theta, phi in self.angle_stacks():
            got = engine.basis_projectors(theta, phi)
            assert got.shape == np.broadcast(theta, phi).shape + (2, 2, 2) and got.dtype == complex
            np.testing.assert_allclose(got, self.ket_projectors(theta, phi), rtol=0.0, atol=4 * EPS)
            points += np.broadcast(theta, phi).size
        assert points >= 2000

    def test_each_stacked_basis_is_its_single_basis(self):
        for theta, phi in self.angle_stacks():
            stack = engine.basis_projectors(theta, phi)
            for index in np.ndindex(stack.shape[:-3]):
                th, ph = np.broadcast_arrays(theta, phi)
                assert stack[index].tobytes() == engine.basis_projectors(th[index], ph[index]).tobytes()

    def test_a_hermitian_resolution_of_the_identity(self):
        for theta, phi in self.angle_stacks():
            p = engine.basis_projectors(theta, phi)
            np.testing.assert_array_equal(p[..., 0, 1], p[..., 1, 0].conj())
            np.testing.assert_allclose(p[..., 0, :, :] + p[..., 1, :, :], np.broadcast_to(ID2, p.shape[:-3] + (2, 2)),
                                       rtol=0.0, atol=EPS)
            np.testing.assert_allclose(p[..., 0, :, :] @ p[..., 1, :, :], 0.0, rtol=0.0, atol=4 * EPS)

    def test_first_projector_is_along_the_chart_axis(self):
        for theta, phi in self.angle_stacks():
            p0 = engine.basis_projectors(theta, phi)[..., 0, :, :]
            th, ph = np.broadcast_arrays(theta, phi)
            for index in np.ndindex(p0.shape[:-2]):
                t, f = float(th[index]), float(ph[index])
                n = (math.cos(t), -math.sin(t) * math.sin(f), math.sin(t) * math.cos(f))
                np.testing.assert_allclose(bloch_vector(p0[index]), n, rtol=0.0, atol=2 * EPS)

    def test_no_chart_seam_at_the_pole(self):
        # at the poles theta = 0 and pi phi has no meaning, and the projectors keep their bytes whatever it is, on
        # the chart or off it; the float pi is 1.2e-16 short of the pole
        rng = np.random.default_rng(31)
        phis = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 32), rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 64)])
        for theta in (0.0, math.pi):
            pole = engine.basis_projectors(theta, 0.0).tobytes()
            for p in engine.basis_projectors(theta, phis):
                assert p.tobytes() == pole
            assert {engine.basis_projectors(theta, float(ph)).tobytes() for ph in phis} == {pole}
            assert {MeasurementBasis(theta, float(ph)).projectors().tobytes() for ph in phis[:32]} == {pole}


def cold_constants(params):
    # (h1, h2, rho0, e0) that the stroke-I/II setup builds from the fields of params
    return engine._cold_constants(params.omega_z, params.omega_x, params.beta_c)


def drive_unitary(drive):
    # the u that the stroke-I/II setup builds from the fields of drive
    return engine._drive_unitaries(drive.p, drive.alpha)[0]


class TestHamiltonians:
    # the (h1, h2) of the stroke-I/II setup at an EngineParams
    def test_h1_diagonal(self):
        np.testing.assert_allclose(
            cold_constants(P32)[0], np.diag([1.0, -1.0]).astype(complex), atol=1e-15
        )

    def test_h2_eigenpairs(self):
        # eigenvectors carry no phase convention, so their projectors are compared
        vals, vecs = qmat.hermitian_eig(engine.strokes_i_ii(P32, DriveSpec(p=0.8)).h2)
        np.testing.assert_allclose(vals, [-1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(np.outer(vecs[:, 1], vecs[:, 1].conj()), np.outer(KET_PLUS, KET_PLUS), atol=1e-12)
        np.testing.assert_allclose(np.outer(vecs[:, 0], vecs[:, 0].conj()), np.outer(KET_MINUS, KET_MINUS), atol=1e-12)

    def test_hadamard_relates_equal_gaps(self):
        p = EngineParams(omega_z=1.0, omega_x=1.0 + 1e-12, beta_c=1.0)
        h1, h2 = cold_constants(p)[:2]
        np.testing.assert_allclose(HADAMARD @ h1 @ HADAMARD, h2, atol=1e-10)


class TestThermalState:
    # engine._gibbs is the kernel's unchecked Gibbs state; its beta comes from EngineParams.
    def test_infinite_temperature(self):
        np.testing.assert_allclose(engine._gibbs(h2_reference(P32), 0.0), ID2 / 2.0, atol=1e-14)

    def test_gibbs_populations_and_energy(self):
        rho = engine._gibbs(h1_reference(P32), 1.0)
        z = 2.0 * math.cosh(1.0)
        np.testing.assert_allclose(np.diag(rho).real, [math.exp(-1.0) / z, math.exp(1.0) / z], atol=1e-12)
        energy = np.trace(h1_reference(P32) @ rho).real
        assert energy == pytest.approx(-math.tanh(1.0), abs=1e-12)

    def test_zero_temperature_limit(self):
        rho = engine._gibbs(h1_reference(P32), 50.0)
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
    # the u of the stroke-I/II setup at a DriveSpec, from engine._drive_unitaries
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
            np.testing.assert_allclose(u, drive_reference(d), atol=1e-12)
            amp = KET_PLUS.conj() @ u[:, 0]
            assert abs(amp) ** 2 == pytest.approx(d.p, abs=1e-14)

    def test_adiabatic_population_transfer(self):
        rho0 = engine._gibbs(h1_reference(P32), 1.0)
        u = engine._drive_unitaries(1.0, 1.3)[0]
        rho1 = u @ rho0 @ u.conj().T
        pops = np.diag(rho0).real
        expected = pops[0] * np.outer(KET_PLUS, KET_PLUS.conj()) + pops[1] * np.outer(KET_MINUS, KET_MINUS.conj())
        np.testing.assert_allclose(rho1, expected, atol=1e-12)


class TestPvmStroke:
    def test_fixed_point(self):
        basis = MeasurementBasis(theta_x=1.1, phi_x=0.4)
        pp, pm = basis.projectors()
        rho = 0.3 * pp + 0.7 * pm
        np.testing.assert_allclose(engine._measure(rho, basis.projectors()), rho, atol=1e-12)

    def test_computational_basis_zeroes_energy(self):
        # theta = pi/2 measures in {|0>, |1>}; the post-measurement state
        # carries no sigma_x polarization.
        rho0 = engine._gibbs(h1_reference(P32), 1.0)
        u = drive_reference(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        rho2 = engine._measure(rho1, MeasurementBasis(theta_x=math.pi / 2.0).projectors())
        e2 = np.trace(h2_reference(P32) @ rho2).real
        assert e2 == pytest.approx(0.0, abs=1e-12)

    def test_pole_basis_injects_no_heat(self):
        rho0 = engine._gibbs(h1_reference(P32), 1.0)
        u = drive_reference(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        h2 = h2_reference(P32)
        e1 = np.trace(h2 @ rho1).real
        rho2 = engine._measure(rho1, MeasurementBasis(theta_x=0.0).projectors())
        e2 = np.trace(h2 @ rho2).real
        assert e2 == pytest.approx(e1, abs=1e-12)
        assert e2 == pytest.approx(-0.5 * 3.0 * math.tanh(1.0), abs=1e-12)


class TestPovmSpec:
    def test_optimal_dilation_kraus_complete(self):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        total = sum(k.conj().T @ k for k in kraus_family(povm))
        np.testing.assert_allclose(total, ID2, atol=1e-12)
        assert len(kraus_family(povm)) == 2

    def test_random_specs_kraus_complete(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            spec = PovmSpec(
                joint_unitary=haar_unitary(rng),
                aux_basis=MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
            )
            total = sum(k.conj().T @ k for k in kraus_family(spec))
            np.testing.assert_allclose(total, ID2, atol=1e-10)

    def test_mixed_aux_kraus_complete(self):
        rng = np.random.default_rng(8)
        aux = np.diag([0.3, 0.7]).astype(complex)
        spec = PovmSpec(joint_unitary=haar_unitary(rng), aux_state=aux)
        total = sum(k.conj().T @ k for k in kraus_family(spec))
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
            v = haar_unitary(rng) @ (ID4 + 0.5 * eps * h)
            assert np.max(np.abs(v.conj().T @ v - ID4)) <= eps + 1e-15
            spec = PovmSpec(joint_unitary=v, aux_state=aux)
            total = sum(k.conj().T @ k for k in kraus_family(spec))
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

    @pytest.mark.parametrize("aux_basis", [(0.1, 0.2), None, "plus"])
    def test_rejects_an_aux_basis_that_is_not_a_basis(self, aux_basis):
        with pytest.raises(ValueError, match="aux_basis must be a MeasurementBasis"):
            PovmSpec(joint_unitary=ID4, aux_basis=aux_basis)


def count_eigen_solves(monkeypatch) -> dict:
    # Count calls of np.linalg.eigh and eigvalsh from here on, passing them through.
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


MIXED_AUX = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])


class TestAuxiliaryCheck:
    """The default auxiliary is checked once, at import; a given one with one eigen-solve."""

    def test_default_auxiliary_runs_no_eigen_solver(self, monkeypatch):
        v = analytic.optimal_dilation_unitary()
        calls = count_eigen_solves(monkeypatch)
        spec = PovmSpec(joint_unitary=v, aux_basis=MeasurementBasis(0.4, 1.0))
        assert calls == {"eigh": 0, "eigvalsh": 0}
        assert spec.aux_state is engine._PLUS_STATE
        assert spec._aux_entropy_init == engine._PLUS_ENTROPY

    @pytest.mark.parametrize(
        "aux", [np.outer(KET_PLUS, KET_PLUS.conj()), MIXED_AUX, 0.5 * ID2], ids=["pure", "mixed", "maximally-mixed"]
    )
    def test_given_auxiliary_runs_one_eigen_solve(self, monkeypatch, aux):
        v = analytic.optimal_dilation_unitary()
        want = float(qmat._entropy_bits(np.linalg.eigvalsh(aux)))
        calls = count_eigen_solves(monkeypatch)
        spec = PovmSpec(joint_unitary=v, aux_state=aux)
        assert calls == {"eigh": 0, "eigvalsh": 1}
        assert spec._aux_entropy_init.hex() == want.hex()

    def test_default_constant_equals_an_equal_distinct_state(self):
        params = EngineParams(omega_z=1.5, omega_x=3.0, beta_c=0.7)
        rng = np.random.default_rng(20)
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        assert plus is not engine._PLUS_STATE
        np.testing.assert_array_equal(plus, engine._PLUS_STATE)
        # eigvalsh gives |+><+| the spectrum [0, 1 - 2 eps], which the entropy normalizes: S_init is +0
        assert engine._PLUS_ENTROPY.hex() == (0.0).hex()
        for _ in range(20):
            v = haar_unitary(rng)
            basis = MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            default = PovmSpec(joint_unitary=v, aux_basis=basis)
            given = PovmSpec(joint_unitary=v, aux_state=plus, aux_basis=basis)
            assert given.aux_state is not engine._PLUS_STATE
            assert given._aux_entropy_init.hex() == default._aux_entropy_init.hex()
            assert ledger_hex(run_povm_cycle(params, drive, given)) == ledger_hex(run_povm_cycle(params, drive, default))

    def test_default_constant_is_read_only(self):
        assert not engine._PLUS_STATE.flags.writeable
        with pytest.raises(ValueError):
            engine._PLUS_STATE[...] = 0.0

    def test_copies_of_a_default_spec_reproduce_the_ledger(self):
        params, drive, _, _ = cycle_specs(0.8, 1.1)
        spec = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary(), aux_basis=MeasurementBasis(1.1, 2.1))
        ledger = ledger_hex(run_povm_cycle(params, drive, spec))
        for same in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert same is not spec and not same.aux_state.flags.writeable
            np.testing.assert_array_equal(same.aux_state, engine._PLUS_STATE)
            assert same._aux_entropy_init.hex() == engine._PLUS_ENTROPY.hex()
            assert ledger_hex(run_povm_cycle(params, drive, same)) == ledger


class TestPovmStroke:
    def test_identity_dilation_leaves_system(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            for layout in LAYOUTS:
                povm = PovmSpec(joint_unitary=layout(ID4), aux_basis=MeasurementBasis(0.0))
                system, _ = spec_stroke(rho, povm)
                np.testing.assert_allclose(system, rho, atol=1e-12)

    def test_optimal_dilation_pins_plus(self):
        rho0 = engine._gibbs(h1_reference(P32), 1.0)
        u = drive_reference(DriveSpec(p=1.0))
        rho1 = u @ rho0 @ u.conj().T
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        tz = math.tanh(1.0)
        for layout in LAYOUTS:
            povm = PovmSpec(joint_unitary=layout(analytic.optimal_dilation_unitary()))
            system, probabilities = spec_stroke(rho1, povm)
            np.testing.assert_allclose(system, plus, atol=1e-12)
            e2 = np.trace(h2_reference(P32) @ system).real
            assert e2 == pytest.approx(1.5, abs=1e-12)
            # auxiliary keeps the thermal populations along its poles, |+> then |->
            np.testing.assert_allclose(probabilities, [0.5 * (1.0 - tz), 0.5 * (1.0 + tz)], atol=1e-12)

    def test_matches_kraus_channel(self):
        # with a pure, a mixed and the maximally mixed auxiliary, whose Kraus families have two and four operators
        rng = np.random.default_rng(10)
        for _ in range(10):
            v = haar_unitary(rng)
            aux_basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            for aux, rank in (np.outer(KET_PLUS, KET_PLUS.conj()), 1), (MIXED_AUX, 2), (0.5 * ID2, 2):
                for layout in LAYOUTS:
                    spec = PovmSpec(joint_unitary=layout(v), aux_state=layout(aux), aux_basis=aux_basis)
                    system, _ = spec_stroke(rho, spec)
                    family = kraus_family(spec)
                    assert len(family) == 2 * rank
                    channel = sum(k @ rho @ k.conj().T for k in family)
                    np.testing.assert_allclose(system, channel, atol=1e-12)

    @pytest.mark.parametrize(
        "aux",
        [np.outer(KET_PLUS, KET_PLUS.conj()), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), 0.5 * ID2],
        ids=["pure", "mixed", "maximally-mixed"],
    )
    def test_marginals_of_the_measured_joint_state(self, aux):
        # the rotated state's marginals give the system marginal and outcome probabilities of the joint state
        # measured with I (x) P_i
        rng = np.random.default_rng(42)
        for _ in range(100):
            spec = PovmSpec(
                joint_unitary=haar_unitary(rng),
                aux_state=aux,
                aux_basis=MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
            )
            rho = random_density(rng)
            system, _, probabilities = joint_povm_stroke(
                rho, spec.joint_unitary, spec.aux_state, spec.aux_basis.projectors()
            )
            for got, want in zip(spec_stroke(rho, spec), (system, probabilities)):
                assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("aux", [
        np.outer(KET_PLUS, KET_PLUS.conj()), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), 0.5 * ID2,
    ], ids=["pure", "mixed", "maximally-mixed"])
    def test_entropy_of_the_outcome_probabilities_is_s_post(self, aux):
        # the measured auxiliary sum_i w_i P_i has spectrum w, so the Shannon entropy of w the engine reports is
        # the von Neumann entropy of that state, taken here from its eigenvalues
        rng = np.random.default_rng(43)
        for j in range(200):
            theta = {0: 0.0, 1: math.pi}.get(j % 4, rng.uniform(0.0, math.pi))  # both poles, and in between
            spec = PovmSpec(
                joint_unitary=haar_unitary(rng),
                aux_state=aux,
                aux_basis=MeasurementBasis(theta, rng.uniform(0.0, 2.0 * math.pi)),
            )
            rho = random_density(rng)
            _, measured, _ = joint_povm_stroke(rho, spec.joint_unitary, spec.aux_state, spec.aux_basis.projectors())
            s_post = qmat._entropy_bits(np.linalg.eigvalsh(measured))
            assert abs(dilation(rho, spec)[0].aux_entropy - s_post) <= 1e-14

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
            povm = PovmSpec(joint_unitary=haar_unitary(rng), aux_state=aux)
            rec = run_povm_cycle(P52, DriveSpec(p=0.8), povm, reset_temperature=0.7)
            expected = 0.7 * math.log(2.0) * max(rec.aux_entropy - s_init, 0.0)
            assert rec.aux_reset_cost == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_bad_reset_temperature(self, t):
        povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
        with pytest.raises(ValueError, match="t_c must be finite and nonnegative"):
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
                    joint_unitary=haar_unitary(rng),
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

        for name in ("as_matrix", "validate_hermitian", "_density_spectrum", "validate_unitary"):
            monkeypatch.setattr(qmat, name, forbidden)
        run_conventional_cycle(params, drive)
        run_pvm_cycle(params, drive, basis)
        run_povm_cycle(params, drive, povm)
        optimize_pvm_basis(params, drive, grid_size=8)

    def test_stacked_projectors_match_single_bases(self):
        # a theta-row of stacked projectors, and a (theta-block x phi) stack, give bitwise the per-basis cycle work
        rng = np.random.default_rng(16)
        for _ in range(5):
            drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
            strokes = engine.strokes_i_ii(P52, drive)
            theta = rng.uniform(0.0, math.pi)
            phis = rng.uniform(0.0, 2.0 * math.pi, size=16)
            row = strokes.work(engine._measure(strokes.rho1, engine.basis_projectors(theta, phis)))
            single = [run_pvm_cycle(P52, drive, MeasurementBasis(theta, ph)).w_total for ph in phis]
            np.testing.assert_array_equal(row, single)
            thetas = rng.uniform(0.0, math.pi, size=3)
            block = strokes.work(engine._measure(strokes.rho1, engine.basis_projectors(thetas[:, None], phis)))
            single = [[run_pvm_cycle(P52, drive, MeasurementBasis(th, ph)).w_total for ph in phis] for th in thetas]
            np.testing.assert_array_equal(block, single)

    def test_grid_rows_must_agree(self):
        ps = np.array([0.6, 0.7])
        strokes = engine._strokes(P32.omega_z, P32.omega_x, P32.beta_c, ps, 0.0)
        with pytest.raises(ValueError):
            strokes.measure(engine.basis_projectors(np.ones(3), 0.0))
        with pytest.raises(ValueError):
            strokes.record(engine._gibbs(strokes.h2, np.full(3, 0.2)))
        with pytest.raises(ValueError):
            engine._strokes(np.full(3, 2.0), 3.0, 1.0, ps, 0.0)

    def test_stacked_drive_unitaries(self):
        # stacked drives give each row the unitaries, and the stroke-I/II setup, of the drive's own fields
        drives = [DriveSpec(p=0.5), DriveSpec(p=0.8, alpha=1.2), DriveSpec(p=1.0, alpha=5.0)]
        ps, alphas = np.array([d.p for d in drives]), np.array([d.alpha for d in drives])
        stack, stack_dag = engine._drive_unitaries(ps, alphas)
        assert stack.shape == stack_dag.shape == (3, 2, 2)
        strokes = engine._strokes(P32.omega_z, P32.omega_x, P32.beta_c, ps, alphas)
        for i, (u, u_dag, d) in enumerate(zip(stack, stack_dag, drives)):
            single = engine._drive_unitaries(d.p, d.alpha)
            np.testing.assert_array_equal(u, single[0])
            np.testing.assert_array_equal(u_dag, single[1])
            spec = engine.strokes_i_ii(P32, d)
            assert strokes.rho1[i].tobytes() == spec.rho1.tobytes() and strokes.uh1u[i].tobytes() == spec.uh1u.tobytes()

    def test_stacked_cold_constants(self):
        # gaps and cold inverse temperatures broadcast: one shared h1 with an array of beta_c, as fig4 runs
        specs = [EngineParams(2.0, 5.0, 1.0 / t) for t in (0.05, 0.7, 4.0)]
        h1, h2, rho0, e0 = engine._cold_constants(2.0, 5.0, 1.0 / np.array([0.05, 0.7, 4.0]))
        assert h1.shape == h2.shape == (2, 2) and rho0.shape == (3, 2, 2) and e0.shape == (3,)
        for i, spec in enumerate(specs):
            single = cold_constants(spec)
            assert h1.tobytes() == single[0].tobytes() and h2.tobytes() == single[1].tobytes()
            assert rho0[i].tobytes() == single[2].tobytes() and float(e0[i]).hex() == float(single[3]).hex()
            assert float(e0[i]).hex() == float(engine.strokes_i_ii(spec, DriveSpec(p=1.0)).e0).hex()


def cycle_specs(p, theta):
    # one (params, drive, basis, povm) point at a gap ratio of exactly 2, built afresh on every call
    params = EngineParams(omega_z=1.5, omega_x=3.0, beta_c=0.7, beta_h=0.2)
    basis = MeasurementBasis(theta, 0.9)
    povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary(), aux_basis=MeasurementBasis(theta, 2.1))
    return params, DriveSpec(p=p, alpha=1.3), basis, povm


def three_cycles(params, drive, basis, povm):
    return (
        run_conventional_cycle(params, drive),
        run_pvm_cycle(params, drive, basis),
        run_povm_cycle(params, drive, povm),
    )


def ledger_hex(record):
    # every CycleRecord field and property as float.hex, None kept
    names = [f.name for f in dataclasses.fields(record)] + ["net_work", "first_law_residual"]
    return {n: None if getattr(record, n) is None else float(getattr(record, n)).hex() for n in names}


class TestSpecConstants:
    """A frozen spec computes its stroke constants on first use and keeps them read-only."""

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_reused_spec_equals_fresh_spec(self, p, theta):
        reused = cycle_specs(p, theta)
        three_cycles(*reused)  # fills the caches
        for again, fresh in zip(three_cycles(*reused), three_cycles(*cycle_specs(p, theta))):
            assert ledger_hex(again) == ledger_hex(fresh)

    def test_reused_specs_build_their_constants_once(self, monkeypatch):
        specs = cycle_specs(0.8, 1.1)
        three_cycles(*specs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a spec's constant rebuilt")

        for name in ("_gibbs", "_cold_constants", "_drive_unitaries", "basis_projectors", "_strokes"):
            monkeypatch.setattr(engine, name, forbidden)
        three_cycles(*specs)

    def test_drive_alternating_between_params_equals_fresh_specs(self):
        # the slot holds the last params by identity, so a value-equal one builds the setup anew, as another one does
        params, _, basis, povm = cycle_specs(0.8, 1.1)
        drive = DriveSpec(p=0.8, alpha=1.3)
        equal = dataclasses.replace(params)
        other = EngineParams(omega_z=1.2, omega_x=3.1, beta_c=0.9, beta_h=0.3)
        assert equal == params and equal is not params and other != params
        for prm in (params, equal, params, other, params, other, equal, equal):
            records = three_cycles(prm, drive, basis, povm)
            assert vars(drive)["_strokes_slot"][0] is prm
            fresh = three_cycles(dataclasses.replace(prm), dataclasses.replace(drive), basis, povm)
            assert [ledger_hex(r) for r in records] == [ledger_hex(r) for r in fresh]

    def test_cached_arrays_are_read_only(self):
        params, drive, basis, povm = cycle_specs(0.8, 1.1)
        three_cycles(params, drive, basis, povm)
        strokes = vars(drive)["_strokes_slot"][1]  # the drive's stroke-I/II setup with params
        assert not isinstance(strokes.e0, np.ndarray) and not isinstance(strokes.e1, np.ndarray)  # numpy scalars
        for a in (strokes.h2, params._hot_state, strokes.rho1, strokes.uh1u, basis.projectors(),
                  povm.aux_basis.projectors()):
            with pytest.raises(ValueError):
                a[...] = 0.0
        assert basis.projectors() is basis.projectors() and engine.strokes_i_ii(params, drive) is strokes

    def test_replace_copy_and_pickle_give_a_fresh_cache(self):
        params, drive, basis, _ = cycle_specs(0.8, 1.1)
        run_conventional_cycle(params, drive)
        run_pvm_cycle(params, drive, basis)
        assert "_strokes_slot" in vars(drive)

        def setup_arrays(drive):  # the arrays of a drive's stroke-I/II setup with params, built into its slot
            strokes = engine.strokes_i_ii(params, drive)
            return strokes.rho1, strokes.uh1u

        for spec, name, cached_arrays, change in (
            (params, "_hot_state", lambda s: s._hot_state, {"beta_h": 0.1}),
            (drive, "_strokes_slot", setup_arrays, {"p": 0.6}),
            (basis, "_projectors", lambda s: s._projectors, {"theta_x": 0.4}),
        ):
            assert name in vars(spec)
            cached = cached_arrays(spec)
            other = dataclasses.replace(spec, **change)
            assert not {name, "_strokes_slot"} & vars(other).keys()
            assert not np.array_equal(cached_arrays(other)[0], cached[0])
            copies = (dataclasses.replace(spec), copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec)))
            for same in copies:
                assert same == spec and not {name, "_strokes_slot"} & vars(same).keys()
                again = cached_arrays(same)
                for x, y in zip(*(z if isinstance(z, tuple) else (z,) for z in (again, cached))):
                    assert x is not y and not x.flags.writeable
                    np.testing.assert_array_equal(x, y)
        # a PovmSpec is built anew from its fields: checked, read-only and with its own S_init
        povm = PovmSpec(analytic.optimal_dilation_unitary(), np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), basis)
        ledger = ledger_hex(run_povm_cycle(params, drive, povm))
        for same in (dataclasses.replace(povm), copy.copy(povm), copy.deepcopy(povm), pickle.loads(pickle.dumps(povm))):
            assert same is not povm and same.aux_basis == povm.aux_basis
            for x, y in ((same.joint_unitary, povm.joint_unitary), (same.aux_state, povm.aux_state)):
                assert x is not y and not x.flags.writeable
                np.testing.assert_array_equal(x, y)
            assert vars(same)["_aux_entropy_init"] == povm._aux_entropy_init > 0.0
            assert ledger_hex(run_povm_cycle(params, drive, same)) == ledger

    def test_cycles_on_built_specs_run_no_eigen_solver(self, monkeypatch):
        params, drive, basis, povm = cycle_specs(0.8, 1.1)
        mixed = dataclasses.replace(povm, aux_state=np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        first = [three_cycles(params, drive, basis, x) for x in (povm, mixed)]  # fills the caches

        def forbidden(*args, **kwargs):
            raise AssertionError("an eigen-solver ran")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        for x, records in zip((povm, mixed), first):
            again = three_cycles(params, drive, basis, x)
            assert [ledger_hex(r) for r in again] == [ledger_hex(r) for r in records]

    def test_specs_compare_by_their_fields(self):
        warm = cycle_specs(0.8, 1.1)
        three_cycles(*warm)
        cold = cycle_specs(0.8, 1.1)
        for a, b in zip(warm[:3], cold[:3]):
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert warm[0] != dataclasses.replace(warm[0], beta_c=0.8)
        assert warm[1] != dataclasses.replace(warm[1], alpha=0.0)
        assert warm[2] != dataclasses.replace(warm[2], phi_x=0.0)


# Seeded points (omega_z, omega_x, beta_c, beta_h, p, alpha, theta, phi); the third drives at p = 1/2, where the
# two-bath and projective cycles run as no engine.
SCALE_POINTS = [
    (2.0, 3.0, 1.0, 0.2, 1.0, 0.0, 0.5 * math.pi, 0.0),
    (1.5, 4.2, 0.7, 0.1, 0.8, 1.3, 1.1, 0.4),
    (2.0, 5.0, 3.0, 2.5, 0.5, 0.0, 0.0, 0.0),
    (1.0, 1.9, 0.4, 0.05, 0.93, 4.0, 2.5, 5.9),
]
SCALED_FIELDS = ("e0", "e1", "e2", "e3", "w1", "w2", "w_total", "q_c", "q_h", "aux_reset_cost", "net_work",
                 "first_law_residual")


def scaled_records(point, s):
    # the simulated cycles and the closed forms at energies scaled by s and inverse temperatures by 1/s
    wz, wx, bc, bh, p, alpha, theta, phi = point
    params = EngineParams(s * wz, s * wx, bc / s, beta_h=bh / s)
    drive, basis = DriveSpec(p, alpha), MeasurementBasis(theta, phi)
    povm = PovmSpec(joint_unitary=haar_unitary(np.random.default_rng(7)), aux_basis=MeasurementBasis(phi / 2.0))
    return {
        "conventional": run_conventional_cycle(params, drive),
        "pvm": run_pvm_cycle(params, drive, basis),
        "povm": run_povm_cycle(params, drive, povm),
        "povm v0": run_povm_cycle(params, drive, PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())),
        "conventional closed form": analytic.conventional_record(params, p),
        "pvm closed form": analytic.pvm_nonadiabatic_record(params, drive, basis),
    }


def scaled_grid_rows(point, s):
    # one fig2-shaped and one fig4-shaped grid record through the array path, at the same scaling
    wz, wx, bc, bh, *_ = point
    params = EngineParams(s * wz, s * wx, bc / s)
    ps, t_cs = np.linspace(0.5, 1.0, 7), s * np.linspace(0.05, 4.0, 7)
    strokes = engine._strokes(params.omega_z, params.omega_x, params.beta_c, ps, 0.0)
    measured = engine._measure(strokes.rho1, engine.basis_projectors(analytic.pvm_optimal(params, ps).theta, 0.0))
    hot = engine._gibbs(strokes.h2, np.array([[bh / s], [0.0]]))
    fig2 = strokes.record(np.concatenate((np.broadcast_to(hot, (2,) + measured.shape), measured[None])))
    strokes = engine._strokes(s * wz, s * wx, 1.0 / t_cs, 1.0, 0.0)
    fig4 = strokes.dilate(analytic.optimal_dilation_unitary(), PovmSpec(joint_unitary=ID4), t_cs)
    return {"fig2": fig2, "fig4": fig4}


def hexes(value):
    return None if value is None else [float(x).hex() for x in np.ravel(value)]


class TestEnergyScale:
    """A ledger scales with its energies: scaling the gaps by s and beta by 1/s scales every energy by s."""

    @pytest.mark.parametrize("point", SCALE_POINTS)
    def test_efficiency_does_not_depend_on_the_unit(self, point):
        unit = scaled_records(point, 1.0)
        for s in (2.0**-60, 2.0**60):
            for name, rec in scaled_records(point, s).items():
                assert hexes(rec.eta) == hexes(unit[name].eta), (name, s)

    @pytest.mark.parametrize("k", [-40, -10, 10, 40])
    @pytest.mark.parametrize("point", SCALE_POINTS)
    def test_every_field_scales_exactly(self, point, k):
        # s = 2^k scales without rounding, so every energy field is s times the unit one bit for bit
        s = 2.0**k
        for unit, scaled in ((scaled_records(point, 1.0), scaled_records(point, s)),
                             (scaled_grid_rows(point, 1.0), scaled_grid_rows(point, s))):
            for name in unit:
                for f in SCALED_FIELDS:
                    assert hexes(getattr(scaled[name], f)) == hexes(s * np.asarray(getattr(unit[name], f))), (name, f)
                for f in ("eta", "aux_entropy"):
                    assert hexes(getattr(scaled[name], f)) == hexes(getattr(unit[name], f)), (name, f)
