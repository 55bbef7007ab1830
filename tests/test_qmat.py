import math

import numpy as np
import pytest

from qotto import qmat
from qotto.engine import MeasurementBasis, PovmSpec, _kron
from qotto.qmat import (
    HADAMARD,
    ID2,
    ID4,
    KET_PLUS,
    SIGMA_X,
    SIGMA_Z,
    _entropy_bits,
    _exp_i,
    hermitian_eig,
)
from helpers import KET_MINUS


def random_hermitian(rng, dim, scale=5.0):
    m = rng.uniform(-scale, scale, (dim, dim)) + 1j * rng.uniform(-scale, scale, (dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestProjector:
    # Measurement projectors are built from the angles of a MeasurementBasis.
    def test_normalizes(self):
        pp, pm = MeasurementBasis(theta_x=2.0, phi_x=4.0).projectors()
        for p in (pp, pm):
            np.testing.assert_allclose(p @ p, p, atol=1e-15)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-15)


class TestTensorProduct:
    # engine._kron, the kernel's Kronecker product of trailing 2x2 matrices, system factor first.
    def test_identity(self):
        np.testing.assert_array_equal(_kron(ID2, ID2), ID4)

    def test_sigma_z_pair_is_diagonal(self):
        # direct 4x4 expansion by hand
        expected = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        np.testing.assert_array_equal(_kron(SIGMA_Z, SIGMA_Z), expected)

    def test_sigma_x_hamiltonian_with_identity(self):
        # (wx/2) sigma_x (x) I: two +wx/2 levels spanned by |++>, |+->,
        # two -wx/2 levels spanned by |-+>, |-->
        wx = 3.0
        joint = _kron(0.5 * wx * SIGMA_X, ID2)
        vals, vecs = hermitian_eig(joint)
        np.testing.assert_allclose(vals, [-1.5, -1.5, 1.5, 1.5], atol=1e-12)
        top = vecs[:, 2:]
        span = top @ top.conj().T
        plus_plus = np.kron(KET_PLUS, KET_PLUS)
        plus_minus = np.kron(KET_PLUS, KET_MINUS)
        expected = np.outer(plus_plus, plus_plus.conj()) + np.outer(plus_minus, plus_minus.conj())
        np.testing.assert_allclose(span, expected, atol=1e-12)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            lhs = np.trace(_kron(a, b))
            np.testing.assert_allclose(lhs, np.trace(a) * np.trace(b), atol=1e-12)

    def test_stacks_broadcast_row_by_row(self):
        # leading axes broadcast, and each row is np.kron of its pair, bit for bit
        rng = np.random.default_rng(13)
        a = np.stack([random_hermitian(rng, 2) for _ in range(3)])[:, None]  # (3, 1, 2, 2)
        b = np.stack([random_hermitian(rng, 2) @ random_hermitian(rng, 2) for _ in range(4)])  # (4, 2, 2)
        joint = _kron(a, b)
        assert joint.shape == (3, 4, 4, 4)
        for i in range(3):
            for j in range(4):
                np.testing.assert_array_equal(joint[i, j], np.kron(a[i, 0], b[j]))

    def test_dimension_mismatch(self):
        # operators are 2x2 or 4x4; a joint unitary must be 4x4
        with pytest.raises(ValueError):
            qmat.as_matrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            qmat.as_matrix(np.ones((2, 4)))
        with pytest.raises(ValueError):
            PovmSpec(joint_unitary=ID2)


class TestPartialTrace:
    # qmat._marginals is the kernel's unchecked (system, auxiliary) partial trace.
    def test_product_state_factors(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            rho_s = random_density(rng, 2)
            rho_a = random_density(rng, 2)
            joint = np.kron(rho_s, rho_a)
            system, aux = qmat._marginals(joint)
            np.testing.assert_allclose(system, rho_s, atol=1e-12)
            np.testing.assert_allclose(aux, rho_a, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        for marginal in qmat._marginals(rho):
            np.testing.assert_allclose(marginal, ID2 / 2.0, atol=1e-12)

    def test_optimal_dilation_marginal_is_plus(self):
        # Joint state after the swap-type dilation applied to the driven
        # thermal state with a pure |+> auxiliary: the system marginal is |+><+|.
        tz = math.tanh(1.0)
        p1, p2 = 0.5 * (1.0 - tz), 0.5 * (1.0 + tz)
        rho1 = p1 * np.outer(KET_PLUS, KET_PLUS.conj()) + p2 * np.outer(KET_MINUS, KET_MINUS.conj())
        t = np.kron(HADAMARD, HADAMARD)
        perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        v0 = t @ perm @ t
        joint = v0 @ np.kron(rho1, np.outer(KET_PLUS, KET_PLUS.conj())) @ v0.conj().T
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        np.testing.assert_allclose(qmat._marginals(joint)[0], plus, atol=1e-12)

    def test_preserves_trace(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        for marginal in qmat._marginals(rho):
            np.testing.assert_allclose(np.trace(marginal), 1.0, atol=1e-12)


class TestHermitianEig:
    def test_sigma_z(self):
        vals, vecs = hermitian_eig(SIGMA_Z)
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vecs[:, 1]), [1.0, 0.0], atol=1e-14)

    def test_sigma_x_hamiltonian(self):
        # eigenvectors carry no phase convention, so their projectors are compared
        vals, vecs = hermitian_eig(1.5 * SIGMA_X)
        np.testing.assert_allclose(vals, [-1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(np.outer(vecs[:, 0], vecs[:, 0].conj()), np.outer(KET_MINUS, KET_MINUS), atol=1e-12)
        np.testing.assert_allclose(np.outer(vecs[:, 1], vecs[:, 1].conj()), np.outer(KET_PLUS, KET_PLUS), atol=1e-12)

    def test_thermal_spectrum(self):
        # Gibbs weights at v_z = 1: (e^-1, e^1) / (2 cosh 1)
        z = 2.0 * math.cosh(1.0)
        rho = np.diag([math.exp(1.0), math.exp(-1.0)]) / z
        vals, _ = hermitian_eig(rho)
        np.testing.assert_allclose(vals, [math.exp(-1.0) / z, math.exp(1.0) / z], atol=1e-12)
        np.testing.assert_allclose(vals, [0.11920292202211756, 0.8807970779778824], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for dim in (2, 4):
            for _ in range(25):
                h = random_hermitian(rng, dim)
                vals, vecs = hermitian_eig(h)
                np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-10)

    def test_deterministic_on_degenerate_input(self):
        joint = np.kron(SIGMA_X, ID2)
        first = hermitian_eig(joint)
        second = hermitian_eig(joint)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpIHermitian:
    # qmat._exp_i is the unchecked exp(iG) behind su4_from_point.
    def test_zero_generator(self):
        np.testing.assert_allclose(_exp_i(np.zeros((2, 2))), ID2, atol=1e-14)

    def test_half_pi_sigma_x(self):
        # cos(pi/2) I + i sin(pi/2) sigma_x
        np.testing.assert_allclose(
            _exp_i(0.5 * math.pi * SIGMA_X), 1j * SIGMA_X, atol=1e-12
        )

    def test_diagonal_generator(self):
        g = np.diag([math.pi, 0.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            _exp_i(g), np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex), atol=1e-12
        )

    def test_inverse_pairs(self):
        rng = np.random.default_rng(29)
        for dim in (2, 4):
            for _ in range(20):
                g = random_hermitian(rng, dim, scale=5.0)
                prod = _exp_i(g) @ _exp_i(-g)
                np.testing.assert_allclose(prod, np.eye(dim), atol=1e-10)

    def test_output_unitary(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            u = _exp_i(random_hermitian(rng, 4))
            np.testing.assert_allclose(u.conj().T @ u, ID4, atol=1e-10)


def von_neumann_entropy(rho):
    return float(_entropy_bits(np.linalg.eigvalsh(rho)))


class TestVonNeumannEntropy:
    # qmat._entropy_bits, the unchecked Shannon entropy of probability vectors, gives the von Neumann entropy of a
    # state from its spectrum.
    def test_pure_state(self):
        assert von_neumann_entropy(np.outer(KET_PLUS, KET_PLUS.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(ID2 / 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_binary_entropy(self):
        # eigenvalues (1 +- tanh 1)/2; compare against a direct scalar evaluation
        tz = math.tanh(1.0)
        p = 0.5 * (1.0 + tz)
        expected = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        rho = np.diag([p, 1.0 - p]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.5270653410031617, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(37)
        for dim in (2, 4):
            for _ in range(15):
                rho = random_density(rng, dim)
                u = _exp_i(random_hermitian(rng, dim))
                s1 = von_neumann_entropy(rho)
                s2 = von_neumann_entropy(u @ rho @ u.conj().T)
                assert abs(s1 - s2) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(41)
        for dim in (2, 4):
            for _ in range(15):
                s = von_neumann_entropy(random_density(rng, dim))
                assert -1e-12 <= s <= math.log2(dim) + 1e-12

    def test_clamps_eigenvalue_noise(self):
        rho = np.diag([1.0 + 5e-13, -5e-13]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_invalid(self):
        # the spec takes the entropy of its aux_state when it is built, and refuses a state that is not a
        # density matrix
        for aux in (np.diag([0.8, 0.3]), np.array([[0.5, 0.5], [0.0, 0.5]])):
            with pytest.raises(ValueError, match="aux_state"):
                PovmSpec(joint_unitary=ID4, aux_state=aux)
