"""References that only the tests use: the |-> ket, the stroke Hamiltonians and the drive unitary built from their
formulas, a seeded Haar sampler, the basis kets and the Kraus family of a dilation, the rearrangement energy bound and
the exact projective optimum."""

import math

import numpy as np

from qotto import engine, qmat
from qotto.engine import TWO_PI, MeasurementBasis
from qotto.qmat import KET_PLUS

KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def h1_reference(params) -> np.ndarray:
    """The stroke-I/IV Hamiltonian (omega_z / 2) sigma_z."""
    return 0.5 * params.omega_z * qmat.SIGMA_Z


def h2_reference(params) -> np.ndarray:
    """The stroke-II/III Hamiltonian (omega_x / 2) sigma_x."""
    return 0.5 * params.omega_x * qmat.SIGMA_X


def drive_reference(drive) -> np.ndarray:
    """A drive unitary u with u|0> = sqrt(p)|+> + e^{i alpha} sqrt(1-p)|->, and u|1> the orthogonal
    sqrt(1-p)|+> - e^{i alpha} sqrt(p)|->."""
    p, phase = drive.p, np.exp(1.0j * drive.alpha)
    return np.column_stack([
        math.sqrt(p) * KET_PLUS + phase * math.sqrt(1.0 - p) * KET_MINUS,
        math.sqrt(1.0 - p) * KET_PLUS - phase * math.sqrt(p) * KET_MINUS,
    ])


def haar_unitary(rng, n=4):
    """A Haar-random n x n unitary drawn from ``rng``: QR of a complex Ginibre matrix, with the phases of R's
    diagonal moved into Q (Mezzadri, Notices AMS 54, 592 (2007))."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def basis_kets(theta, phi) -> np.ndarray:
    """Kets of the bases at (theta, phi), one row per outcome: cos(theta/2)|+> + e^{i phi} sin(theta/2)|-> and the
    orthogonal sin(theta/2)|+> - e^{i phi} cos(theta/2)|->; theta and phi may be arrays that broadcast."""
    half = np.asarray(0.5 * theta)[..., None]
    c, s = np.cos(half), np.sin(half)
    phase = np.exp(1.0j * np.asarray(phi))[..., None]
    return np.stack([c * KET_PLUS + phase * s * KET_MINUS, s * KET_PLUS - phase * c * KET_MINUS], axis=-2)


def kraus_family(spec) -> list[np.ndarray]:
    """The system Kraus operators a PovmSpec induces, sqrt(w) <psi_i| V |a> for each outcome ket psi_i of its
    basis and each eigenpair (w, |a>) of its auxiliary with w > 1e-14: two operators for a pure auxiliary."""
    v4 = spec.joint_unitary.reshape(2, 2, 2, 2)
    weights, states = np.linalg.eigh(spec.aux_state)
    return [
        math.sqrt(w) * np.einsum("a,satb,b->st", ket.conj(), v4, a)
        for ket in basis_kets(spec.aux_basis.theta_x, spec.aux_basis.phi_x)
        for w, a in zip(weights, states.T)
        if w > 1e-14
    ]


def rearrangement_energy_bound(h, rho) -> float:
    """max over unitaries U of Tr(h U rho U^dag) = sum of ascending-sorted eigenvalue products.

    The oracle of the gross dilation optimum and of the mixed-auxiliary ceiling (acceptance criterion 11);
    ``rho`` is checked as a density matrix, and that check's one eigen-solve gives its spectrum.
    """
    hm = qmat.validate_hermitian(h, name="h")
    rm, rho_spectrum = qmat._density_spectrum(rho, name="rho")
    if hm.shape != rm.shape:
        raise ValueError(f"dimension mismatch: {hm.shape} vs {rm.shape}")
    return float(np.linalg.eigvalsh(hm) @ rho_spectrum)  # eigvalsh sorts ascending


def bloch_vector(m) -> np.ndarray:
    """(Tr m sigma_x, Tr m sigma_y, Tr m sigma_z) of a Hermitian 2x2 m: the Bloch vector of a density matrix."""
    return np.array([np.trace(m @ s).real for s in (qmat.SIGMA_X, qmat.SIGMA_Y, qmat.SIGMA_Z)])


def chart_basis(n) -> MeasurementBasis:
    """The basis whose first outcome projects onto the Bloch axis n, on MeasurementBasis's chart
    n = (cos theta, -sin theta sin phi, sin theta cos phi); phi is 0 at the poles n = (+-1, 0, 0)."""
    theta = math.atan2(math.hypot(n[1], n[2]), n[0])  # well conditioned at the poles, where arccos(n_x) is not
    phi = math.atan2(-n[1], n[2]) % TWO_PI
    return MeasurementBasis(theta, 0.0 if phi == TWO_PI else phi)


def pvm_exact_optimum(params, drive) -> MeasurementBasis:
    """The measurement basis of the largest projective-cycle work, from the density matrices of strokes_i_ii.

    With rho1 = (I + r.sigma)/2 and h2 - u h1 u^dag = g.sigma, measuring along the axis n leaves
    (I + (r.n) n.sigma)/2, so stroke III changes e2 - e3 by (r.n)(g.n) = n^T A n, A = (r g^T + g r^T)/2, and the
    top eigenvector of the 3x3 A maximizes the work.
    """
    strokes = engine.strokes_i_ii(params, drive)
    r, g = bloch_vector(strokes.rho1), 0.5 * bloch_vector(strokes.h2 - strokes.uh1u)
    return chart_basis(np.linalg.eigh(0.5 * (np.outer(r, g) + np.outer(g, r)))[1][:, -1])
