"""References that only the tests use: the stroke Hamiltonians and the drive unitary built from their formulas, a
seeded Haar sampler and the rearrangement energy bound."""

import math

import numpy as np

from qotto import qmat
from qotto.qmat import KET_MINUS, KET_PLUS


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
