"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything here works on plain complex numpy arrays in natural units
(hbar = k_B = 1, frequencies in units of a reference frequency).  Joint
operators use row-major Kronecker ordering, system factor first, so a
4x4 matrix indexes as (system, auxiliary) x (system, auxiliary).
All functions are pure.  The public ones validate their input against
the module constants HERMITIAN_TOL and UNITARY_TOL and raise
``ValueError`` on failure.  Eigenvectors come from a plain
``np.linalg.eigh``, with no phase convention: no result depends on an
eigenvector's phase.  ``_density_spectrum`` is the
one density-matrix check (to DENSITY_TOL): it also returns the spectrum
its one eigen-solve found, so a PovmSpec's given auxiliary yields its
initial entropy without a second solve.  The other underscore helpers
(exp(iG), marginals, and the Shannon entropy of probability vectors,
which is a von Neumann entropy when given a density matrix's eigenvalues)
skip validation: the engine and the optimizers call them only on arrays
they built themselves from inputs checked when a spec type was
constructed.
"""

from __future__ import annotations

import numpy as np

# Validation tolerances: Hermiticity/positivity checks are tight (1e-12),
# unitarity checks looser (1e-10) since they accumulate matmul rounding.
HERMITIAN_TOL = 1e-12
DENSITY_TOL = 1e-12
UNITARY_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square C-ordered complex array with dimension 2 or 4, from any memory layout."""
    a = np.asarray(m, dtype=complex, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in (2, 4):
        raise ValueError(f"{name} must be 2x2 or 4x4, got {a.shape[0]}x{a.shape[0]}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return a


def validate_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_matrix(m, name)
    if np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    return a


def _density_spectrum(rho, name: str = "rho") -> tuple[np.ndarray, np.ndarray]:
    # rho checked for Hermiticity, unit trace and positive semidefiniteness (to DENSITY_TOL), and the ascending
    # eigenvalues its positivity check solved for.
    a = validate_hermitian(rho, name)
    if abs(np.trace(a) - 1.0) > DENSITY_TOL:
        raise ValueError(f"{name} trace is {np.trace(a).real}, expected 1 within {DENSITY_TOL}")
    vals = np.linalg.eigvalsh(a)
    if vals.min() < -DENSITY_TOL:
        raise ValueError(f"{name} has an eigenvalue below -{DENSITY_TOL}")
    return a, vals


def validate_unitary(u, name: str = "u") -> np.ndarray:
    a = as_matrix(u, name)
    if np.max(np.abs(a.conj().T @ a - (ID2 if a.shape[0] == 2 else ID4))) > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary within {UNITARY_TOL}")
    return a


def _marginals(rho_sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (system, auxiliary) marginals of a 4x4 joint operator or a stack, unchecked; + 0.0 as in _expect.
    r = rho_sa.reshape(rho_sa.shape[:-2] + (2, 2, 2, 2))
    return r[..., :, 0, :, 0] + r[..., :, 1, :, 1] + 0.0, r[..., 0, :, 0, :] + r[..., 1, :, 1, :] + 0.0


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a matrix checked as Hermitian: eigenvalues ascending, eigenvectors in the columns."""
    return np.linalg.eigh(validate_hermitian(h, name="h"))


def _exp_i(a: np.ndarray) -> np.ndarray:
    # exp(iA) of a Hermitian A through its exact eigendecomposition, which is
    # accurate to machine precision at 2x2 and 4x4; A is not checked.
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1.0j * vals)) @ vecs.conj().T


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    # Shannon entropy in bits of probability vectors along the last axis, unchecked, elementwise on a stack; entries
    # <= 0 (zeros, rounding noise) count as 0 and the rest are normalized, so one nonzero entry gives +0 bits.
    p = np.maximum(p, 0.0)
    p = p / p.sum(axis=-1, keepdims=True)
    return 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
