"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything here works on plain complex numpy arrays in natural units
(hbar = k_B = 1, frequencies in units of a reference frequency).  Joint
operators use row-major Kronecker ordering, system factor first, so a
4x4 matrix indexes as (system, auxiliary) x (system, auxiliary).
All functions are pure.  The public ones validate their input against
the module constants HERMITIAN_TOL, DENSITY_TOL and UNITARY_TOL and raise
``ValueError`` on failure; ``hermitian_eig`` fixes eigenvector phases, so
repeated calls on one input are identical.  The underscore helpers
(exp(iG), the unitary logarithm, von Neumann entropy, marginals) skip
validation: the engine and the optimizers call them only on matrices they
built themselves from inputs checked when a spec type was constructed.
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


def validate_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness (to DENSITY_TOL)."""
    a = validate_hermitian(rho, name)
    if abs(np.trace(a) - 1.0) > DENSITY_TOL:
        raise ValueError(f"{name} trace is {np.trace(a).real}, expected 1 within {DENSITY_TOL}")
    if np.linalg.eigvalsh(a).min() < -DENSITY_TOL:
        raise ValueError(f"{name} has an eigenvalue below -{DENSITY_TOL}")
    return a


def validate_unitary(u, name: str = "u") -> np.ndarray:
    a = as_matrix(u, name)
    if np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary within {UNITARY_TOL}")
    return a


def _marginals(rho_sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (system, auxiliary) marginals of a 4x4 joint operator or a stack, unchecked; + 0.0 as in _expect.
    r = rho_sa.reshape(rho_sa.shape[:-2] + (2, 2, 2, 2))
    return r[..., :, 0, :, 0] + r[..., :, 1, :, 1] + 0.0, r[..., 0, :, 0, :] + r[..., 1, :, 1, :] + 0.0


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    # Make the first non-negligible component of each column real positive,
    # elementwise on a stack; a column with none is left as it is.
    big = np.abs(vecs) > 1e-12
    some = big.any(axis=-2, keepdims=True)
    lead = np.where(some, vecs[..., -1:, :], 1.0)
    for i in range(vecs.shape[-2] - 2, -1, -1):  # upward, so the first non-negligible entry wins
        lead = np.where(big[..., i:i + 1, :], vecs[..., i:i + 1, :], lead)
    return np.where(some, vecs * (np.hypot(lead.real, lead.imag) / lead), vecs)  # hypot is abs() of a scalar


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with phases fixed.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in the columns.  Column phases are fixed so the first
    nonzero component is real positive; repeated calls on one input are
    identical.
    """
    return _hermitian_eig(validate_hermitian(h, name="h"))


def _hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # hermitian_eig without the Hermiticity check.
    vals, vecs = np.linalg.eigh(a)
    return vals, _phase_fix(vecs)


def _exp_i(a: np.ndarray) -> np.ndarray:
    # exp(iA) of a Hermitian A through its exact eigendecomposition, which is
    # accurate to machine precision at 2x2 and 4x4; A is not checked.
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1.0j * vals)) @ vecs.conj().T


def _unitary_log(v: np.ndarray) -> np.ndarray:
    # Hermitian h with exp(ih) = v for a unitary v, no input checks.  The
    # Cayley transform i(1 - w)(1 + w)^-1 of w = e^{it} v is Hermitian with
    # eigenvalues tan(phase/2) and v's eigenvectors, which eigh keeps
    # orthonormal through degenerate eigenphases; t turns the widest gap
    # between v's eigenphases onto -1, where the transform is singular.
    phases = np.sort(np.angle(np.linalg.eigvals(v)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    j = int(np.argmax(gaps))
    t = np.pi - phases[j] - 0.5 * gaps[j]
    w = np.exp(1.0j * t) * v
    eye = np.eye(v.shape[0])
    c = 1.0j * np.linalg.solve(eye + w, eye - w)
    vals, vecs = np.linalg.eigh(0.5 * (c + c.conj().T))
    return (vecs * (2.0 * np.arctan(vals) - t)) @ vecs.conj().T


def _entropy_bits(rho: np.ndarray) -> np.ndarray:
    # Von Neumann entropy in bits, unchecked, elementwise on a stack; eigenvalues <= 0
    # (zeros and rounding noise) enter as 1 log 1 = 0.
    vals = np.linalg.eigvalsh(rho)
    vals = np.where(vals > 0.0, vals, 1.0)
    s = -(vals * np.log2(vals)).sum(axis=-1)
    return np.where(s < 0.0, 0.0, s)
