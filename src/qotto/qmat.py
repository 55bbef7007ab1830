"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything here works on plain complex numpy arrays in natural units
(hbar = k_B = 1, frequencies in units of a reference frequency).  Joint
operators use row-major Kronecker ordering, system factor first, so a
4x4 matrix indexes as (system, auxiliary) x (system, auxiliary).
All functions are pure; validation failures raise ``ValueError``.
The underscore helpers skip validation; the engine and the optimizers
call them on matrices they built themselves.
"""

from __future__ import annotations

import numpy as np

# Validation tolerances: Hermiticity/positivity checks are tight (1e-12),
# unitarity checks looser (1e-10) since they accumulate matmul rounding.
HERMITIAN_TOL = 1e-12
DENSITY_TOL = 1e-12
UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-one projector |k><k| of a (not necessarily normalized) ket."""
    k = np.asarray(ket, dtype=complex)
    k = k / np.linalg.norm(k)
    return np.outer(k, k.conj())


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex array with dimension 2 or 4."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in (2, 4):
        raise ValueError(f"{name} must be 2x2 or 4x4, got {a.shape[0]}x{a.shape[0]}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return a


def validate_hermitian(m, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    a = as_matrix(m, name)
    if np.max(np.abs(a - a.conj().T)) > tol:
        raise ValueError(f"{name} is not Hermitian within {tol}")
    return a


def validate_density_matrix(rho, tol: float = DENSITY_TOL, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness (to tol)."""
    a = validate_hermitian(rho, tol, name)
    if abs(np.trace(a) - 1.0) > tol:
        raise ValueError(f"{name} trace is {np.trace(a).real}, expected 1 within {tol}")
    if np.linalg.eigvalsh(a).min() < -tol:
        raise ValueError(f"{name} has an eigenvalue below -{tol}")
    return a


def validate_unitary(u, tol: float = UNITARY_TOL, name: str = "u") -> np.ndarray:
    a = as_matrix(u, name)
    if np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) > tol:
        raise ValueError(f"{name} is not unitary within {tol}")
    return a


def _marginals(rho_sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (system, auxiliary) marginals of a 4x4 joint operator. No input checks.
    r = rho_sa.reshape(2, 2, 2, 2)
    return r.trace(axis1=1, axis2=3), r.trace(axis1=0, axis2=2)


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    # Make the first non-negligible component of each column real positive.
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            lead = col[nz[0]]
            out[:, j] = col * (abs(lead) / lead)
    return out


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic layout.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in the columns.  Column phases are fixed so the first
    nonzero component is real positive, and columns inside a degenerate
    cluster are ordered lexicographically by (Re, Im) of their components,
    so repeated runs (and downstream regressions) see identical output.
    """
    return _hermitian_eig(validate_hermitian(h, name="h"))


def _hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # hermitian_eig without the Hermiticity check.
    vals, vecs = np.linalg.eigh(a)
    vecs = _phase_fix(vecs)
    n = vals.size
    i = 0
    while i < n:
        j = i + 1
        while j < n and vals[j] - vals[j - 1] <= DEGENERACY_TOL * max(1.0, abs(vals[j])):
            j += 1
        if j - i > 1:
            order = sorted(
                range(i, j),
                key=lambda k: tuple(np.stack([vecs[:, k].real, vecs[:, k].imag], 1).ravel()),
            )
            vals[i:j] = vals[order]
            vecs[:, i:j] = vecs[:, order]
        i = j
    return vals, vecs


def exp_i_hermitian(g) -> np.ndarray:
    """exp(iG) for Hermitian G via exact eigendecomposition.

    For the 2x2 and 4x4 generators used here this is accurate to machine
    precision, so no series or scaling-and-squaring is needed.
    """
    return _exp_i(validate_hermitian(g, name="g"))


def _exp_i(a: np.ndarray) -> np.ndarray:
    # exp_i_hermitian without the Hermiticity check.
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


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(p log2 p) in bits, with the 0 log 0 = 0 convention.

    Eigenvalues below zero (floating-point noise within DENSITY_TOL) are
    dropped with the zeros, so they cannot poison the logarithm.
    """
    return _entropy_bits(validate_density_matrix(rho, name="rho"))


def _entropy_bits(rho: np.ndarray) -> float:
    # von_neumann_entropy without the density-matrix check.
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 0.0]
    return float(max(-(vals * np.log2(vals)).sum(), 0.0))
