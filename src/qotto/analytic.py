"""Closed-form work, heat and efficiency for every cycle variant.

These expressions are evaluated directly from the drive and measurement
parameters.  They share only the ledger arithmetic of
:meth:`CycleRecord.from_energies` with the density-matrix simulator in
:mod:`qotto.engine`, so the stroke energies come from independent
routes; the test suite checks the two against each other.  Works and
heats are in units of the reference energy, entropies in bits, and the
erasure cost carries an explicit ln 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import qmat
from .engine import LN2, CycleRecord, DriveSpec, EngineParams, MeasurementBasis


def discriminant(params: EngineParams, p: float) -> float:
    arg = (params.omega_x - params.omega_z) ** 2 + 4.0 * params.omega_x * params.omega_z * (1.0 - p)
    return math.sqrt(max(arg, 0.0))  # clamp guards rounding at the adiabatic boundary


def conventional_record(params: EngineParams, p: float) -> CycleRecord:
    """Two-bath cycle ledger for transition probability p (reversed stroke-IV drive)."""
    if params.beta_h is None:
        raise ValueError("the conventional cycle requires beta_h")
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    tz, tx = params.tau_z, params.tau_x
    wz, wx = params.omega_z, params.omega_x
    e0 = -0.5 * wz * tz
    e1 = 0.5 * wx * tz * (1.0 - 2.0 * p)
    e2 = -0.5 * wx * tx
    e3 = 0.5 * wz * tx * (1.0 - 2.0 * p)
    return CycleRecord.from_energies(e0, e1, e2, e3)


def pvm_nonadiabatic_record(
    params: EngineParams, drive: DriveSpec, basis: MeasurementBasis
) -> CycleRecord:
    """Projective-measurement cycle ledger at arbitrary drive.

    a = 2p - 1 and b = 2 sqrt(p(1-p)) encode the drive, mu the overlap
    between the drive image of the ground state and the measurement axis.
    The stroke energies need only mu: e2 = -(wx/2) tz mu cos(theta), and
    the reversed stroke-IV drive sees mu again, e3 = -(wz/2) tz mu^2.  The
    adiabatic cycle is p = 1, with work (tz/2)(wx - wz) sin^2(theta).
    """
    tz = params.tau_z
    wz, wx = params.omega_z, params.omega_x
    a = 2.0 * drive.p - 1.0
    b = 2.0 * math.sqrt(drive.p * (1.0 - drive.p))
    mu = a * math.cos(basis.theta_x) + b * math.sin(basis.theta_x) * math.cos(drive.alpha - basis.phi_x)
    e0 = -0.5 * wz * tz
    e1 = 0.5 * wx * tz * (1.0 - 2.0 * drive.p)
    e2 = -0.5 * wx * tz * mu * math.cos(basis.theta_x)
    e3 = -0.5 * wz * tz * mu**2
    return CycleRecord.from_energies(e0, e1, e2, e3)


class PvmOptimum(NamedTuple):
    work: float
    basis: MeasurementBasis
    heat: float
    eta: float


def _optimal_theta(wz: float, wx: float, p: float) -> float:
    # The angle of pvm_optimal_theta at one p, through math.atan2: np.arctan2 can differ from it in the last ulp.
    a = 2.0 * p - 1.0
    b = 2.0 * math.sqrt(p * (1.0 - p))
    x = math.atan2(-(b * (wx - 2.0 * a * wz)), -(wz * (b * b - a * a) + a * wx))
    return 0.5 * (x + 2.0 * math.pi if x < 0.0 else x)


def pvm_optimal_theta(params: EngineParams, ps) -> np.ndarray:
    """Polar angles theta_x of the work-optimal bases at phi_x = 0, one per p of a 1-d array.

    With a = 2p - 1 and b = 2 sqrt(p(1-p)), the angle is fixed by
    cos(2 theta) = -A/hypot(A, B), sin(2 theta) = -B/hypot(A, B), where
    A = wz(b^2 - a^2) + a wx and B = b(wx - 2 a wz); it lies in [0, pi].
    Each angle equals ``pvm_optimal(params, p).basis.theta_x`` bit for bit.
    """
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1 or not np.all((ps >= 0.5) & (ps <= 1.0)):
        raise ValueError(f"p must lie in [1/2, 1] along a 1-d array, got {ps}")
    return np.array([_optimal_theta(params.omega_z, params.omega_x, p) for p in ps.tolist()])


def pvm_optimal(params: EngineParams, p: float) -> PvmOptimum:
    """Work-maximizing measurement basis and value for the drive at p with phase 0.

    The maximum over (theta_x, phi_x) is (tz/4)(D - wz + wx(2p - 1)),
    attained at phi_x = 0 and the angle of :func:`pvm_optimal_theta`.  The
    heat entering during the measurement stroke at that basis is
    wx tz (a D + wx - a wz) / (4 D).  For a drive phase alpha the work
    depends on phi_x only through alpha - phi_x, so the optimal basis is
    shifted to phi_x = alpha with the same work and heat.
    """
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    tz = params.tau_z
    wz, wx = params.omega_z, params.omega_x
    a = 2.0 * p - 1.0
    d = discriminant(params, p)
    work = 0.25 * tz * (d - wz + a * wx)
    basis = MeasurementBasis(theta_x=_optimal_theta(wz, wx, p))
    heat = wx * tz * (a * d + wx - a * wz) / (4.0 * d)
    return PvmOptimum(work=work, basis=basis, heat=heat, eta=work / heat)


class PvmBestP(NamedTuple):
    p_star: float
    work: float
    eta: float


def pvm_best_p(params: EngineParams) -> PvmBestP:
    """Transition probability maximizing the optimal projective-cycle work.

    For compression ratio gamma < 2 the maximum sits strictly inside the
    non-adiabatic region at p = 1/2 + gamma/4 with efficiency 1/2; for
    gamma >= 2 it sits at the adiabatic endpoint p = 1.
    """
    tz = params.tau_z
    wz, wx = params.omega_z, params.omega_x
    if params.gamma < 2.0:
        return PvmBestP(
            p_star=0.5 + 0.25 * wx / wz,
            work=wx * wx * tz / (8.0 * wz),
            eta=0.5,
        )
    return PvmBestP(p_star=1.0, work=0.5 * tz * (wx - wz), eta=1.0 - wz / wx)


# Permutation whose matrix in the product eigenbasis of sigma_x (x) sigma_x
# swaps the middle two basis states; it moves the support of the dilated
# thermal state onto the high-energy eigenspace of the measurement-stroke
# Hamiltonian.
_SWAP_MIDDLE = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def optimal_dilation_unitary() -> np.ndarray:
    """The work-optimal adiabatic joint unitary, in the computational product basis."""
    t = np.kron(qmat.HADAMARD, qmat.HADAMARD)
    return t @ _SWAP_MIDDLE @ t


def povm_work_ceiling(params: EngineParams, drive: DriveSpec) -> float:
    """Maximum gross work of the dilation cycle over all joint unitaries.

    With a pure auxiliary the drive strokes fix w1, and the remaining
    dependence on the joint unitary is linear in the post-measurement
    state, so the maximum follows from pairing sorted eigenvalues (see
    :func:`rearrangement_energy_bound`): (tz/2)(a wx - wz) + D/2.  At
    p = 1 this reduces to the adiabatic optimum (1/2)(wx - wz)(1 + tz).
    """
    tz = params.tau_z
    a = 2.0 * drive.p - 1.0
    return 0.5 * tz * (a * params.omega_x - params.omega_z) + 0.5 * discriminant(params, drive.p)


def povm_net_work_optimum(params: EngineParams, drive: DriveSpec, t_c: float | None = None) -> float:
    """Maximum work net of the reset cost at ``params.reset_temperature(t_c)`` over all joint unitaries.

    The binary entropy is the minimum of its tangent lines, so the net work
    is the maximum over tangents of objectives linear in the dilated state,
    each maximized by a rearrangement.  Two candidates remain: the
    gross-optimal unitary, whose auxiliary keeps the entropy
    H2((1 + tz)/2), and the zero-entropy one that only rotates the system:
    (tz/2)(a wx - wz) + max(D/2 - t_c ln2 H2((1 + tz)/2), tz D/2).
    """
    t_c = params.reset_temperature(t_c)
    tz = params.tau_z
    d = discriminant(params, drive.p)
    cost = _reset_cost(t_c, params.beta_c * params.omega_z)
    return 0.5 * tz * ((2.0 * drive.p - 1.0) * params.omega_x - params.omega_z) + max(
        0.5 * d - cost, 0.5 * tz * d
    )


def rearrangement_energy_bound(h, rho) -> float:
    """max over unitaries U of Tr(h U rho U^dag) = sum of ascending-sorted eigenvalue products."""
    hm = qmat.validate_hermitian(h, name="h")
    rm, rho_spectrum = qmat._density_spectrum(rho, name="rho")
    if hm.shape != rm.shape:
        raise ValueError(f"dimension mismatch: {hm.shape} vs {rm.shape}")
    return float(np.linalg.eigvalsh(hm) @ rho_spectrum)  # eigvalsh sorts ascending


def _reset_cost(t_c: float, x: float) -> float:
    # t_c ln2 H2(q): the cost of resetting an auxiliary left with pole populations q and 1 - q, where
    # q = (1 - tz)/2 = 1/(1 + e^x) is the smaller, x = beta omega_z.  q is formed directly, with
    # -q ln q = q (x + ln(1 + e^-x)) and -(1 - q) ln(1 - q) through log1p, so no term cancels as q -> 0.
    e = math.exp(-x)
    q = e / (1.0 + e)
    return t_c * (q * (x + math.log1p(e)) - (1.0 - q) * math.log1p(-q))


class AuxCostRecord(NamedTuple):
    min_cost: float
    max_cost: float
    net_work_v0: float
    delta_w: float
    t_c_bound: float


def aux_cost_record(params: EngineParams, t_c: float | None = None) -> AuxCostRecord:
    """Auxiliary-reset cost ledger at cold-bath temperature t_c.

    The temperature is ``params.reset_temperature(t_c)`` and must also be
    positive; a given t_c replaces the cold-bath temperature in both the
    erasure cost and the optimal work, which is
    how the cost/advantage comparison is swept against temperature.
    ``min_cost`` is the erasure cost when the auxiliary is measured along
    its poles, t_c ln2 H2((1 + tz)/2); ``max_cost`` is the 1-bit ceiling
    t_c ln 2.  ``delta_w`` = (wx - wz)/2 is the temperature-independent
    work advantage of the generalized measurement over the projective
    one, and ``t_c_bound`` = delta_w / ln 2 is the temperature below
    which even the worst-case reset cost cannot erase that advantage.
    """
    t_c = params.reset_temperature(t_c)
    if t_c == 0.0:  # the cost divides by it
        raise ValueError(f"t_c must be positive, got {t_c}")
    wz, wx = params.omega_z, params.omega_x
    tz = math.tanh(0.5 * wz / t_c)
    min_cost = _reset_cost(t_c, wz / t_c)
    return AuxCostRecord(
        min_cost=min_cost,
        max_cost=t_c * LN2,
        net_work_v0=0.5 * (wx - wz) * (1.0 + tz) - min_cost,
        delta_w=0.5 * (wx - wz),
        t_c_bound=0.5 * (wx - wz) / LN2,
    )


def reset_crossing_temperature(params: EngineParams) -> float:
    """Cold-bath temperature where the minimal reset cost equals delta_w.

    The minimal reset cost grows monotonically with temperature and never
    exceeds t ln 2, so the crossing is unique and lies at or above
    t_c_bound = delta_w / ln 2.  Doubling from there brackets it, and
    bisection narrows the bracket down to adjacent floats; no tolerance
    is absolute, so the crossing is found alike at every scale of the gaps.
    Returns the upper end, the lowest float found where the cost reaches
    delta_w.
    """
    delta_w = 0.5 * (params.omega_x - params.omega_z)

    def cost(t: float) -> float:
        return _reset_cost(t, params.omega_z / t)

    hi = max(delta_w / LN2, math.ulp(0.0))  # the ulp keeps a delta_w that underflows to 0 off t = 0
    lo = 0.5 * hi  # cost(lo) <= delta_w / 2
    while cost(hi) < delta_w:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if cost(mid) < delta_w:
            lo = mid
        else:
            hi = mid
    return hi
