"""Closed-form work, heat and efficiency for every cycle variant.

These expressions are evaluated directly from the drive and measurement
parameters.  They share only the ledger arithmetic of
:meth:`CycleRecord.from_energies` with the density-matrix simulator in
:mod:`qotto.engine`, so the stroke energies come from independent
routes; the test suite checks the two against each other.  Works and
heats are in units of the reference energy, entropies in bits, and the
erasure cost carries an explicit ln 2.

Each closed form that a grid evaluates is one numpy expression over its
swept field, p or t_c, a float or an array of any shape (a grid passes
each slice of its values once): an array gives arrays, and a float, the
0-d case of the same expression, floats, as CycleRecord.from_energies does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import qmat
from .engine import LN2, CycleRecord, DriveSpec, EngineParams, MeasurementBasis, _read_only


def _out(value):
    # A 0-d result as a float, an array one as it is.
    return value if getattr(value, "ndim", 0) else float(value)


def _checked_p(p):
    # p, each value in [1/2, 1] (a NaN is not); [()] makes a 0-d array a numpy float, whose arithmetic is cheaper.
    p = np.asarray(p, dtype=float)[()]
    if not ((p >= 0.5) & (p <= 1.0)).all():
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    return p


def discriminant(params: EngineParams, p) -> float | np.ndarray:
    """D = sqrt((wx - wz)^2 + 4 wx wz (1 - p)) for p in [1/2, 1], or an array of them."""
    return _out(_discriminant(params, _checked_p(p)))


def _discriminant(params, p):
    # discriminant of a checked p, a hypot of two terms linear in the gaps, so that no product of gaps underflows
    wz, wx = params.omega_z, params.omega_x
    return np.hypot(wx - wz, 2.0 * math.sqrt(wx) * math.sqrt(wz) * np.sqrt(1.0 - p))


def conventional_record(params: EngineParams, p) -> CycleRecord:
    """Two-bath cycle ledger for transition probability p (reversed stroke-IV drive)."""
    if params.beta_h is None:
        raise ValueError("the conventional cycle requires beta_h")
    p = _checked_p(p)
    tz, tx, wz, wx = params.tau_z, params.tau_x, params.omega_z, params.omega_x
    e0 = -0.5 * wz * tz
    e1 = 0.5 * wx * tz * (1.0 - 2.0 * p)
    e2 = -0.5 * wx * tx
    e3 = 0.5 * wz * tx * (1.0 - 2.0 * p)
    return CycleRecord.from_energies(e0, e1, e2, e3, wx)


def pvm_nonadiabatic_record(params: EngineParams, drive: DriveSpec, basis: MeasurementBasis) -> CycleRecord:
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
    return CycleRecord.from_energies(e0, e1, e2, e3, wx)


class PvmOptimum(NamedTuple):
    work: float | np.ndarray
    theta: float | np.ndarray
    heat: float | np.ndarray
    eta: float | np.ndarray

    @property
    def basis(self) -> MeasurementBasis:
        """The optimal basis of a single drive: polar angle theta, phi_x = 0."""
        return MeasurementBasis(theta_x=self.theta)


def pvm_optimal(params: EngineParams, p) -> PvmOptimum:
    """Work-maximizing measurement basis and value for the drive at p (or an array of them) with phase 0.

    With a = 2p - 1 and b = 2 sqrt(p(1-p)), the maximum over (theta_x, phi_x)
    is (tz/4)(D - wz + a wx), at phi_x = 0 and the polar angle theta in [0, pi]
    with cos(2 theta) = -A/hypot(A, B) and sin(2 theta) = -B/hypot(A, B), where
    A = wz(b^2 - a^2) + a wx and B = b(wx - 2 a wz).  The heat entering during
    the measurement stroke there is wx tz (a D + wx - a wz) / (4 D), its ratio
    formed first so that no product of gaps underflows.  For a drive phase
    alpha the work depends on phi_x only through alpha - phi_x, so the optimal
    basis is shifted to phi_x = alpha with the same work and heat.
    """
    p = _checked_p(p)
    tz, wz, wx = params.tau_z, params.omega_z, params.omega_x
    a, b, d = 2.0 * p - 1.0, 2.0 * np.sqrt(p * (1.0 - p)), _discriminant(params, p)
    x = np.arctan2(-(b * (wx - 2.0 * a * wz)), -(wz * (b * b - a * a) + a * wx))
    theta = 0.5 * (x + (x < 0.0) * (2.0 * math.pi))
    work = 0.25 * tz * (d - wz + a * wx)
    heat = wx * tz * ((a * d + wx - a * wz) / (4.0 * d))
    return PvmOptimum(*map(_out, (work, theta, heat, work / heat)))


class PvmBestP(NamedTuple):
    p_star: float
    work: float
    eta: float


def pvm_best_p(params: EngineParams) -> PvmBestP:
    """Transition probability maximizing the optimal projective-cycle work.

    For compression ratio gamma < 2 the maximum sits strictly inside the
    non-adiabatic region at p = 1/2 + gamma/4, where D = wz, with work
    wx^2 tz / (8 wz) and efficiency 1/2; for gamma >= 2 it sits at the
    adiabatic endpoint p = 1.
    """
    p_star = min(0.5 + 0.25 * params.gamma, 1.0)
    best = pvm_optimal(params, p_star)
    return PvmBestP(p_star=p_star, work=best.work, eta=best.eta)


# The work-optimal adiabatic joint unitary, built once, read-only: in the product eigenbasis of sigma_x (x) sigma_x
# it swaps the middle two basis states, moving the dilated thermal state onto the high-energy eigenspace of h2.
_HH = np.kron(qmat.HADAMARD, qmat.HADAMARD)
_V0 = _read_only(_HH @ np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex) @ _HH)


def optimal_dilation_unitary() -> np.ndarray:
    """The work-optimal adiabatic joint unitary, in the computational product basis (one read-only array)."""
    return _V0


def povm_work_ceiling(params: EngineParams, drive) -> float | np.ndarray:
    """Maximum gross work of the dilation cycle over all joint unitaries.

    ``drive`` is a DriveSpec, or its p as a float or an array.  With a pure
    auxiliary the drive strokes fix w1, and the remaining dependence on the
    joint unitary is linear in the post-measurement state, so the maximum
    follows from pairing the sorted eigenvalues of the dilated state with
    those of the effective observable: (tz/2)(a wx - wz) + D/2.  At
    p = 1 this reduces to the adiabatic optimum (1/2)(wx - wz)(1 + tz).
    """
    p = drive.p if isinstance(drive, DriveSpec) else _checked_p(drive)  # a DriveSpec checked its p
    a = 2.0 * p - 1.0
    return _out(0.5 * params.tau_z * (a * params.omega_x - params.omega_z) + 0.5 * _discriminant(params, p))


def povm_net_work_optimum(params: EngineParams, drive, t_c: float | None = None) -> float | np.ndarray:
    """Maximum work net of the reset cost at ``params.reset_temperature(t_c)`` over all joint unitaries.

    ``drive`` is as in :func:`povm_work_ceiling`.  The binary entropy is the
    minimum of its tangent lines, so the net work is the maximum over
    tangents of objectives linear in the dilated state, each maximized by a
    rearrangement.  Two candidates remain: the gross-optimal unitary, whose
    auxiliary keeps the entropy H2((1 + tz)/2), and the zero-entropy one
    that only rotates the system:
    (tz/2)(a wx - wz) + max(D/2 - t_c ln2 H2((1 + tz)/2), tz D/2).
    """
    cost = _reset_cost(params.reset_temperature(t_c), params.beta_c * params.omega_z)
    p = drive.p if isinstance(drive, DriveSpec) else _checked_p(drive)  # a DriveSpec checked its p
    tz, d = params.tau_z, _discriminant(params, p)
    drive_work = 0.5 * tz * ((2.0 * p - 1.0) * params.omega_x - params.omega_z)
    return _out(drive_work + np.maximum(0.5 * d - cost, 0.5 * tz * d))


def _reset_cost(t_c, x):
    # t_c ln2 H2(q): the cost of resetting an auxiliary left with pole populations q and 1 - q, where
    # q = (1 - tz)/2 = 1/(1 + e^x) is the smaller, x = beta omega_z.  With ln q = -x - ln(1 + e^-x) and
    # ln(1 - q) = -ln(1 + e^-x), ln2 H2(q) = q x + ln(1 + e^-x): two positive terms, q formed directly and the
    # logarithm through log1p, so nothing cancels as q -> 0.
    e = np.exp(-x)
    return t_c * (e / (1.0 + e) * x + np.log1p(e))


class AuxCostRecord(NamedTuple):
    min_cost: float | np.ndarray
    max_cost: float | np.ndarray
    net_work_v0: float | np.ndarray
    delta_w: float
    t_c_bound: float


def aux_cost_record(params: EngineParams, t_c: float | np.ndarray | None = None) -> AuxCostRecord:
    """Auxiliary-reset cost ledger at cold-bath temperature t_c, a float or an array.

    The temperature is ``params.reset_temperature(t_c)``, which checks an
    array through its least and greatest value, and must also be positive;
    a given t_c replaces the cold-bath temperature in both the erasure cost
    and the optimal work, which is how the cost/advantage comparison is
    swept against temperature.
    ``min_cost`` is the erasure cost when the auxiliary is measured along
    its poles, t_c ln2 H2((1 + tz)/2); ``max_cost`` is the 1-bit ceiling
    t_c ln 2.  ``delta_w`` = (wx - wz)/2 is the temperature-independent
    work advantage of the generalized measurement over the projective
    one, and ``t_c_bound`` = delta_w / ln 2 is the temperature below
    which even the worst-case reset cost cannot erase that advantage.
    """
    t_c = np.asarray(params.reset_temperature(t_c) if t_c is None else t_c, dtype=float) + 0.0
    for extreme in (t_c.min(), t_c.max()):  # a NaN is both
        params.reset_temperature(float(extreme))
    if not t_c.min() > 0.0:  # the cost divides by it
        raise ValueError(f"t_c must be positive, got {t_c.min()}")
    # x = omega_z / t_c, held at 1e300 where it would overflow: from x of about 745 on, q and so the cost are 0, as in
    # the limit t_c -> 0, where 0 * inf would make them NaN
    x = params.omega_z / np.maximum(t_c, 1e-300 * params.omega_z)
    min_cost = _reset_cost(t_c, x)
    delta_w = 0.5 * (params.omega_x - params.omega_z)
    net_work_v0 = delta_w * (1.0 + np.tanh(0.5 * x)) - min_cost
    return AuxCostRecord(*map(_out, (min_cost, t_c * LN2, net_work_v0)), delta_w=delta_w, t_c_bound=delta_w / LN2)


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
