"""Stroke-level simulation of qubit Otto cycles.

Three cycle variants share strokes I (thermalize at the sigma_z
Hamiltonian), II (unitary drive) and IV (reversed drive); they differ in
stroke III, which is either a hot-bath thermalization, a non-selective
projective measurement, or a non-selective generalized measurement
realized by a joint unitary with a qubit auxiliary followed by a
projective measurement on the auxiliary.

Every cycle and optimizer objective runs through one unchecked kernel:
:func:`strokes_i_ii`, then :func:`_measure` or :func:`_povm_stroke` for
stroke III, then :class:`Strokes` energies and the one record builder.
Inputs are checked when a spec type is built or a raw array enters a
public function.

Sign convention: energy changes in strokes II/IV are work, in strokes
I/III heat, and the reported total work is w_total = -(w1 + w2), positive
when the cycle delivers work.  Efficiency is w_total / q_h and is left
undefined (None) unless both q_h and w_total are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmat
from .qmat import ID2, KET_MINUS, KET_PLUS, SIGMA_X, SIGMA_Z

LN2 = math.log(2.0)

TWO_PI = 2.0 * math.pi

# Works and heats below this are treated as zero when deciding whether the
# cycle ran as an engine, so rounding noise cannot fabricate an efficiency.
ENGINE_TOL = 1e-12


def _check_finite_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class EngineParams:
    """Physical setup: level splittings and bath inverse temperatures.

    ``omega_z`` and ``omega_x`` are the spectral gaps of the two stroke
    Hamiltonians (units of the reference frequency); the engine condition
    requires omega_x > omega_z > 0.  ``beta_h`` is only meaningful for the
    conventional two-bath cycle and may be omitted otherwise.  All values
    must be finite.
    """

    omega_z: float
    omega_x: float
    beta_c: float
    beta_h: float | None = None

    def __post_init__(self):
        for name in ("omega_z", "omega_x", "beta_c", "beta_h"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.omega_x > self.omega_z > 0.0):
            raise ValueError(
                f"engine condition omega_x > omega_z > 0 violated: "
                f"omega_x={self.omega_x}, omega_z={self.omega_z}"
            )
        if not self.beta_c > 0.0:
            raise ValueError(f"beta_c must be positive, got {self.beta_c}")
        if self.beta_h is not None and not (0.0 <= self.beta_h < self.beta_c):
            raise ValueError(f"beta_h must satisfy 0 <= beta_h < beta_c, got {self.beta_h}")

    @property
    def v_z(self) -> float:
        return 0.5 * self.beta_c * self.omega_z

    @property
    def v_x(self) -> float:
        if self.beta_h is None:
            raise ValueError("beta_h is not set")
        return 0.5 * self.beta_h * self.omega_x

    @property
    def tau_z(self) -> float:
        return math.tanh(self.v_z)

    @property
    def tau_x(self) -> float:
        return math.tanh(self.v_x)

    @property
    def gamma(self) -> float:
        """Compression ratio omega_x / omega_z."""
        return self.omega_x / self.omega_z


@dataclass(frozen=True)
class DriveSpec:
    """Drive-stroke parametrization: transition probability p and phase alpha.

    p = 1 is the adiabatic limit; p in [1/2, 1) is the non-adiabatic regime.
    """

    p: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (0.5 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [1/2, 1], got {self.p}")
        if not (0.0 <= self.alpha < TWO_PI):
            raise ValueError(f"alpha must lie in [0, 2*pi), got {self.alpha}")


def _basis_kets(theta: float, phi) -> np.ndarray:
    # Kets of the bases at (theta, phi), one row per outcome; phi may be an array.
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    phase = np.exp(1.0j * np.asarray(phi))[..., None]
    return np.stack([c * KET_PLUS + phase * s * KET_MINUS, s * KET_PLUS - phase * c * KET_MINUS], axis=-2)


def basis_projectors(theta: float, phi) -> np.ndarray:
    """Outcome projectors of the bases at (theta, phi), shape ``phi.shape + (2, 2, 2)``."""
    k = _basis_kets(theta, phi)
    return k[..., :, None] * k.conj()[..., None, :]


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal qubit basis on the Bloch sphere whose poles are |+> and |->.

    theta_x is the polar and phi_x the azimuthal angle; theta_x = 0 gives
    the {|+>, |->} basis and theta_x = pi/2, phi_x = 0 the computational one.
    """

    theta_x: float
    phi_x: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta_x <= math.pi):
            raise ValueError(f"theta_x must lie in [0, pi], got {self.theta_x}")
        if not (0.0 <= self.phi_x < TWO_PI):
            raise ValueError(f"phi_x must lie in [0, 2*pi), got {self.phi_x}")

    @classmethod
    def wrapped(cls, theta: float, phi: float) -> MeasurementBasis:
        """The basis at any finite (theta, phi), continuing the chart periodically.

        Reflecting theta about pi while shifting phi by pi reproduces the
        same projector pair, so every angle pair maps onto the chart.
        """
        th = theta % TWO_PI
        ph = phi
        if th > math.pi:
            th = TWO_PI - th
            ph += math.pi
        th = min(max(th, 0.0), math.pi)
        ph %= TWO_PI
        if ph >= TWO_PI:
            ph = 0.0
        return cls(theta_x=th, phi_x=ph)

    def kets(self) -> np.ndarray:
        """The two basis kets, one per row."""
        return _basis_kets(self.theta_x, self.phi_x)

    def projectors(self) -> np.ndarray:
        """The two outcome projectors, stacked along the first axis."""
        return basis_projectors(self.theta_x, self.phi_x)


def _plus_projector() -> np.ndarray:
    return np.outer(KET_PLUS, KET_PLUS.conj())


@dataclass(frozen=True, eq=False)
class PovmSpec:
    """Two-outcome generalized measurement given as a dilation.

    The auxiliary starts in ``aux_state`` (pure |+><+| by default), the
    joint unitary acts on (system x auxiliary), and the outcome projectors
    act on the auxiliary in ``aux_basis``.  The induced Kraus operators
    must resolve the identity within UNITARY_TOL.  Specs compare by
    identity.
    """

    joint_unitary: np.ndarray
    aux_state: np.ndarray = field(default_factory=_plus_projector)
    aux_basis: MeasurementBasis = MeasurementBasis(0.0, 0.0)

    def __post_init__(self):
        u = qmat.validate_unitary(self.joint_unitary, name="joint_unitary").copy()
        if u.shape != (4, 4):
            raise ValueError(f"joint_unitary must be 4x4, got {u.shape}")
        rho_a = qmat.validate_density_matrix(self.aux_state, name="aux_state").copy()
        if rho_a.shape != (2, 2):
            raise ValueError(f"aux_state must be 2x2, got {rho_a.shape}")
        u.setflags(write=False)
        rho_a.setflags(write=False)
        object.__setattr__(self, "joint_unitary", u)
        object.__setattr__(self, "aux_state", rho_a)
        self.validate_kraus()

    def kraus_operators(self) -> list[np.ndarray]:
        """Induced system Kraus operators, one per (outcome, auxiliary eigenstate).

        For a pure auxiliary this is the familiar two-operator family
        K_i = <psi_i| V |a>; mixed auxiliaries contribute one operator per
        nonzero spectral weight, scaled by its square root.
        """
        v4 = self.joint_unitary.reshape(2, 2, 2, 2)
        weights, states = qmat.hermitian_eig(self.aux_state)
        ops = []
        for ket_out in self.aux_basis.kets():
            for w, phi in zip(weights, states.T):
                if w <= 1e-14:
                    continue
                k = np.einsum("a,satb,b->st", ket_out.conj(), v4, phi)
                ops.append(math.sqrt(w) * k)
        return ops

    def validate_kraus(self) -> None:
        total = sum(k.conj().T @ k for k in self.kraus_operators())
        if np.max(np.abs(total - ID2)) > qmat.UNITARY_TOL:
            raise ValueError("induced Kraus operators do not resolve the identity")


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle thermodynamic ledger.

    Energies e0..e3 are the working-substance energies after strokes
    I..IV; w1/w2 are the stroke works, q_c/q_h the stroke heats.  ``eta``
    is None whenever the cycle does not operate as an engine.  The two
    aux_* fields are nonzero only for generalized-measurement cycles.
    """

    e0: float
    e1: float
    e2: float
    e3: float
    w1: float
    w2: float
    w_total: float
    q_c: float
    q_h: float
    eta: float | None
    aux_entropy: float = 0.0
    aux_reset_cost: float = 0.0

    @classmethod
    def from_energies(cls, e0, e1, e2, e3, aux_entropy=0.0, aux_reset_cost=0.0) -> CycleRecord:
        """The ledger of a cycle whose strokes leave energies e0..e3."""
        e0, e1, e2, e3 = float(e0), float(e1), float(e2), float(e3)
        w1 = e1 - e0
        w2 = e3 - e2
        w_total = -(w1 + w2)
        q_h = e2 - e1
        q_c = e0 - e3
        eta = w_total / q_h if (q_h > ENGINE_TOL and w_total > ENGINE_TOL) else None
        return cls(
            e0=e0, e1=e1, e2=e2, e3=e3, w1=w1, w2=w2, w_total=w_total,
            q_c=q_c, q_h=q_h, eta=eta,
            aux_entropy=aux_entropy, aux_reset_cost=aux_reset_cost,
        )

    @property
    def net_work(self) -> float:
        """Delivered work after paying the auxiliary reset cost."""
        return self.w_total - self.aux_reset_cost

    @property
    def first_law_residual(self) -> float:
        return abs(self.q_h + self.q_c - self.w_total)


def hamiltonian_h1(params: EngineParams) -> np.ndarray:
    """Stroke-I/IV Hamiltonian (omega_z / 2) sigma_z."""
    return 0.5 * params.omega_z * SIGMA_Z


def hamiltonian_h2(params: EngineParams) -> np.ndarray:
    """Stroke-II/III Hamiltonian (omega_x / 2) sigma_x."""
    return 0.5 * params.omega_x * SIGMA_X


def thermal_state(h, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta h) / Z, computed in the eigenbasis of h."""
    _check_finite_nonnegative("beta", beta)
    return _gibbs(qmat.validate_hermitian(h, name="h"), beta)


def _gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    # thermal_state without input checks.
    vals, vecs = qmat._hermitian_eig(h)
    weights = np.exp(-beta * (vals - vals.min()))  # shift guards overflow at large beta
    weights /= weights.sum()
    return (vecs * weights) @ vecs.conj().T


def drive_unitary(drive: DriveSpec) -> np.ndarray:
    """Drive-stroke unitary: maps |0> to sqrt(p)|+> + e^{i alpha} sqrt(1-p)|->."""
    rp = math.sqrt(drive.p)
    rq = math.sqrt(1.0 - drive.p)
    phase = np.exp(1.0j * drive.alpha)
    u = np.array(
        [[rp + phase * rq, rq - phase * rp], [rp - phase * rq, rq + phase * rp]],
        dtype=complex,
    ) / math.sqrt(2.0)
    return u


def _expect(h: np.ndarray, rho: np.ndarray):
    # Tr(h rho) of one state or of each state in a stack.
    return (h @ rho).trace(axis1=-2, axis2=-1).real


class Strokes(NamedTuple):
    """Driven state rho1 and energies e0, e1 after strokes I-II.

    Stroke IV maps rho2 to u^dag rho2 u, so e3 = Tr(uh1u rho2) with the
    stroke-IV energy operator uh1u = u h1 u^dag.
    """

    rho1: np.ndarray
    e0: float
    e1: float
    h2: np.ndarray
    uh1u: np.ndarray

    def energies(self, rho2):
        """(e2, e3) of a stroke-III output, or arrays of them for a stack."""
        return _expect(self.h2, rho2), _expect(self.uh1u, rho2)

    def work(self, rho2):
        """Total work w_total of the cycle through rho2 (elementwise on a stack)."""
        e2, e3 = self.energies(rho2)
        return -(self.e1 - self.e0) - (e3 - e2)


def strokes_i_ii(params: EngineParams, drive: DriveSpec) -> Strokes:
    """Thermalize at h1 and the cold bath (stroke I), then drive (stroke II)."""
    h1 = hamiltonian_h1(params)
    h2 = hamiltonian_h2(params)
    rho0 = _gibbs(h1, params.beta_c)
    u = drive_unitary(drive)
    rho1 = u @ rho0 @ u.conj().T
    return Strokes(
        rho1=rho1,
        e0=float(_expect(h1, rho0)),
        e1=float(_expect(h2, rho1)),
        h2=h2,
        uh1u=u @ h1 @ u.conj().T,
    )


def _measure(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    # Non-selective projective measurement sum_i P_i rho P_i over the outcome
    # axis (-3) of a projector stack; leading axes of the stack broadcast.
    x = projectors @ rho @ projectors
    return x[..., 0, :, :] + x[..., 1, :, :]


def _povm_stroke(rho: np.ndarray, povm: PovmSpec) -> tuple[np.ndarray, np.ndarray]:
    # Rotate the dilated state by the joint unitary, measure the auxiliary
    # with the joint projectors I (x) P_i, return the (system, auxiliary)
    # marginals.
    v = povm.joint_unitary
    x = v @ np.kron(rho, povm.aux_state) @ v.conj().T
    return qmat._marginals(_measure(x, np.kron(ID2, povm.aux_basis.projectors())))


def pvm_stroke(rho, basis: MeasurementBasis) -> np.ndarray:
    """Non-selective projective measurement: rho -> sum_i P_i rho P_i."""
    return _measure(qmat.validate_density_matrix(rho), basis.projectors())


def povm_stroke(rho, povm: PovmSpec) -> tuple[np.ndarray, np.ndarray]:
    """Non-selective generalized measurement via the auxiliary dilation.

    Returns ``(system, aux_post)``, the marginals of the joint state after
    the auxiliary has been measured without post-selection.  The system
    marginal equals sum_i K_i rho K_i^dag for the induced Kraus family.
    """
    r = qmat.validate_density_matrix(rho)
    if r.shape != (2, 2):
        raise ValueError(f"rho must be 2x2, got {r.shape}")
    return _povm_stroke(r, povm)


def run_conventional_cycle(params: EngineParams, drive: DriveSpec) -> CycleRecord:
    """Two-bath cycle: stroke III thermalizes at the hot inverse temperature.

    Stroke IV applies the reversed drive (the adjoint of the stroke-II
    unitary), so one drive parametrizes both work strokes.
    """
    if params.beta_h is None:
        raise ValueError("the conventional cycle requires beta_h")
    s = strokes_i_ii(params, drive)
    rho2 = _gibbs(s.h2, params.beta_h)
    return CycleRecord.from_energies(s.e0, s.e1, *s.energies(rho2))


def run_pvm_cycle(params: EngineParams, drive: DriveSpec, basis: MeasurementBasis) -> CycleRecord:
    """Measurement-fueled cycle: stroke III is a non-selective projective measurement."""
    s = strokes_i_ii(params, drive)
    rho2 = _measure(s.rho1, basis.projectors())
    return CycleRecord.from_energies(s.e0, s.e1, *s.energies(rho2))


def run_povm_cycle(
    params: EngineParams,
    drive: DriveSpec,
    povm: PovmSpec,
    reset_temperature: float | None = None,
) -> CycleRecord:
    """Generalized-measurement cycle with the auxiliary reset cost accounted.

    The auxiliary carries a trivial Hamiltonian, so its state changes cost
    no energy during the stroke itself; the only auxiliary cost is the
    erasure work T * S * ln 2 (S in bits) needed to reinitialize it, paid
    against the bath at ``reset_temperature`` (the cold-bath temperature
    1/beta_c unless overridden; it must be finite and nonnegative).
    """
    if reset_temperature is None:
        reset_temperature = 1.0 / params.beta_c
    _check_finite_nonnegative("reset_temperature", reset_temperature)
    s = strokes_i_ii(params, drive)
    rho2, aux_post = _povm_stroke(s.rho1, povm)
    aux_entropy = qmat._entropy_bits(aux_post)
    return CycleRecord.from_energies(
        s.e0, s.e1, *s.energies(rho2),
        aux_entropy=aux_entropy,
        aux_reset_cost=reset_temperature * LN2 * aux_entropy,
    )
