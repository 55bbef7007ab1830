"""Stroke-level simulation of qubit Otto cycles.

Three cycle variants share strokes I (thermalize at the sigma_z
Hamiltonian), II (unitary drive) and IV (reversed drive); they differ in
stroke III, which is either a hot-bath thermalization, a non-selective
projective measurement, or a non-selective generalized measurement
realized by a joint unitary with a qubit auxiliary followed by a
projective measurement on the auxiliary.

Every cycle, grid and optimizer objective runs through one unchecked
kernel broadcast over a leading row axis, a single cycle being its 0-d case:
:func:`strokes_i_ii` (a list of specs gives one row each, a single spec is
shared), then one of the stroke-III methods of :class:`Strokes` (a hot
bath, a projective measurement, or a dilation whose joint unitary may
differ per row), and :meth:`CycleRecord.from_energies`, which gives a grid
one record whose fields are arrays over the rows.  ``run_*_cycle`` checks
one cycle's inputs and runs it; a grid calls the kernel directly with
inputs its caller has already checked.  Inputs are checked when a spec
type is built or a raw array enters a public function.

Sign convention: energy changes in strokes II/IV are work, in strokes
I/III heat, and the reported total work is w_total = -(w1 + w2), positive
when the cycle delivers work.  Efficiency is w_total / q_h and is left
undefined (None, or NaN in a grid's column) unless both q_h and w_total are
positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmat
from .qmat import KET_MINUS, KET_PLUS, SIGMA_X, SIGMA_Z

LN2 = math.log(2.0)

TWO_PI = 2.0 * math.pi

# Works and heats below this are treated as zero when deciding whether the
# cycle ran as an engine, so rounding noise cannot fabricate an efficiency.
ENGINE_TOL = 1e-12


def _check_finite_nonnegative(name: str, value: float) -> float:
    # The checked value, a -0.0 made +0.0 so that it prints as 0.
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value + 0.0


@dataclass(frozen=True)
class EngineParams:
    """Physical setup: level splittings and bath inverse temperatures.

    ``omega_z`` and ``omega_x`` are the spectral gaps of the two stroke
    Hamiltonians (units of the reference frequency); the engine condition
    requires omega_x > omega_z > 0.  ``beta_h`` is only meaningful for the
    conventional two-bath cycle and may be omitted otherwise.  All values
    must be finite, and so must the cold temperature 1/beta_c.  The closed
    forms square the gaps and the Gibbs states scale them by beta, so
    omega_x may be at most 1e150 and beta_c * omega_x at most 1e300, far
    enough inside the float range that neither overflows.
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
        if not self.omega_x <= 1e150:
            raise ValueError(f"omega_x must be at most 1e150, got {self.omega_x}")
        if not self.beta_c > 0.0:
            raise ValueError(f"beta_c must be positive, got {self.beta_c}")
        if not 1.0 / self.beta_c < math.inf:  # the default reset temperature is 1/beta_c
            raise ValueError(f"beta_c must have a finite reciprocal, got {self.beta_c}")
        if not self.beta_c * self.omega_x <= 1e300:  # beta_h < beta_c, so beta_h * omega_x is bounded too
            raise ValueError(f"beta_c * omega_x must be at most 1e300, got {self.beta_c} * {self.omega_x}")
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


def _field(specs, name: str):
    # A field of one spec, or an array of it over a list or tuple of specs.
    if isinstance(specs, (list, tuple)):
        return np.array([getattr(x, name) for x in specs], dtype=float)
    return getattr(specs, name)


def _basis_kets(theta, phi) -> np.ndarray:
    # Kets of the bases at (theta, phi), one row per outcome; theta and phi may be arrays.
    half = np.asarray(0.5 * theta)[..., None]
    c, s = np.cos(half), np.sin(half)
    phase = np.exp(1.0j * np.asarray(phi))[..., None]
    return np.stack([c * KET_PLUS + phase * s * KET_MINUS, s * KET_PLUS - phase * c * KET_MINUS], axis=-2)


def basis_projectors(theta, phi) -> np.ndarray:
    """Outcome projectors of the bases at (theta, phi), shape ``broadcast(theta, phi).shape + (2, 2, 2)``."""
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


@dataclass(frozen=True, eq=False)
class PovmSpec:
    """Two-outcome generalized measurement given as a dilation.

    The auxiliary starts in ``aux_state`` (pure |+><+| by default), the
    joint unitary V acts on (system x auxiliary), and the outcome projectors
    act on the auxiliary in ``aux_basis``.  The induced Kraus family needs
    no check of its own: the outcome projectors sum to I, so
    sum_i K_i^dag K_i - I = Tr_a[(I x rho_a)(V^dag V - I)], and with V
    unitary within UNITARY_TOL and rho_a a density matrix the family
    resolves the identity within 2 UNITARY_TOL elementwise.  Specs compare
    by identity.
    """

    joint_unitary: np.ndarray
    aux_state: np.ndarray = field(default_factory=lambda: np.outer(KET_PLUS, KET_PLUS.conj()))
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


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle thermodynamic ledger, or the ledgers of a grid as columns.

    Energies e0..e3 are the working-substance energies after strokes
    I..IV; w1/w2 are the stroke works, q_c/q_h the stroke heats.  ``eta``
    is None whenever the cycle does not operate as an engine.  The two
    aux_* fields are nonzero only for generalized-measurement cycles.
    A grid's record holds one float array per field, over the rows, with
    ``eta`` NaN in the rows where a single cycle's would be None.
    """

    e0: float | np.ndarray
    e1: float | np.ndarray
    e2: float | np.ndarray
    e3: float | np.ndarray
    w1: float | np.ndarray
    w2: float | np.ndarray
    w_total: float | np.ndarray
    q_c: float | np.ndarray
    q_h: float | np.ndarray
    eta: float | np.ndarray | None
    aux_entropy: float | np.ndarray = 0.0
    aux_reset_cost: float | np.ndarray = 0.0

    @classmethod
    def from_energies(cls, e0, e1, e2, e3, aux_entropy=0.0, aux_reset_cost=0.0) -> CycleRecord:
        """The ledger of a cycle whose strokes leave energies e0..e3.

        Scalars (floats or 0-d arrays) give plain floats; if any argument is
        an array with a row axis, all are broadcast together and every field
        is an array of that shape.
        """
        cols = (e0, e1, e2, e3, aux_entropy, aux_reset_cost)
        if any(getattr(c, "ndim", 0) for c in cols):
            e0, e1, e2, e3, aux_entropy, aux_reset_cost = np.broadcast_arrays(*(np.asarray(c, float) for c in cols))
        else:
            e0, e1, e2, e3, aux_entropy, aux_reset_cost = map(float, cols)
        w1 = e1 - e0
        w2 = e3 - e2
        w_total = -(w1 + w2)
        q_h = e2 - e1
        q_c = e0 - e3
        runs = (q_h > ENGINE_TOL) & (w_total > ENGINE_TOL)  # the cycle runs as an engine
        if isinstance(runs, bool):
            eta = w_total / q_h if runs else None
        else:
            eta = np.divide(w_total, q_h, out=np.full_like(q_h, np.nan), where=runs)
        return cls(
            e0=e0, e1=e1, e2=e2, e3=e3, w1=w1, w2=w2, w_total=w_total,
            q_c=q_c, q_h=q_h, eta=eta,
            aux_entropy=aux_entropy, aux_reset_cost=aux_reset_cost,
        )

    @property
    def net_work(self) -> float | np.ndarray:
        """Delivered work after paying the auxiliary reset cost."""
        return self.w_total - self.aux_reset_cost

    @property
    def first_law_residual(self) -> float | np.ndarray:
        return abs(self.q_h + self.q_c - self.w_total)


def hamiltonian_h1(params: EngineParams) -> np.ndarray:
    """Stroke-I/IV Hamiltonian (omega_z / 2) sigma_z; a list of params gives one per row."""
    return np.multiply.outer(0.5 * _field(params, "omega_z"), SIGMA_Z)


def hamiltonian_h2(params: EngineParams) -> np.ndarray:
    """Stroke-II/III Hamiltonian (omega_x / 2) sigma_x; a list of params gives one per row."""
    return np.multiply.outer(0.5 * _field(params, "omega_x"), SIGMA_X)


def _gibbs(h: np.ndarray, beta) -> np.ndarray:
    # Gibbs state exp(-beta h) / Z in the eigenbasis of h, unchecked; h and beta broadcast over leading axes.
    vals, vecs = np.linalg.eigh(h)
    # eigh sorts ascending; shifting by the lowest level guards overflow at large beta
    weights = np.exp(np.asarray(-beta)[..., None] * (vals - vals[..., :1]))
    weights /= weights.sum(axis=-1, keepdims=True)
    return (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def drive_unitary(drive: DriveSpec) -> np.ndarray:
    """Drive-stroke unitary mapping |0> to sqrt(p)|+> + e^{i alpha} sqrt(1-p)|->; one per row for a list."""
    p = _field(drive, "p")
    rp, rq = np.sqrt(p), np.sqrt(1.0 - p)
    phase = np.exp(1.0j * _field(drive, "alpha"))
    u = np.empty(rp.shape + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1] = rp + phase * rq, rq - phase * rp
    u[..., 1, 0], u[..., 1, 1] = rp - phase * rq, rq + phase * rp
    return u / math.sqrt(2.0)


def _expect(h: np.ndarray, rho: np.ndarray):
    # Tr(h rho) = sum_jk (Re h_jk Re rho_jk + Im h_jk Im rho_jk) of Hermitian h and rho (or stacks), from their real
    # views, so both need a contiguous trailing axis; + 0.0 turns a sum of -0.0 into +0.0, as ndarray.trace does.
    return np.add.reduce(h.view(float) * rho.view(float), axis=(-2, -1)) + 0.0


class Strokes(NamedTuple):
    """Driven state rho1 and energies e0, e1 after strokes I-II; the stroke-III methods return the ledger.

    Stroke IV maps rho2 to u^dag rho2 u, so e3 = Tr(uh1u rho2) with the
    stroke-IV energy operator uh1u = u h1 u^dag.  Stacked rows lead every field.
    """

    rho1: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    h2: np.ndarray
    uh1u: np.ndarray

    def energies(self, rho2):
        """(e2, e3) of a stroke-III output, or arrays of them for a stack."""
        return _expect(self.h2, rho2), _expect(self.uh1u, rho2)

    def work(self, rho2):
        """Total work w_total of the cycle through rho2 (elementwise on a stack)."""
        e2, e3 = self.energies(rho2)
        return -(self.e1 - self.e0) - (e3 - e2)

    def record(self, rho2, aux_entropy=0.0, aux_reset_cost=0.0) -> CycleRecord:
        """The ledger of the cycle through rho2: one record, with array fields for a stack."""
        return CycleRecord.from_energies(self.e0, self.e1, *self.energies(rho2), aux_entropy, aux_reset_cost)

    def thermalize(self, beta_h) -> CycleRecord:
        """Stroke III as a hot bath at beta_h (one per row, or shared)."""
        return self.record(_gibbs(self.h2, beta_h))

    def measure(self, projectors: np.ndarray) -> CycleRecord:
        """Stroke III as the non-selective measurement with a stack of rank-one outcome projectors (-3 axis)."""
        return self.record(_measure(self.rho1, projectors))

    def dilate(self, v: np.ndarray, aux_state, aux_projectors, reset_temperature) -> CycleRecord:
        """Stroke III as the dilation of :func:`run_povm_cycle`, with one joint unitary v per row or one shared."""
        rho2, aux_post = _povm_stroke(self.rho1, v, aux_state, aux_projectors)
        aux_entropy = qmat._entropy_bits(aux_post)
        gained = aux_entropy - qmat._entropy_bits(aux_state)
        cost = reset_temperature * LN2 * np.where(gained < 0.0, 0.0, gained)
        return self.record(rho2, aux_entropy, cost)


def strokes_i_ii(params: EngineParams, drive: DriveSpec) -> Strokes:
    """Thermalize at h1 and the cold bath (stroke I), then drive (stroke II); either may be a list."""
    h1 = hamiltonian_h1(params)
    h2 = hamiltonian_h2(params)
    rho0 = _gibbs(h1, _field(params, "beta_c"))
    u = drive_unitary(drive)
    u_dag = u.conj().swapaxes(-1, -2)
    rho1 = u @ rho0 @ u_dag
    return Strokes(rho1=rho1, e0=_expect(h1, rho0), e1=_expect(h2, rho1), h2=h2, uh1u=u @ h1 @ u_dag)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Kronecker product of the trailing 2x2 matrices; leading axes broadcast.
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (4, 4))


def _measure(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    # Non-selective measurement sum_i P_i rho P_i = sum_i Tr(P_i rho) P_i over the outcome axis (-3) of a stack of
    # rank-one projectors, traces as in _expect; leading axes of rho and the stack broadcast.
    w = np.add.reduce(projectors.view(float) * rho.view(float)[..., None, :, :], axis=(-2, -1), keepdims=True)
    x = w * projectors
    return x[..., 0, :, :] + x[..., 1, :, :]


def _povm_stroke(rho: np.ndarray, v: np.ndarray, aux_state: np.ndarray, aux_projectors: np.ndarray):
    # The (system, auxiliary) marginals of the dilated state rotated by v (one per row or shared) and measured
    # with I (x) P_i, taken on the auxiliary marginal alone: Tr_s[(I x P) X (I x P)] = P Tr_s[X] P, and the
    # system marginal is unchanged, sum_i Tr_a[(I x P_i) X (I x P_i)] = Tr_a[X (I x sum_i P_i)] = Tr_a[X].
    system, aux = qmat._marginals(v @ _kron(rho, aux_state) @ v.conj().swapaxes(-1, -2))
    return system, _measure(aux, aux_projectors)


def pvm_stroke(rho, basis: MeasurementBasis) -> np.ndarray:
    """Non-selective projective measurement rho -> sum_i P_i rho P_i, taken as sum_i Tr(P_i rho) P_i (rank-one P_i)."""
    return _measure(qmat.validate_density_matrix(rho), basis.projectors())


def povm_stroke(rho, povm: PovmSpec) -> tuple[np.ndarray, np.ndarray]:
    """Non-selective generalized measurement via the auxiliary dilation.

    Returns ``(system, aux_post)``, the marginals of the joint state after
    the auxiliary has been measured without post-selection.  The system
    marginal equals sum_i K_i rho K_i^dag for the induced Kraus family.
    The auxiliary is measured on its marginal: its outcome projectors sum
    to I, so the measurement leaves the system marginal of the rotated
    state unchanged; the unitary alone sets the system's energy (the heat),
    and the measurement only the auxiliary's entropy and so its reset cost.
    """
    r = qmat.validate_density_matrix(rho)
    if r.shape != (2, 2):
        raise ValueError(f"rho must be 2x2, got {r.shape}")
    return _povm_stroke(r, povm.joint_unitary, povm.aux_state, povm.aux_basis.projectors())


def run_conventional_cycle(params: EngineParams, drive: DriveSpec) -> CycleRecord:
    """Two-bath cycle: stroke III thermalizes at the hot inverse temperature.

    Stroke IV applies the reversed drive (the adjoint of the stroke-II
    unitary), so one drive parametrizes both work strokes.
    """
    if params.beta_h is None:
        raise ValueError("the conventional cycle requires beta_h")
    return strokes_i_ii(params, drive).thermalize(params.beta_h)


def run_pvm_cycle(params: EngineParams, drive: DriveSpec, basis: MeasurementBasis) -> CycleRecord:
    """Measurement-fueled cycle: stroke III is a non-selective projective measurement."""
    return strokes_i_ii(params, drive).measure(basis.projectors())


def run_povm_cycle(
    params: EngineParams,
    drive: DriveSpec,
    povm: PovmSpec,
    reset_temperature: float | None = None,
) -> CycleRecord:
    """Generalized-measurement cycle with the auxiliary reset cost accounted.

    The auxiliary carries a trivial Hamiltonian, so its state changes cost
    no energy during the stroke itself; the only auxiliary cost is the work
    needed to return it to ``povm.aux_state``, paid against the bath at
    ``reset_temperature`` (the cold-bath temperature 1/beta_c unless
    overridden; it must be finite and nonnegative).  It is charged at the
    second-law minimum T ln 2 max(S_post - S_init, 0), S in bits (Reeb &
    Wolf, New J. Phys. 16, 103011 (2014)): a mixed auxiliary pays only for
    the entropy it gains, and the pure default pays T ln 2 S_post.
    ``aux_entropy`` reports S_post.
    """
    reset_temperature = _check_finite_nonnegative(
        "reset_temperature", 1.0 / params.beta_c if reset_temperature is None else reset_temperature
    )
    return strokes_i_ii(params, drive).dilate(
        povm.joint_unitary, povm.aux_state, povm.aux_basis.projectors(), reset_temperature
    )
