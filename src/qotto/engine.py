"""Stroke-level simulation of qubit Otto cycles.

Three cycle variants share strokes I (thermalize at the sigma_z
Hamiltonian), II (unitary drive) and IV (reversed drive); they differ in
stroke III, which is either a hot-bath thermalization, a non-selective
projective measurement, or a non-selective generalized measurement
realized by a joint unitary with a qubit auxiliary followed by a
projective measurement on the auxiliary.

Every cycle, grid and optimizer objective runs through one unchecked kernel
broadcast over a leading row axis, a single cycle being its 0-d case: one
stroke-I/II setup, :func:`_strokes`, from the five field values omega_z,
omega_x, beta_c, p and alpha, which broadcast (a spec passes its own fields, a
grid arrays of the swept ones, checked once by its caller), then a stroke-III
method of :class:`Strokes` (a projective measurement, a dilation whose joint
unitary may differ per row, or the record of any output state, such as hot
Gibbs states), then :meth:`CycleRecord.from_energies` at the setup's gap
omega_x, which gives a grid one record whose fields are arrays over the rows.
:func:`strokes_i_ii` is the setup's spec entry and ``run_*_cycle`` runs one
cycle; stroke III takes only arrays built from checked specs or grids (``qotto
fig2`` and the basis search pass theirs to :func:`_measure`), so inputs are
checked when a spec type is built, and the reset temperature by one
EngineParams method.  A measurement basis's outcome projectors are
(I +- n.sigma)/2 of its Bloch axis n, filled in from real sines and cosines
of its chart angles by :func:`basis_projectors`, for one basis or a stack.
A spec's constants are computed once, on its first use, and kept read-only:
EngineParams the two-bath cycle's hot Gibbs state, MeasurementBasis its
projectors, and a DriveSpec, in one slot matched by identity, the stroke-I/II
setup of the last EngineParams it ran with, so a cycle on a pair already used
runs only stroke III and the ledger.  PovmSpec's default auxiliary |+><+| and
its initial entropy S_init are checked and computed once, at import; a given
auxiliary is checked with one eigen-solve, which also yields its S_init, when
the spec is built.  A dilation reads the auxiliary's entropy after the stroke
off its outcome probabilities, so a cycle on specs already used runs no
eigen-solver.  A copy or pickle of any spec is built anew from its fields, so
it is checked again, read-only, and computes its own constants and stroke-I/II
setup.

Sign convention: energy changes in strokes II/IV are work, in strokes
I/III heat, and the reported total work is w_total = -(w1 + w2), positive
when the cycle delivers work.  Efficiency is w_total / q_h and is left
undefined (None, or NaN in a grid's column) unless both q_h and w_total are
positive, each above ENGINE_TOL times the cycle's gap omega_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qmat
from .qmat import KET_PLUS, SIGMA_X, SIGMA_Z

LN2 = math.log(2.0)

TWO_PI = 2.0 * math.pi

# Works and heats below this times the cycle's gap omega_x are treated as zero when deciding whether it ran as an
# engine.  h2 = (omega_x / 2) sigma_x is the cycle's operator of largest norm, so every energy of either route
# carries rounding of order eps omega_x whatever the state, and noise cannot fabricate an efficiency at any scale
# of the gaps or temperatures.
ENGINE_TOL = 1e-12

# Grid points per stacked pass, which bounds the arrays held at once: a slice of a sweep, or a pass of the basis scan,
# a block of whole theta-rows or, where a row is longer than this, a chunk of one row.  Measured on the basis scan at
# grid 256: passes of 4096 points ran about 25% slower per point than 1024, and 2048 within 5% of it.
GRID_SLICE = 1024


def _rebuilt(spec) -> tuple:
    # How every spec copies and pickles: rebuilt from its field values through its constructor, so a copy is
    # checked again, read-only, and computes its own constants.
    return type(spec), tuple(getattr(spec, f.name) for f in fields(spec))


def _read_only(a):
    # An array a spec keeps, made read-only (a numpy scalar, such as a cached e0, is immutable already).
    if isinstance(a, np.ndarray):
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EngineParams:
    """Physical setup: level splittings and bath inverse temperatures.

    ``omega_z`` and ``omega_x`` are the spectral gaps of the two stroke
    Hamiltonians (units of the reference frequency); the engine condition
    requires omega_x > omega_z > 0.  ``beta_h`` is only meaningful for the
    conventional two-bath cycle and may be omitted otherwise.  All values
    must be finite, and so must the cold temperature 1/beta_c.  The closed
    forms add a few multiples of the gaps and the Gibbs states scale them
    by beta, so omega_x and beta_c * omega_x may each be at most 1e300, far
    enough inside the float range that neither overflows.
    """

    omega_z: float
    omega_x: float
    beta_c: float
    beta_h: float | None = None

    __reduce__ = _rebuilt

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
        if not self.omega_x <= 1e300:
            raise ValueError(f"omega_x must be at most 1e300, got {self.omega_x}")
        if not self.beta_c > 0.0:
            raise ValueError(f"beta_c must be positive, got {self.beta_c}")
        if not 1.0 / self.beta_c < math.inf:  # the default reset temperature is 1/beta_c
            raise ValueError(f"beta_c must have a finite reciprocal, got {self.beta_c}")
        if not self.beta_c * self.omega_x <= 1e300:  # beta_h < beta_c, so beta_h * omega_x is bounded too
            raise ValueError(f"beta_c * omega_x must be at most 1e300, got {self.beta_c} * {self.omega_x}")
        if self.beta_h is not None and not (0.0 <= self.beta_h < self.beta_c):
            raise ValueError(f"beta_h must satisfy 0 <= beta_h < beta_c, got {self.beta_h}")

    def reset_temperature(self, t_c: float | None = None) -> float:
        """The auxiliary's reset temperature: t_c (finite, >= 0, a -0 returned as 0), or 1/beta_c if None."""
        t = 1.0 / self.beta_c if t_c is None else t_c
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t_c must be finite and nonnegative, got {t}")
        return t + 0.0

    @cached_property
    def _hot_state(self) -> np.ndarray:
        # The stroke-III Gibbs state of the two-bath cycle, at h2 and beta_h, computed on first use and read-only.
        return _read_only(_gibbs(np.multiply.outer(0.5 * self.omega_x, SIGMA_X), self.beta_h))

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

    __reduce__ = _rebuilt

    def __post_init__(self):
        if not (0.5 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [1/2, 1], got {self.p}")
        if not (0.0 <= self.alpha < TWO_PI):
            raise ValueError(f"alpha must lie in [0, 2*pi), got {self.alpha}")


def basis_projectors(theta, phi) -> np.ndarray:
    """Outcome projectors of the bases at (theta, phi), shape ``broadcast(theta, phi).shape + (2, 2, 2)``.

    They are (I +- n.sigma)/2 of the chart axis n = (cos theta, -sin theta sin phi, sin theta cos phi), filled in
    from real sines and cosines: P0 = 1/2 [[1 + n_z, n_x - i n_y], [n_x + i n_y, 1 - n_z]] with
    n_x - i n_y = cos theta + i sin theta sin phi, and P1 = I - P0 entry by entry, its off-diagonals the negated
    ones of P0.  They are 2 pi-periodic in both angles, so any finite angles are valid, and at the poles theta = 0
    and pi, where phi has no meaning, the axis is (+-1, 0, 0) whatever phi is, and the projectors are bitwise the
    same for every phi.  theta and phi may be arrays that broadcast, such as a theta column against a phi row,
    whose sines and cosines are taken once per value.
    """
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    # sin(pi - theta) = sin theta, and pi - theta is exact for theta in [pi/2, 2 pi], so the float pi, 1.2e-16 short
    # of the pole, gets sin theta = 0 as theta = 0 does
    s = 0.5 * np.sin(np.minimum(theta, math.pi - theta))
    x = 0.5 * np.cos(theta)  # n_x / 2
    y = s * np.sin(phi) + 0.0  # -n_y / 2; + 0.0 makes the zero at the poles a +0 at every phi
    z = s * np.cos(phi)  # n_z / 2
    out = np.empty(z.shape + (2, 2, 2), dtype=complex)
    # the 16 floats of one point: P0 = [[a, x + i y], [x - i y, b]] and P1 = [[b, -x - i y], [-x + i y, a]]
    f = out.view(float).reshape(z.shape + (16,))
    f[..., 0::14] = (0.5 + z)[..., None]  # a
    f[..., 6:9:2] = (0.5 - z)[..., None]  # b
    f[..., 2:5:2] = x[..., None]
    f[..., 10:13:2] = -x[..., None]
    f[..., 3::10] = y[..., None]
    f[..., 5::6] = -y[..., None]
    f[..., 1::8] = 0.0
    f[..., 7::8] = 0.0
    return out


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal qubit basis on the Bloch sphere whose poles are |+> and |->.

    theta_x is the polar and phi_x the azimuthal angle; theta_x = 0 gives
    the {|+>, |->} basis and theta_x = pi/2, phi_x = 0 the computational one.
    """

    theta_x: float
    phi_x: float = 0.0

    __reduce__ = _rebuilt

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

    @cached_property
    def _projectors(self) -> np.ndarray:
        return _read_only(basis_projectors(self.theta_x, self.phi_x))

    def projectors(self) -> np.ndarray:
        """The two outcome projectors, stacked along the first axis (computed on first use, read-only)."""
        return self._projectors


def _checked_aux_state(aux_state) -> tuple[np.ndarray, float]:
    # An auxiliary state checked as a 2x2 density matrix, copied read-only, with its von Neumann entropy S_init in
    # bits from the spectrum of the check's one eigen-solve.
    rho_a, spectrum = qmat._density_spectrum(aux_state, name="aux_state")
    if rho_a.shape != (2, 2):
        raise ValueError(f"aux_state must be 2x2, got {rho_a.shape}")
    return _read_only(rho_a.copy()), float(qmat._entropy_bits(spectrum))


# PovmSpec's default auxiliary |+><+| and its S_init, +0 from the spectrum [0, 1 - 2 eps], checked once, here.
_PLUS_STATE, _PLUS_ENTROPY = _checked_aux_state(np.outer(KET_PLUS, KET_PLUS.conj()))


@dataclass(frozen=True, eq=False)
class PovmSpec:
    """Two-outcome generalized measurement given as a dilation.

    The auxiliary starts in ``aux_state`` (pure |+><+| by default), the
    joint unitary V acts on (system x auxiliary), and the outcome projectors
    act on the auxiliary in ``aux_basis``.  The effects it induces on the
    system, E_i = Tr_a[(I x rho_a) V^dag (I x P_i) V], need no check of
    their own: the outcome projectors sum to I, so
    E_0 + E_1 - I = Tr_a[(I x rho_a)(V^dag V - I)], and with V unitary
    within UNITARY_TOL and rho_a a density matrix the effects resolve the
    identity within 2 UNITARY_TOL elementwise.  The default
    auxiliary is one read-only module constant, checked once, at import,
    together with its von Neumann entropy S_init (bits), so a spec built
    with it checks only its joint unitary.  A given auxiliary is checked
    with one eigen-solve, whose spectrum also yields its S_init.
    ``aux_basis`` must be a MeasurementBasis.  Specs compare by identity.
    """

    joint_unitary: np.ndarray
    aux_state: np.ndarray = field(default_factory=lambda: _PLUS_STATE)
    aux_basis: MeasurementBasis = MeasurementBasis(0.0, 0.0)

    __reduce__ = _rebuilt

    def __post_init__(self):
        u = qmat.validate_unitary(self.joint_unitary, name="joint_unitary").copy()
        if u.shape != (4, 4):
            raise ValueError(f"joint_unitary must be 4x4, got {u.shape}")
        if self.aux_state is _PLUS_STATE:
            rho_a, s_init = _PLUS_STATE, _PLUS_ENTROPY
        else:
            rho_a, s_init = _checked_aux_state(self.aux_state)
        if not isinstance(self.aux_basis, MeasurementBasis):
            raise ValueError(f"aux_basis must be a MeasurementBasis, got {type(self.aux_basis).__name__}")
        object.__setattr__(self, "joint_unitary", _read_only(u))
        object.__setattr__(self, "aux_state", rho_a)
        object.__setattr__(self, "_aux_entropy_init", s_init)


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle thermodynamic ledger, or the ledgers of a grid as columns.

    Energies e0..e3 are the working-substance energies after strokes
    I..IV; w1/w2 are the stroke works, q_c/q_h the stroke heats.  ``eta``
    is None whenever the cycle does not operate as an engine, that is
    unless q_h and w_total both exceed ENGINE_TOL times its gap omega_x.
    The two aux_* fields are nonzero only for generalized-measurement cycles.
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
    def from_energies(cls, e0, e1, e2, e3, omega_x, aux_entropy=0.0, aux_reset_cost=0.0) -> CycleRecord:
        """The ledger of a cycle at gap omega_x whose strokes leave energies e0..e3.

        Scalars (floats or 0-d arrays) give plain floats; if any argument is
        an array with a row axis, all are broadcast together and every field
        is an array of that shape.  The cycle runs as an engine where q_h and
        w_total both exceed ENGINE_TOL * omega_x.
        """
        cols = (e0, e1, e2, e3, aux_entropy, aux_reset_cost)
        stacked = any(getattr(c, "ndim", 0) for c in cols)
        if stacked:
            e0, e1, e2, e3, aux_entropy, aux_reset_cost = np.broadcast_arrays(*(np.asarray(c, float) for c in cols))
        else:
            e0, e1, e2, e3, aux_entropy, aux_reset_cost = map(float, cols)
        w1 = e1 - e0
        w2 = e3 - e2
        w_total = 0.0 - (w1 + w2)  # a zero work is +0, where -(w1 + w2) gives -0
        q_h = e2 - e1
        q_c = e0 - e3
        tol = ENGINE_TOL * omega_x
        runs = (q_h > tol) & (w_total > tol)
        if not stacked:
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


def _gibbs(h: np.ndarray, beta) -> np.ndarray:
    # Gibbs state exp(-beta h) / Z in the eigenbasis of h, unchecked; h and beta broadcast over leading axes.
    vals, vecs = np.linalg.eigh(h)
    # eigh sorts ascending; shifting by the lowest level guards overflow at large beta
    weights = np.exp(np.asarray(-beta)[..., None] * (vals - vals[..., :1]))
    weights /= weights.sum(axis=-1, keepdims=True)
    return (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _expect(h: np.ndarray, rho: np.ndarray):
    # Tr(h rho) = sum_jk (Re h_jk Re rho_jk + Im h_jk Im rho_jk) of Hermitian h and rho (or stacks), from their real
    # views, so both need a contiguous trailing axis; + 0.0 turns a sum of -0.0 into +0.0, as ndarray.trace does.
    return np.add.reduce(h.view(float) * rho.view(float), axis=(-2, -1)) + 0.0


class Strokes(NamedTuple):
    """Driven state rho1 and energies e0, e1 after strokes I-II; the stroke-III methods return the ledger.

    Stroke IV maps rho2 to u^dag rho2 u, so e3 = Tr(uh1u rho2) with the
    stroke-IV energy operator uh1u = u h1 u^dag.  The gap omega_x sets the
    ledger's engine threshold.  Stacked rows lead every field.
    """

    rho1: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    h2: np.ndarray
    uh1u: np.ndarray
    omega_x: float | np.ndarray

    def energies(self, rho2):
        """(e2, e3) of a stroke-III output, or arrays of them for a stack."""
        return _expect(self.h2, rho2), _expect(self.uh1u, rho2)

    def work(self, rho2):
        """Total work w_total of the cycle through rho2 (elementwise on a stack)."""
        e2, e3 = self.energies(rho2)
        return -(self.e1 - self.e0) - (e3 - e2)

    def record(self, rho2, aux_entropy=0.0, aux_reset_cost=0.0) -> CycleRecord:
        """The ledger of the cycle through rho2: one record, with array fields for a stack."""
        return CycleRecord.from_energies(self.e0, self.e1, *self.energies(rho2), self.omega_x, aux_entropy,
                                         aux_reset_cost)

    def measure(self, projectors: np.ndarray) -> CycleRecord:
        """Stroke III as the non-selective measurement with a stack of rank-one outcome projectors (-3 axis)."""
        return self.record(_measure(self.rho1, projectors))

    def dilate(self, v: np.ndarray, povm: PovmSpec, reset_temperature) -> CycleRecord:
        """Stroke III as the dilation of :func:`run_povm_cycle`: the auxiliary of povm, rotated with the system by
        v (one joint unitary per row, or one shared) and measured in povm's basis.

        The outcome projectors sum to I, so the measurement leaves the system marginal of the rotated state
        unchanged; they are rank one and orthonormal, so the measured auxiliary sum_i w_i P_i has the outcome
        probabilities w_i = Tr(P_i rho_a) of its marginal rho_a as its spectrum, and S_post is their entropy.
        """
        system, aux = qmat._marginals(v @ _kron(self.rho1, povm.aux_state) @ v.conj().swapaxes(-1, -2))
        aux_entropy = qmat._entropy_bits(_expect(povm.aux_basis.projectors(), aux[..., None, :, :]))
        gained = aux_entropy - povm._aux_entropy_init
        cost = reset_temperature * LN2 * np.where(gained < 0.0, 0.0, gained)
        return self.record(system, aux_entropy, cost)


def _cold_constants(omega_z, omega_x, beta_c) -> tuple:
    # (h1, h2, rho0, e0), the Hamiltonians (omega_z / 2) sigma_z and (omega_x / 2) sigma_x, the stroke-I Gibbs state
    # and its energy, at field values that broadcast over leading axes, unchecked.
    h1 = np.multiply.outer(0.5 * omega_z, SIGMA_Z)
    rho0 = _gibbs(h1, beta_c)
    return h1, np.multiply.outer(0.5 * omega_x, SIGMA_X), rho0, _expect(h1, rho0)


def _drive_unitaries(p, alpha) -> tuple:
    # (u, u^dag) of the drives at p and alpha, which broadcast over leading axes, unchecked; u maps |0> to
    # sqrt(p)|+> + e^{i alpha} sqrt(1-p)|->.
    rp, rq, phase = np.sqrt(p), np.sqrt(1.0 - p), np.exp(1.0j * alpha)
    prq, prp = phase * rq, phase * rp
    u = np.empty(np.shape(prq) + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1] = rp + prq, rq - prp
    u[..., 1, 0], u[..., 1, 1] = rp - prq, rq + prp
    u /= math.sqrt(2.0)
    return u, u.conj().swapaxes(-1, -2)


def _strokes(omega_z, omega_x, beta_c, p, alpha) -> Strokes:
    # The one stroke-I/II setup at field values whose leading axes broadcast, unchecked.
    (h1, h2, rho0, e0), (u, u_dag) = _cold_constants(omega_z, omega_x, beta_c), _drive_unitaries(p, alpha)
    rho1 = u @ rho0 @ u_dag
    return Strokes(rho1=rho1, e0=e0, e1=_expect(h2, rho1), h2=h2, uh1u=u @ h1 @ u_dag, omega_x=omega_x)


def strokes_i_ii(params: EngineParams, drive: DriveSpec) -> Strokes:
    """Thermalize at h1 and the cold bath (stroke I), then drive (stroke II), with the constants the specs keep.

    The drive keeps the read-only setup of the last EngineParams it ran with, in one slot matched by identity, so
    a cycle on a pair already used runs only stroke III and the ledger.
    """
    slot = vars(drive).get("_strokes_slot")  # (params, strokes); holding params keeps its id from being reused
    if slot is None or slot[0] is not params:
        strokes = _strokes(params.omega_z, params.omega_x, params.beta_c, drive.p, drive.alpha)
        slot = params, Strokes._make(map(_read_only, strokes))
        vars(drive)["_strokes_slot"] = slot
    return slot[1]


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


def run_conventional_cycle(params: EngineParams, drive: DriveSpec) -> CycleRecord:
    """Two-bath cycle: stroke III thermalizes at the hot inverse temperature.

    Stroke IV applies the reversed drive (the adjoint of the stroke-II
    unitary), so one drive parametrizes both work strokes.
    """
    if params.beta_h is None:
        raise ValueError("the conventional cycle requires beta_h")
    return strokes_i_ii(params, drive).record(params._hot_state)


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
    ``params.reset_temperature(reset_temperature)``.  It is charged at the
    second-law minimum T ln 2 max(S_post - S_init, 0), S in bits (Reeb &
    Wolf, New J. Phys. 16, 103011 (2014)): a mixed auxiliary pays only for
    the entropy it gains, and the pure default pays T ln 2 S_post.
    ``aux_entropy`` reports S_post as the Shannon entropy of the outcome
    probabilities, which equals it: the outcome projectors are rank one, so
    the measured auxiliary's spectrum is those probabilities.  S_init is the
    one the spec computed when it was built.  The auxiliary's outcome
    projectors sum to I, so measuring it leaves the system marginal of the
    rotated state, the channel Tr_a[V (rho x rho_a) V^dag] of the
    measurement, unchanged: the joint unitary alone sets the system's
    energy (the heat), and the measurement only the auxiliary's entropy and
    so its reset cost.
    """
    reset_temperature = params.reset_temperature(reset_temperature)
    return strokes_i_ii(params, drive).dilate(povm.joint_unitary, povm, reset_temperature)
