"""Work maximization over measurement bases and dilation unitaries.

Both evaluate cycles through the engine's kernel
(:func:`qotto.engine.strokes_i_ii` and the stroke-III functions).  The
measurement-basis search scans a grid one theta-row of stacked
projectors at a time, then polishes the best grid point by simplex
refinement.  The dilation optima need no search: the gross work is
linear in the dilated state, so a passive-state rearrangement of the
eigenvectors of the driven state onto those of h2 - u h1 u^dag maximizes
it (Allahverdyan, Balian & Nieuwenhuizen, EPL 67, 565 (2004)), and the
net work is maximized by that unitary or by the zero-entropy one that
only rotates the system, at any drive phase.  Each optimum is built
explicitly and valued by simulating the cycle with that unitary, so
results are reproducible bit for bit.  One strokes pass builds the
candidates of one row or a stack, and one cycle pass values them, one
joint unitary per row: an optimizer call is the one-row case of a
``qotto fig3`` slice.  Only the winner of an optimizer call is turned
into generator coefficients, through its Hermitian logarithm; that
point's unitary is the valued one up to a global phase and rounding, so
re-simulating it reproduces the value to about 1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import engine, qmat
from .engine import TWO_PI, DriveSpec, EngineParams, MeasurementBasis, PovmSpec

_PAULIS = {"x": qmat.SIGMA_X, "y": qmat.SIGMA_Y, "z": qmat.SIGMA_Z, "I": qmat.ID2}

# Frozen generator ordering: the nine two-site Pauli products in
# lexicographic (i, j) order, then sigma_i (x) I, then I (x) sigma_i.
# Coefficient vectors are only portable under this ordering.
SU4_GENERATOR_LABELS = tuple(
    [i + j for i in "xyz" for j in "xyz"]
    + [i + "I" for i in "xyz"]
    + ["I" + i for i in "xyz"]
)

_GENERATOR_STACK = np.stack([np.kron(_PAULIS[i], _PAULIS[j]) for i, j in SU4_GENERATOR_LABELS])


@dataclass(frozen=True, eq=False)
class Su4Point:
    """Coefficients of the 15 generators; the unitary is exp(i sum k_j g_j).

    Points compare by identity.
    """

    k: np.ndarray

    def __post_init__(self):
        arr = np.array(self.k, dtype=float)
        if arr.shape != (15,):
            raise ValueError(f"expected 15 coefficients, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "k", arr)


# Stopping rule of the measurement-basis simplex polish: function tolerance
# and evaluation budget.
POLISH_TOLERANCE = 1e-10
POLISH_MAX_EVALS = 4000


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer settings kept for existing callers; none affects a result.

    No search draws random numbers, and the basis polish stops by the fixed
    POLISH_TOLERANCE and POLISH_MAX_EVALS.  ``seed`` stays only because
    existing callers, the benchmark in ``perfbench/`` among them, construct
    ``OptimizerConfig(seed=...)``.
    """

    seed: int = 42


@dataclass(frozen=True)
class OptResult:
    best_value: float
    best_point: object  # MeasurementBasis or Su4Point
    evaluations: int
    converged: bool


def su4_from_point(pt: Su4Point) -> np.ndarray:
    """Exponentiate the generator combination into a 4x4 unitary."""
    # The generator combination is Hermitian by construction, so it is not re-checked.
    return qmat._exp_i(np.tensordot(pt.k, _GENERATOR_STACK, axes=1))


def optimize_pvm_basis(
    params: EngineParams,
    drive: DriveSpec,
    cfg: OptimizerConfig | None = None,
    grid_size: int = 64,
) -> OptResult:
    """Maximize simulated projective-cycle work over the measurement basis.

    A grid_size x grid_size scan of (theta_x, phi_x), one theta-row at a
    time, seeds a simplex refinement; the reported value is the full cycle
    re-simulated at the winning basis.  ``cfg`` has no effect and is kept
    for existing callers.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")

    strokes = engine.strokes_i_ii(params, drive)
    evaluations = 0

    def work(theta: float, phi: float) -> float:
        nonlocal evaluations
        evaluations += 1
        projectors = MeasurementBasis.wrapped(theta, phi).projectors()
        return float(strokes.work(engine._measure(strokes.rho1, projectors)))

    thetas = np.linspace(0.0, math.pi, grid_size)
    phis = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    best_f, best_x = -math.inf, (0.0, 0.0)
    for th in thetas:  # grid points lie on the chart, so they need no wrapping
        row = strokes.work(engine._measure(strokes.rho1, engine.basis_projectors(th, phis)))
        j = int(np.argmax(row))
        if row[j] > best_f:
            best_f, best_x = float(row[j]), (th, phis[j])
    evaluations += grid_size * grid_size

    res = minimize(
        lambda x: -work(x[0], x[1]),
        x0=np.array(best_x),
        method="Nelder-Mead",
        options={
            "maxfev": POLISH_MAX_EVALS,
            "fatol": POLISH_TOLERANCE,
            "xatol": 1e-8,
        },
    )
    if -res.fun > best_f:
        best_f, best_x = -res.fun, tuple(res.x)

    basis = MeasurementBasis.wrapped(*best_x)
    best_value = engine.run_pvm_cycle(params, drive, basis).w_total
    return OptResult(
        best_value=best_value,
        best_point=basis,
        evaluations=evaluations + 1,
        converged=bool(res.success),
    )


def _optimal_dilations(strokes: engine.Strokes, net: bool = True) -> np.ndarray:
    # The gross-optimal joint unitary for an auxiliary starting in |+>, one
    # per row, or for net work (2,) + rows + (4, 4): it and the zero-entropy one.
    # r1, r2 are the eigenvectors of rho1, larger weight first; h+, h- the
    # top and bottom ones of h_eff = h2 - u h1 u^dag.  The gross one maps
    # r1|+> -> h+|+>, r2|+> -> h+|->, r1|-> -> h-|+> and r2|-> -> h-|->; the
    # zero-entropy one rotates only the system, r1 -> h+ and r2 -> h-.
    r = qmat._hermitian_eig(strokes.rho1)[1][..., ::-1]
    h = qmat._hermitian_eig(strokes.h2 - strokes.uh1u)[1][..., ::-1]
    rh = engine._kron(r, qmat.HADAMARD)
    gross = engine._kron(h, qmat.HADAMARD)[..., [0, 2, 1, 3]] @ rh.conj().swapaxes(-1, -2)
    if not net:
        return gross
    return np.stack([gross, engine._kron(h @ r.conj().swapaxes(-1, -2), qmat.ID2)])


def _su4_point(v: np.ndarray) -> Su4Point:
    # The generators are traceless with Tr(g_i g_j) = 4 delta_ij, so projecting
    # the Hermitian logarithm of v onto them drops its trace, a global phase:
    # su4_from_point gives back v normalized to det 1.
    h = qmat._unitary_log(v)
    return Su4Point(np.einsum("jab,ba->j", _GENERATOR_STACK, h).real / 4.0)


# The auxiliary of every dilation optimum, |+><+| measured at its poles, checked once here.
_AUX = PovmSpec(joint_unitary=qmat.ID4)
_AUX_PROJECTORS = _AUX.aux_basis.projectors()


def _dilation_candidates(params, drives, t_c: float, net: bool) -> tuple[engine.CycleRecord, np.ndarray]:
    # The optimal dilations of every row of (params, drives) in one strokes pass and one cycle pass: the
    # record of the gross-optimal ones, or for net work one of shape (2,) + rows (gross-optimal, then
    # zero-entropy), and the joint unitaries it values, in that order.
    strokes = engine.strokes_i_ii(params, drives)
    vs = _optimal_dilations(strokes, net)
    if not np.max(np.abs(vs.conj().swapaxes(-1, -2) @ vs - qmat.ID4)) <= qmat.UNITARY_TOL:  # NaN fails too
        raise ValueError(f"joint_unitary is not a finite unitary within {qmat.UNITARY_TOL}")
    return strokes.dilate(vs, _AUX.aux_state, _AUX_PROJECTORS, t_c), vs


def _optimize_dilation(params: EngineParams, drive: DriveSpec, t_c: float, net: bool) -> OptResult:
    record, vs = _dilation_candidates(params, drive, t_c, net)
    values = record.net_work.tolist() if net else [record.w_total]
    j = 1 if net and values[1] > values[0] else 0  # a tie keeps the gross-optimal one
    point = _su4_point(vs.reshape(-1, 4, 4)[j])  # only the winner is turned into coefficients
    return OptResult(best_value=values[j], best_point=point, evaluations=len(values), converged=True)


def optimize_povm_work(
    params: EngineParams, drive: DriveSpec, cfg: OptimizerConfig | None = None
) -> OptResult:
    """Maximize gross generalized-measurement work over the joint unitary.

    The auxiliary starts pure in |+> and is measured in its pole basis;
    the unitary alone already spans every two-outcome generalized
    measurement.  The work is linear in the dilated state, so the unitary
    that rearranges the eigenvectors of the driven state onto the top
    eigenvector of h2 - u h1 u^dag attains the maximum,
    :func:`qotto.analytic.povm_work_ceiling`; the value is the simulated
    cycle at that unitary (one evaluation), which the returned point
    reproduces up to a global phase and rounding.  ``cfg`` has no effect
    and is kept for existing callers.
    """
    return _optimize_dilation(params, drive, t_c=1.0 / params.beta_c, net=False)


def optimize_povm_net_work(
    params: EngineParams,
    drive: DriveSpec,
    t_c: float | None = None,
    cfg: OptimizerConfig | None = None,
) -> OptResult:
    """Maximize work net of the auxiliary reset cost at temperature t_c (finite, >= 0).

    The binary entropy is the minimum of its tangent lines, so the net work
    is the maximum, over those tangents, of objectives linear in the dilated
    state.  Maximizing each by a rearrangement leaves two candidates: the
    gross-optimal dilation and the zero-entropy one that only rotates the
    system.  Both are simulated (two evaluations) and the larger net work
    wins, the gross-optimal one on a tie; the value equals
    :func:`qotto.analytic.povm_net_work_optimum`.  ``cfg`` has no effect and
    is kept for existing callers.
    """
    t_c = engine._check_finite_nonnegative("t_c", 1.0 / params.beta_c if t_c is None else t_c)
    return _optimize_dilation(params, drive, t_c=t_c, net=True)
