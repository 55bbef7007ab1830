"""Work maximization over measurement bases and dilation unitaries.

Both evaluate cycles through the engine's kernel
(:func:`qotto.engine.strokes_i_ii` and its stroke-III kernels).  The
measurement-basis search scans the theta <= pi/2 rows of a grid of
stacked projectors in passes of at most ``engine.GRID_SLICE`` points at
every grid size, blocks of whole theta-rows or chunks of a longer row,
then polishes the best grid point by simplex refinement.  A projective
basis is an axis, not a direction: (theta, phi) and (pi - theta,
phi + pi) are one projector pair with its outcomes swapped, so on an
even grid the lower rows repeat the upper ones.
The dilation optima need no search: the gross work is
linear in the dilated state, so a passive-state rearrangement of the
eigenvectors of the driven state onto those of h2 - u h1 u^dag maximizes
it (Allahverdyan, Balian & Nieuwenhuizen, EPL 67, 565 (2004)), and the
net work is maximized by that unitary or, only where it nets strictly
more, by the zero-entropy one that only rotates the system, at any drive
phase.  Each optimum is built explicitly and valued by simulating the
cycle with that unitary, so results are reproducible bit for bit.  One
strokes pass builds the candidates of one row or a stack, and one cycle
pass values them, one joint unitary per row: an optimizer call is the
one-row case of a ``qotto fig3`` slice, which picks the same winners.
An optimizer call returns the joint unitary of its winner as valued, so
re-simulating it reproduces the value bit for bit.
"""

from __future__ import annotations

import math
import operator
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
    best_point: object  # MeasurementBasis, or the read-only 4x4 joint unitary a dilation optimum was valued at
    evaluations: int
    converged: bool


def su4_from_point(pt: Su4Point) -> np.ndarray:
    """Exponentiate the generator combination into a 4x4 unitary."""
    # The generator combination is Hermitian by construction, so it is not re-checked.
    return qmat._exp_i((pt.k @ _GENERATOR_STACK.reshape(15, 16)).reshape(4, 4))


def optimize_pvm_basis(
    params: EngineParams,
    drive: DriveSpec,
    cfg: OptimizerConfig | None = None,
    grid_size: int = 64,
) -> OptResult:
    """Maximize simulated projective-cycle work over the measurement basis.

    The chart grid is grid_size values of theta_x on [0, pi] by grid_size
    of phi_x on [0, 2 pi); only its first ceil(grid_size / 2) theta-rows,
    those with theta_x <= pi/2, are scanned, in row-major order, in passes
    of at most ``engine.GRID_SLICE`` points at every grid size: blocks of
    whole rows, or chunks of a row longer than that.  On an even grid row
    grid_size - 1 - i is row i with phi_x shifted by grid_size / 2 columns
    and the outcomes swapped, so the scan still visits every basis of the
    grid, once each; an odd grid's scan ends on its middle row, theta_x =
    pi/2.  The first maximum in row-major order (a pass's first maximum,
    which a later pass must exceed strictly) seeds a simplex refinement at
    raw angles (the projectors are 2 pi-periodic in both); the reported
    value is the full cycle re-simulated at the winning basis, mapped onto
    the chart.  ``evaluations`` counts ceil(grid_size / 2) * grid_size grid
    points, the polish evaluations and that final cycle.  ``cfg`` has no
    effect and is kept for existing callers.
    """
    try:
        grid_size = operator.index(grid_size)
    except TypeError:
        raise ValueError(f"grid_size must be an integer, got {grid_size!r}") from None
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")

    strokes = engine.strokes_i_ii(params, drive)
    evaluations = 0

    def work(theta: float, phi: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(strokes.work(engine._measure(strokes.rho1, engine.basis_projectors(theta, phi))))

    thetas = np.linspace(0.0, math.pi, grid_size)[: (grid_size + 1) // 2]  # the rows with theta <= pi/2
    phis = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    # passes of at most GRID_SLICE points in row-major order: blocks of whole rows, or chunks of a longer row
    rows, cols = max(1, engine.GRID_SLICE // grid_size), min(grid_size, engine.GRID_SLICE)
    best_f, best_x = -math.inf, (0.0, 0.0)
    for k in range(0, thetas.size, rows):
        for m in range(0, grid_size, cols):
            block = strokes.work(engine._measure(
                strokes.rho1, engine.basis_projectors(thetas[k:k + rows, None], phis[m:m + cols])))
            i, j = divmod(int(np.argmax(block)), block.shape[1])
            if block[i, j] > best_f:  # a pass's first maximum, which a later pass must exceed strictly
                best_f, best_x = float(block[i, j]), (thetas[k + i], phis[m + j])
    evaluations += thetas.size * grid_size

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
    # zero-entropy one rotates only the system, r1 -> h+ and r2 -> h-.  A phase on
    # any eigenvector is a phase on one subspace of the unitary, which cancels in
    # the dilated state, so the eigenvectors keep whatever phases eigh gives them.
    r = np.linalg.eigh(strokes.rho1)[1][..., ::-1]
    h = np.linalg.eigh(strokes.h2 - strokes.uh1u)[1][..., ::-1]
    rh = engine._kron(r, qmat.HADAMARD)
    gross = engine._kron(h, qmat.HADAMARD)[..., [0, 2, 1, 3]] @ rh.conj().swapaxes(-1, -2)
    if not net:
        return gross
    return np.stack([gross, engine._kron(h @ r.conj().swapaxes(-1, -2), qmat.ID2)])


# The auxiliary of every dilation optimum, |+><+| measured at its poles, checked once here.
_AUX = PovmSpec(joint_unitary=qmat.ID4)


def _dilation_candidates(strokes: engine.Strokes, t_c: float, net: bool) -> tuple[engine.CycleRecord, np.ndarray]:
    # The optimal dilations of every row of strokes in one cycle pass: the record of the gross-optimal ones, or
    # for net work one of shape (2,) + rows (gross-optimal, then zero-entropy), and the joint unitaries it
    # values, in that order.
    vs = _optimal_dilations(strokes, net)
    if not np.max(np.abs(vs.conj().swapaxes(-1, -2) @ vs - qmat.ID4)) <= qmat.UNITARY_TOL:  # NaN fails too
        raise ValueError(f"joint_unitary is not a finite unitary within {qmat.UNITARY_TOL}")
    return strokes.dilate(vs, _AUX, t_c), vs


def _net_winner(record: engine.CycleRecord) -> np.ndarray:
    # The candidate of each row of a net-work _dilation_candidates record that nets more: the zero-entropy
    # one (1) only where its net work is strictly larger, so a tie keeps the gross-optimal one (0).
    return (record.net_work[1] > record.net_work[0]).astype(int)


def _optimize_dilation(params: EngineParams, drive: DriveSpec, t_c: float, net: bool) -> OptResult:
    record, vs = _dilation_candidates(engine.strokes_i_ii(params, drive), t_c, net)
    values = record.net_work.tolist() if net else [record.w_total]
    j = int(_net_winner(record)) if net else 0
    point = engine._read_only(vs.reshape(-1, 4, 4)[j])
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
    cycle at that unitary (one evaluation), which is the returned point.
    ``cfg`` has no effect and is kept for existing callers.
    """
    return _optimize_dilation(params, drive, t_c=params.reset_temperature(), net=False)


def optimize_povm_net_work(
    params: EngineParams,
    drive: DriveSpec,
    t_c: float | None = None,
    cfg: OptimizerConfig | None = None,
) -> OptResult:
    """Maximize work net of the auxiliary reset cost at ``params.reset_temperature(t_c)``.

    The binary entropy is the minimum of its tangent lines, so the net work
    is the maximum, over those tangents, of objectives linear in the dilated
    state.  Maximizing each by a rearrangement leaves two candidates: the
    gross-optimal dilation and the zero-entropy one that only rotates the
    system.  Both are simulated (two evaluations) and the larger net work
    wins, the gross-optimal one on a tie, and its unitary is the returned
    point; the value equals :func:`qotto.analytic.povm_net_work_optimum`.
    ``cfg`` has no effect and is kept for existing callers.
    """
    return _optimize_dilation(params, drive, t_c=params.reset_temperature(t_c), net=True)
