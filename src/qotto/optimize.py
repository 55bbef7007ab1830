"""Numerical work maximization over measurement bases and dilation unitaries.

Both searches evaluate cycles through the engine's kernel
(:func:`qotto.engine.strokes_i_ii` and the stroke-III functions).  The
measurement-basis search scans a grid one theta-row of stacked
projectors at a time, then polishes the best grid point by simplex
refinement.  The dilation-unitary search runs seeded annealing restarts
in the 15-dimensional generator-coefficient space, each polished by a
derivative-free simplex descent; restarts are independent, own private
RNG streams derived from (seed, restart index), and are merged in
restart order, so results are reproducible bit for bit and unaffected by
any concurrent scheduling of the restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import engine, qmat
from .engine import LN2, TWO_PI, DriveSpec, EngineParams, MeasurementBasis, PovmSpec

_PAULIS = {"x": qmat.SIGMA_X, "y": qmat.SIGMA_Y, "z": qmat.SIGMA_Z}

# Frozen generator ordering: the nine two-site Pauli products in
# lexicographic (i, j) order, then sigma_i (x) I, then I (x) sigma_i.
# Coefficient vectors are only portable under this ordering.
SU4_GENERATOR_LABELS = tuple(
    [i + j for i in "xyz" for j in "xyz"]
    + [i + "I" for i in "xyz"]
    + ["I" + i for i in "xyz"]
)

_GENERATOR_STACK = np.stack(
    [np.kron(_PAULIS[i], _PAULIS[j]) for i in "xyz" for j in "xyz"]
    + [np.kron(_PAULIS[i], qmat.ID2) for i in "xyz"]
    + [np.kron(qmat.ID2, _PAULIS[i]) for i in "xyz"]
)


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


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget and determinism knobs; identical configs give identical results."""

    seed: int = 42
    global_iterations: int = 2000
    restarts: int = 8
    initial_step: float = 0.5
    cooling_rate: float = 0.999
    local_tolerance: float = 1e-10
    local_max_evals: int = 4000

    def __post_init__(self):
        if self.global_iterations < 1 or self.restarts < 1 or self.local_max_evals < 1:
            raise ValueError("iteration budgets must be positive")
        if not (0.0 < self.cooling_rate < 1.0):
            raise ValueError(f"cooling_rate must lie in (0, 1), got {self.cooling_rate}")
        if self.initial_step <= 0.0 or self.local_tolerance <= 0.0:
            raise ValueError("initial_step and local_tolerance must be positive")


@dataclass(frozen=True)
class OptResult:
    best_value: float
    best_point: object  # MeasurementBasis or Su4Point
    evaluations: int
    converged: bool


def su4_from_point(pt: Su4Point) -> np.ndarray:
    """Exponentiate the generator combination into a 4x4 unitary."""
    return _su4(pt.k)


def _su4(k: np.ndarray) -> np.ndarray:
    # The generator combination is Hermitian by construction, so it is not re-checked.
    return qmat._exp_i(np.tensordot(k, _GENERATOR_STACK, axes=1))


def optimize_pvm_basis(
    params: EngineParams,
    drive: DriveSpec,
    cfg: OptimizerConfig | None = None,
    grid_size: int = 64,
) -> OptResult:
    """Maximize simulated projective-cycle work over the measurement basis.

    A grid_size x grid_size scan of (theta_x, phi_x), one theta-row at a
    time, seeds a simplex refinement; the reported value is the full cycle
    re-simulated at the winning basis.
    """
    cfg = cfg or OptimizerConfig()
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
            "maxfev": cfg.local_max_evals,
            "fatol": cfg.local_tolerance,
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


_AUX_BASIS = MeasurementBasis(0.0, 0.0)


def _anneal(objective, rng: np.random.Generator, cfg: OptimizerConfig):
    # Gaussian proposals of geometrically decaying scale with Metropolis
    # acceptance at a temperature tied to the current scale.
    x = rng.uniform(-math.pi, math.pi, size=15)
    fx = objective(x)
    best_x, best_f = x.copy(), fx
    scale = cfg.initial_step
    for _ in range(cfg.global_iterations):
        cand = x + rng.normal(0.0, scale, size=15)
        fc = objective(cand)
        if fc > best_f:
            best_x, best_f = cand.copy(), fc
        if fc >= fx or rng.random() < math.exp((fc - fx) / (0.2 * scale)):
            x, fx = cand, fc
        scale *= cfg.cooling_rate
    return best_x, best_f, cfg.global_iterations + 1


def _optimize_dilation(
    params: EngineParams,
    drive: DriveSpec,
    t_c: float,
    net: bool,
    cfg: OptimizerConfig,
) -> OptResult:
    if drive.alpha != 0.0:
        raise ValueError("dilation optimization fixes the drive phase alpha = 0")

    aux_state = qmat.projector(qmat.KET_PLUS)
    strokes = engine.strokes_i_ii(params, drive)
    rho_sa = np.kron(strokes.rho1, aux_state)
    # The auxiliary measurement never moves the system marginal, so the
    # gross work skips it.
    joint_projectors = np.kron(qmat.ID2, _AUX_BASIS.projectors()) if net else None

    def objective(k: np.ndarray) -> float:
        rho2, aux_post = engine._dilation(rho_sa, _su4(k), joint_projectors)
        w = strokes.work(rho2)
        if net:
            w -= t_c * LN2 * qmat._entropy_bits(aux_post)
        return float(w)

    best_k, best_f, best_ok = None, -math.inf, False
    evaluations = 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        x0, f0, n_evals = _anneal(objective, rng, cfg)
        evaluations += n_evals
        res = minimize(
            lambda k: -objective(k),
            x0=x0,
            method="Nelder-Mead",
            options={
                "maxfev": cfg.local_max_evals,
                "fatol": cfg.local_tolerance,
                "xatol": 1e-8,
            },
        )
        evaluations += res.nfev
        cand_k, cand_f = (res.x, -res.fun) if -res.fun > f0 else (x0, f0)
        if cand_f > best_f:
            best_k, best_f, best_ok = np.array(cand_k), cand_f, bool(res.success)

    point = Su4Point(best_k)
    povm = PovmSpec(joint_unitary=su4_from_point(point), aux_state=aux_state, aux_basis=_AUX_BASIS)
    record = engine.run_povm_cycle(params, drive, povm, reset_temperature=t_c)
    best_value = record.net_work if net else record.w_total
    return OptResult(
        best_value=best_value,
        best_point=point,
        evaluations=evaluations + 1,
        converged=best_ok,
    )


def optimize_povm_work(
    params: EngineParams, drive: DriveSpec, cfg: OptimizerConfig | None = None
) -> OptResult:
    """Maximize gross generalized-measurement work over the joint unitary.

    The auxiliary starts pure in |+> and is measured in its pole basis;
    the unitary alone already spans every two-outcome generalized
    measurement, so nothing else is searched.
    """
    return _optimize_dilation(
        params, drive, t_c=1.0 / params.beta_c, net=False, cfg=cfg or OptimizerConfig()
    )


def optimize_povm_net_work(
    params: EngineParams,
    drive: DriveSpec,
    t_c: float | None = None,
    cfg: OptimizerConfig | None = None,
) -> OptResult:
    """Maximize work net of the auxiliary reset cost at temperature t_c (finite, >= 0)."""
    if t_c is None:
        t_c = 1.0 / params.beta_c
    engine._check_finite_nonnegative("t_c", t_c)
    return _optimize_dilation(params, drive, t_c=t_c, net=True, cfg=cfg or OptimizerConfig())
