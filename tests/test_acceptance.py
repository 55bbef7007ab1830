"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-rA`` or ``-s`` to see
the verdict lines for passing criteria).
"""

import math
import time

import numpy as np
import pytest

from qotto import analytic, engine, qmat
from qotto.engine import DriveSpec, EngineParams, MeasurementBasis, PovmSpec
from qotto.optimize import optimize_povm_net_work, optimize_povm_work, optimize_pvm_basis
from helpers import drive_reference, h1_reference, h2_reference, haar_unitary, rearrangement_energy_bound

P32 = EngineParams(omega_z=2.0, omega_x=3.0, beta_c=1.0)
P52 = EngineParams(omega_z=2.0, omega_x=5.0, beta_c=1.0)
PARAM_SETS = (P32, P52)


def test_criterion_01_first_law():
    """>= 500 randomized cycles across all engines balance heat and work to 1e-10."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    count = 0
    for i in range(510):
        wz = rng.uniform(0.5, 3.0)
        wx = wz * rng.uniform(1.05, 3.0)
        bc = rng.uniform(0.1, 4.0)
        drive = DriveSpec(p=rng.uniform(0.5, 1.0), alpha=rng.uniform(0.0, 2.0 * math.pi))
        kind = i % 3
        if kind == 0:
            params = EngineParams(wz, wx, bc, beta_h=rng.uniform(0.0, 0.9 * bc))
            rec = engine.run_conventional_cycle(params, drive)
        elif kind == 1:
            params = EngineParams(wz, wx, bc)
            basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            rec = engine.run_pvm_cycle(params, drive, basis)
        else:
            params = EngineParams(wz, wx, bc)
            povm = PovmSpec(
                joint_unitary=haar_unitary(rng),
                aux_basis=MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
            )
            rec = engine.run_povm_cycle(params, drive, povm)
        worst = max(worst, rec.first_law_residual)
        count += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"criterion 1 PASS: first law over {count} random cycles, "
          f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_adiabatic_efficiency_universality():
    """At p = 1 every engine runs at 1 - omega_z/omega_x whenever it absorbs heat."""
    v0 = analytic.optimal_dilation_unitary()
    drive = DriveSpec(p=1.0)
    checked = 0
    for gamma in np.linspace(1.1, 4.0, 10):
        for beta_c in np.linspace(0.2, 5.0, 10):
            wz, wx = 2.0, 2.0 * float(gamma)
            eta0 = 1.0 - wz / wx
            recs = (
                engine.run_conventional_cycle(
                    EngineParams(wz, wx, float(beta_c), beta_h=0.0), drive
                ),
                engine.run_pvm_cycle(
                    EngineParams(wz, wx, float(beta_c)), drive, MeasurementBasis(math.pi / 2.0)
                ),
                engine.run_povm_cycle(
                    EngineParams(wz, wx, float(beta_c)), drive, PovmSpec(joint_unitary=v0)
                ),
            )
            for rec in recs:
                if rec.q_h > 0.0:
                    assert rec.eta == pytest.approx(eta0, abs=1e-10)
                    checked += 1
    assert checked == 300
    print(f"criterion 2 PASS: adiabatic efficiency universal on 10x10 grid "
          f"({checked} engine runs)")


def test_criterion_03_pvm_adiabatic_optimum():
    """Grid+local basis search reaches (tz/2)(wx - wz) at theta = pi/2."""
    for params in PARAM_SETS:
        target = 0.5 * params.tau_z * (params.omega_x - params.omega_z)
        res = optimize_pvm_basis(params, DriveSpec(p=1.0))
        assert res.best_value == pytest.approx(target, abs=1e-8)
        assert abs(res.best_point.theta_x - math.pi / 2.0) <= 1e-4
    print("criterion 3 PASS: adiabatic projective optimum reached at theta = pi/2 "
          "for both gap pairs")


def test_criterion_04_pvm_nonadiabatic_optimum():
    """Closed-form optimum matches a dense 256x256 grid search; curvature is concave."""
    for p in (0.5, 0.6, 0.75, 0.875, 0.95, 1.0):
        opt = analytic.pvm_optimal(P32, p)
        res = optimize_pvm_basis(P32, DriveSpec(p=p), grid_size=256)
        assert res.best_value == pytest.approx(opt.work, abs=1e-6)

        drive = DriveSpec(p=p)

        def work(th, ph):
            return analytic.pvm_nonadiabatic_record(P32, drive, MeasurementBasis.wrapped(th, ph)).w_total

        h = 1e-5
        th0, ph0 = opt.basis.theta_x, opt.basis.phi_x
        f0 = work(th0, ph0)
        d2_th = (work(th0 + h, ph0) - 2.0 * f0 + work(th0 - h, ph0)) / h**2
        d2_ph = (work(th0, ph0 + h) - 2.0 * f0 + work(th0, ph0 - h)) / h**2
        d2_mix = (
            work(th0 + h, ph0 + h) - work(th0 + h, ph0 - h)
            - work(th0 - h, ph0 + h) + work(th0 - h, ph0 - h)
        ) / (4.0 * h**2)
        hess = np.array([[d2_th, d2_mix], [d2_mix, d2_ph]])
        assert np.linalg.eigvalsh(hess).max() <= 1e-4
    print("criterion 4 PASS: non-adiabatic projective optimum matches 256x256 grid "
          "search, Hessian concave at the optimum")


def test_criterion_05_regime_split():
    """Best drive probability: interior 0.875 for ratio 1.5, adiabatic for 2.5."""
    grid = np.linspace(0.5, 1.0, 1001)
    works_32 = np.array([analytic.pvm_optimal(P32, float(p)).work for p in grid])
    p_star_32 = grid[int(np.argmax(works_32))]
    assert abs(p_star_32 - 0.875) <= 0.005
    assert analytic.pvm_optimal(P32, float(p_star_32)).eta == pytest.approx(0.5, abs=1e-8)

    works_52 = np.array([analytic.pvm_optimal(P52, float(p)).work for p in grid])
    p_star_52 = grid[int(np.argmax(works_52))]
    assert p_star_52 == 1.0
    assert analytic.pvm_optimal(P52, 1.0).eta == pytest.approx(0.6, abs=1e-8)
    print(f"criterion 5 PASS: best drive probability {p_star_32:.3f} (ratio 1.5) "
          f"and {p_star_52:.3f} (ratio 2.5) with efficiencies 1/2 and 0.6")


def test_criterion_06_engine_everywhere():
    """The optimized projective cycle delivers work at every drive; two-bath does not."""
    grid = np.linspace(0.5, 1.0, 1001)
    for params in PARAM_SETS:
        works = np.array([analytic.pvm_optimal(params, float(p)).work for p in grid])
        assert np.all(works > 0.0)
    conv = EngineParams(2.0, 3.0, 1.0, beta_h=0.2)
    conv_works = np.array(
        [analytic.conventional_record(conv, float(p)).w_total for p in grid]
    )
    stalled = int(np.sum(conv_works <= 0.0))
    assert stalled > 0
    print(f"criterion 6 PASS: projective optimum positive at all 1001 drives for both "
          f"gap pairs; two-bath engine stalls at {stalled} grid points")


def test_criterion_07_povm_adiabatic_optimum():
    """Swap-type dilation attains the closed form; the closed-form optimizer recovers it."""
    for params in PARAM_SETS:
        start = time.monotonic()
        target = 0.5 * (params.omega_x - params.omega_z) * (1.0 + params.tau_z)  # (1/2)(wx - wz)(1 + tz)
        v0 = analytic.optimal_dilation_unitary()
        rec = engine.run_povm_cycle(params, DriveSpec(p=1.0), PovmSpec(joint_unitary=v0))
        assert rec.w_total == pytest.approx(target, abs=1e-10)
        res = optimize_povm_work(params, DriveSpec(p=1.0))
        assert res.best_value == pytest.approx(target, abs=1e-10)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
    print("criterion 7 PASS: dilation optimum attained exactly by the swap unitary "
          "and to 1e-10 by the optimizer")


def test_criterion_08_povm_pvm_gap():
    """The generalized-over-projective work gap is (wx - wz)/2 at every cold temperature."""
    v0 = analytic.optimal_dilation_unitary()
    drive = DriveSpec(p=1.0)
    for beta_c in (0.2, 0.5, 1.0, 2.0, 5.0):
        params = EngineParams(2.0, 3.0, beta_c)
        w_povm = engine.run_povm_cycle(params, drive, PovmSpec(joint_unitary=v0)).w_total
        w_pvm = engine.run_pvm_cycle(params, drive, MeasurementBasis(math.pi / 2.0)).w_total
        assert w_povm - w_pvm == pytest.approx(0.5, abs=1e-10)
    print("criterion 8 PASS: measured work gap constant at (wx - wz)/2 over five "
          "cold temperatures")


def test_criterion_09_landauer_accounting():
    """Simulated reset cost equals the closed form and never exceeds t_c ln 2."""
    v0 = analytic.optimal_dilation_unitary()
    drive = DriveSpec(p=1.0)
    for t_c in (0.4, 1.0, 2.5):
        params = EngineParams(2.0, 3.0, 1.0 / t_c)
        rec = engine.run_povm_cycle(params, drive, PovmSpec(joint_unitary=v0))
        assert rec.aux_reset_cost == pytest.approx(
            analytic.aux_cost_record(params, t_c).min_cost, abs=1e-10
        )
    rng = np.random.default_rng(109)
    cap = math.log(2.0)
    for _ in range(50):
        basis = MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        rec = engine.run_povm_cycle(
            P32, drive, PovmSpec(joint_unitary=v0, aux_basis=basis)
        )
        assert rec.aux_reset_cost <= cap + 1e-12
    print("criterion 9 PASS: reset cost T ln2 max(S_post - S_init, 0), with S_init = 0 for the "
          "pure auxiliary, matches the closed form and respects the 1-bit ceiling over random "
          "auxiliary bases")


def test_criterion_10_cost_advantage_crossing():
    """Bisection finds where the reset cost overtakes the fixed work advantage."""
    t_ad = analytic.reset_crossing_temperature(P52)
    rec = analytic.aux_cost_record(P52, t_ad)
    assert abs(rec.min_cost - rec.delta_w) <= 1e-8
    for t in np.linspace(0.05, t_ad - 1e-9, 50):
        below = analytic.aux_cost_record(P52, float(t))
        assert below.delta_w > below.min_cost
    print(f"criterion 10 PASS: crossing temperature {t_ad:.8f}; advantage exceeds "
          "cost everywhere below it")


def test_criterion_11_mixed_auxiliary_ceiling():
    """Mixed auxiliaries in the non-inverted regime cap the stroke energy at (wx/2) tz."""
    rng = np.random.default_rng(111)
    h_joint = np.kron(h2_reference(P32), qmat.ID2)
    rho0 = engine._gibbs(h1_reference(P32), 1.0)
    u = drive_reference(DriveSpec(p=1.0))
    rho1 = u @ rho0 @ u.conj().T
    target = 0.5 * 3.0 * math.tanh(1.0)
    q_cap = math.exp(2.0) / (1.0 + math.exp(2.0))
    for _ in range(20):
        q = rng.uniform(0.5, q_cap - 1e-3)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        perp = np.array([-ket[1].conj(), ket[0].conj()])
        aux = q * np.outer(ket, ket.conj()) + (1.0 - q) * np.outer(perp, perp.conj())
        bound = rearrangement_energy_bound(h_joint, np.kron(rho1, aux))
        assert bound == pytest.approx(target, abs=1e-10)
    print("criterion 11 PASS: mixed-auxiliary stroke-energy ceiling equals "
          "(wx/2) tanh(v_z) for 20 random mixtures")


def test_criterion_12_optimized_orderings():
    """On an 11-point drive grid the optimized net work dominates the projective optimum.

    The ledger counts the energy the joint unitary injects as the measurement heat q_h (the quantum-heat
    convention), so the zero-entropy candidate U (x) I, which rotates the system alone, counts as fuel: where it
    wins, the net work is twice the projective optimum.
    """
    start = time.monotonic()
    t_c = 1.0
    cap = t_c * math.log(2.0)
    rotations = 0
    for p in np.linspace(0.5, 1.0, 11):
        drive = DriveSpec(p=float(p))
        gross = optimize_povm_work(P52, drive)
        net = optimize_povm_net_work(P52, drive, t_c=t_c)
        w_pvm = analytic.pvm_optimal(P52, float(p)).work
        assert net.best_value > w_pvm
        assert gross.best_value + 1e-9 >= net.best_value
        assert net.best_value >= gross.best_value - cap - 1e-9
        rotations += abs(net.best_value - 2.0 * w_pvm) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    print(f"criterion 12 PASS: gross >= net >= gross - t_c ln 2 and net > projective "
          f"optimum at all 11 drives, {elapsed:.0f}s; the joint unitary's energy counts as the "
          f"heat q_h, so the system-only rotation U (x) I counts as fuel, and it wins {rotations} "
          f"of 11 drives at twice the projective optimum")
