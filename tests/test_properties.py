"""Property tests: the simulated ledgers equal their closed forms everywhere,
to 1e-10 and, at every scale of the gaps, to 16 eps omega_x, and both routes
report an efficiency at the same points, never one made of rounding; every row
of a stacked grid equals the single cycle on its specs, as every row of stacked
dilation optima equals the single optimizer call.

Hypothesis runs derandomized and without an example database, so every
run draws the same inputs.  The explicit examples pin the edges the
simulator must handle: p = 1/2 and p = 1, a gap ratio of exactly 2,
measurement axes at the poles and a near-zero cold temperature.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qotto import analytic, optimize
from qotto.cli import main
from qotto.engine import (
    CycleRecord,
    DriveSpec,
    EngineParams,
    MeasurementBasis,
    PovmSpec,
    ENGINE_TOL,
    _gibbs,
    _strokes,
    basis_projectors,
    run_conventional_cycle,
    run_povm_cycle,
    run_pvm_cycle,
    strokes_i_ii,
)
from qotto.optimize import Su4Point, su4_from_point

TOL = 1e-10
FIELDS = ("e0", "e1", "e2", "e3", "w1", "w2", "w_total", "q_c", "q_h", "aux_entropy", "aux_reset_cost")

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

angle = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
cycle_inputs = dict(
    omega_z=st.floats(0.2, 4.0),
    gamma=st.floats(1.05, 4.0),
    beta_c=st.floats(math.log(0.05), math.log(1e3)).map(math.exp),
    hot_fraction=st.floats(0.0, 0.95),
    p=st.floats(0.5, 1.0),
    alpha=angle,
    theta=st.floats(0.0, math.pi),
    phi=angle,
)

# p in {1/2, 1}, gamma = 2, theta at both poles, beta_c = 1e3
EDGES = [
    dict(omega_z=2.0, gamma=2.0, beta_c=1.0, hot_fraction=0.2, p=0.5, alpha=0.0, theta=0.0, phi=0.0),
    dict(omega_z=2.0, gamma=2.0, beta_c=1.0, hot_fraction=0.2, p=1.0, alpha=0.0, theta=math.pi, phi=0.0),
    dict(omega_z=1.0, gamma=2.0, beta_c=1e3, hot_fraction=0.5, p=0.5, alpha=1.0, theta=math.pi, phi=2.0),
    dict(omega_z=1.0, gamma=3.0, beta_c=1e3, hot_fraction=0.0, p=1.0, alpha=3.0, theta=0.0, phi=4.0),
    dict(omega_z=2.0, gamma=2.0, beta_c=1e3, hot_fraction=0.9, p=0.75, alpha=0.5, theta=0.5 * math.pi, phi=0.5),
]


def with_edges(test):
    for kwargs in EDGES:
        test = example(**kwargs)(test)
    return test


EPS = np.finfo(float).eps


def assert_same_engine(sim, ref, omega_x):
    # Both routes run as an engine where w_total and q_h exceed ENGINE_TOL omega_x, and their fields differ by less
    # than 16 eps omega_x, so both report an efficiency or neither does wherever the closed form's w_total and q_h
    # lie more than 32 eps omega_x from that threshold.
    tol, band = ENGINE_TOL * omega_x, 32.0 * EPS * omega_x
    if abs(ref.w_total - tol) > band and abs(ref.q_h - tol) > band:
        assert (sim.eta is None) == (ref.eta is None), (sim.eta, ref.eta)


def assert_ledgers_equal(sim, ref, omega_x):
    for name in FIELDS:
        assert abs(getattr(sim, name) - getattr(ref, name)) <= TOL, name
    assert_same_engine(sim, ref, omega_x)
    # eta = w_total / q_h amplifies rounding where q_h is small
    if ref.q_h > 0.1 and abs(ref.w_total) > TOL:
        assert (sim.eta is None) == (ref.eta is None)
        if ref.eta is not None:
            assert abs(sim.eta - ref.eta) <= TOL


def _params(omega_z, gamma, beta_c, hot_fraction):
    return EngineParams(omega_z, gamma * omega_z, beta_c, beta_h=hot_fraction * beta_c)


@PROPERTY_SETTINGS
@given(**cycle_inputs)
@with_edges
def test_conventional_cycle_matches_closed_form(omega_z, gamma, beta_c, hot_fraction, p, alpha, theta, phi):
    params = _params(omega_z, gamma, beta_c, hot_fraction)
    sim = run_conventional_cycle(params, DriveSpec(p, alpha))
    assert_ledgers_equal(sim, analytic.conventional_record(params, p), params.omega_x)


@PROPERTY_SETTINGS
@given(**cycle_inputs)
@with_edges
def test_pvm_cycle_matches_closed_form(omega_z, gamma, beta_c, hot_fraction, p, alpha, theta, phi):
    params = _params(omega_z, gamma, beta_c, hot_fraction)
    drive = DriveSpec(p, alpha)
    basis = MeasurementBasis(theta, phi)
    sim = run_pvm_cycle(params, drive, basis)
    assert_ledgers_equal(sim, analytic.pvm_nonadiabatic_record(params, drive, basis), params.omega_x)


# The same two ledgers over every scale EngineParams accepts, held to a bound relative to it beside the absolute
# TOL above, which cannot tell rounding from an error at small gaps and fails at large ones: the routes differ by
# rounding alone, a few ulp of omega_x, so every field lies within 16 eps omega_x.  omega_x runs over
# [1e-300, 1e300] and gamma over [1 + 1e-9, 1e4], with beta_c omega_z in [0.05, 1e3].  Gaps below the smallest
# normal float (2.2e-308) are left out on purpose: there eps omega_x itself underflows, so no relative bound holds.
REL_TOL = 16.0 * np.finfo(float).eps
scale_inputs = dict(
    omega_x=st.floats(math.log(1e-300), math.log(1e300)).map(lambda x: min(math.exp(x), 1e300)),
    gamma_minus_1=st.floats(math.log(1e-9), math.log(1e4 - 1.0)).map(math.exp),
    beta_omega=st.floats(math.log(0.05), math.log(1e3)).map(math.exp),
    hot_fraction=st.floats(0.0, 0.95),
    p=st.floats(0.5, 1.0),
    alpha=angle,
    theta=st.floats(0.0, math.pi),
    phi=angle,
)
# (omega_z, omega_x, beta_c) = (1e-300, 3e-300, 1e299) and the ends of both ranges
SCALE_EDGES = [
    dict(omega_x=3e-300, gamma_minus_1=2.0, beta_omega=0.1, hot_fraction=0.5, p=0.7, alpha=1.0, theta=1.0, phi=0.3),
    dict(omega_x=1e300, gamma_minus_1=1e4 - 1.0, beta_omega=1e3, hot_fraction=0.9, p=0.5, alpha=0.0, theta=0.5,
         phi=0.0),
    dict(omega_x=1e-12, gamma_minus_1=1e-9, beta_omega=0.05, hot_fraction=0.0, p=1.0, alpha=2.0, theta=math.pi,
         phi=4.0),
    dict(omega_x=1e100, gamma_minus_1=1e-9, beta_omega=1e3, hot_fraction=0.95, p=0.75, alpha=0.5, theta=0.0,
         phi=0.5),
]


def scaled_params(omega_x, gamma_minus_1, beta_omega, hot_fraction):
    omega_z = omega_x / (1.0 + gamma_minus_1)
    beta_c = beta_omega / omega_z
    return EngineParams(omega_z, omega_x, beta_c, beta_h=hot_fraction * beta_c)


def assert_ledgers_within_scale(sim, ref, omega_x):
    for name in FIELDS:
        assert abs(getattr(sim, name) - getattr(ref, name)) <= REL_TOL * omega_x, name
    assert_same_engine(sim, ref, omega_x)


def with_scale_edges(test):
    for kwargs in SCALE_EDGES:
        test = example(**kwargs)(test)
    return test


@PROPERTY_SETTINGS
@given(**scale_inputs)
@with_scale_edges
def test_conventional_cycle_matches_closed_form_at_every_scale(
    omega_x, gamma_minus_1, beta_omega, hot_fraction, p, alpha, theta, phi
):
    params = scaled_params(omega_x, gamma_minus_1, beta_omega, hot_fraction)
    sim = run_conventional_cycle(params, DriveSpec(p, alpha))
    assert_ledgers_within_scale(sim, analytic.conventional_record(params, p), omega_x)


@PROPERTY_SETTINGS
@given(**scale_inputs)
@with_scale_edges
def test_pvm_cycle_matches_closed_form_at_every_scale(
    omega_x, gamma_minus_1, beta_omega, hot_fraction, p, alpha, theta, phi
):
    params = scaled_params(omega_x, gamma_minus_1, beta_omega, hot_fraction)
    drive, basis = DriveSpec(p, alpha), MeasurementBasis(theta, phi)
    sim = run_pvm_cycle(params, drive, basis)
    assert_ledgers_within_scale(sim, analytic.pvm_nonadiabatic_record(params, drive, basis), omega_x)


# No efficiency made of rounding.  As beta_c omega_x falls towards 1e-300, rho0 tends to I/2 and the true works
# and heats of a cycle to zero, while the kernel's rounding of each stroke energy stays of order eps omega_x.  Where
# either route reports an efficiency, it lies under the cycle's bound: 1 for a projective measurement, the Otto
# value 1 - omega_z / omega_x for two baths.  eta is set only where q_h exceeds ENGINE_TOL omega_x, and w_total and
# q_h lie within 16 eps omega_x of their exact values, so rounding moves an eta of at most 1 by at most
# 16 eps (1 + 1) / ENGINE_TOL, about 7e-3.
ETA_ROUNDING = 32.0 * EPS / ENGINE_TOL


@pytest.mark.parametrize("beta_c", [1e-300, 1e-30, 1e-15, 1e-13, 1e-6, 1.0, 1e3])
def test_no_efficiency_made_of_rounding(beta_c):
    rng = np.random.default_rng(19)  # the same 200 points at every beta_c
    for _ in range(200):
        omega_z, omega_x = 2.0, rng.uniform(2.02, 8.0)
        params = EngineParams(omega_z, omega_x, beta_c, beta_h=rng.uniform(0.0, 0.95) * beta_c)
        drive = DriveSpec(rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        basis = MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        for sim, ref, bound in (
            (run_conventional_cycle(params, drive), analytic.conventional_record(params, drive.p),
             1.0 - omega_z / omega_x),
            (run_pvm_cycle(params, drive, basis), analytic.pvm_nonadiabatic_record(params, drive, basis), 1.0),
        ):
            for rec in (sim, ref):
                assert rec.eta is None or rec.eta <= bound + ETA_ROUNDING, (rec.eta, bound)
            assert_same_engine(sim, ref, omega_x)


# Grid rows: the stroke-I/II setup on arrays of the swept fields, then a
# stroke-III method, returns one record of columns, and row i of every column
# is the single cycle on that row's specs, bit for bit; a grid's eta is NaN
# exactly where the single cycle's is None.
grid_row = st.tuples(
    st.floats(0.2, 4.0),  # omega_z
    st.floats(1.05, 4.0),  # gamma
    st.floats(math.log(0.05), math.log(1e3)).map(math.exp),  # beta_c
    st.floats(0.0, 0.95),  # hot fraction
    st.floats(0.5, 1.0),  # p
    angle,  # alpha
    st.floats(0.0, math.pi),  # theta
    angle,  # phi
)
dilation = st.tuples(
    st.lists(st.floats(-math.pi, math.pi), min_size=15, max_size=15),  # generator coefficients
    st.floats(0.0, 1.0),  # purity weight of the auxiliary: 1 is pure, 0 maximally mixed
    st.floats(0.0, math.pi),  # auxiliary state and measurement polar angle
    angle,  # auxiliary state and measurement azimuth
)

# p in {1/2, 1}, theta at both poles, beta_c = 1e3; a mixed, a pure and a
# maximally mixed auxiliary
EDGE_ROWS = [
    (2.0, 2.0, 1.0, 0.2, 0.5, 0.0, 0.0, 0.0),
    (2.0, 2.0, 1.0, 0.2, 1.0, 0.0, math.pi, 0.0),
    (1.0, 2.0, 1e3, 0.5, 0.5, 1.0, math.pi, 2.0),
    (1.0, 3.0, 1e3, 0.0, 1.0, 3.0, 0.0, 4.0),
    (2.0, 1.5, 0.05, 0.9, 0.75, 0.5, 0.5 * math.pi, 0.5),
]
EDGE_DILATIONS = [
    ([0.3] * 15, 0.5, 1.0, 2.0),
    ([0.0] * 15, 1.0, 0.0, 0.0),
    ([-1.0, 2.0, 0.5] * 5, 0.0, math.pi, 1.0),
]


def grid_arrays(rows):
    # the fields of the rows as arrays: omega_z, omega_x, beta_c, beta_h, p, alpha, theta, phi
    wz, g, bc, h, p, alpha, theta, phi = map(np.array, zip(*rows))
    return wz, g * wz, bc, h * bc, p, alpha, theta, phi


def grid_specs(rows):
    params = [EngineParams(wz, g * wz, bc, beta_h=h * bc) for wz, g, bc, h, *_ in rows]
    drives = [DriveSpec(p, alpha) for *_, p, alpha, _, _ in rows]
    bases = [MeasurementBasis(theta, phi) for *_, theta, phi in rows]
    return params, drives, bases


def povm_spec(coefficients, purity, theta, phi):
    basis = MeasurementBasis(theta, phi)
    aux = purity * basis.projectors()[0] + (1.0 - purity) * 0.5 * np.eye(2)
    return PovmSpec(su4_from_point(Su4Point(np.array(coefficients))), aux_state=aux, aux_basis=basis)


LEDGER = tuple(f.name for f in fields(CycleRecord)) + ("net_work", "first_law_residual")


def assert_rows_bitwise(grid, singles):
    for name in LEDGER:
        column = getattr(grid, name)
        assert isinstance(column, np.ndarray) and column.shape == (len(singles),), name
        for value, single in zip(column.tolist(), singles):
            ref = getattr(single, name)
            if name == "eta" and ref is None:
                assert math.isnan(value), name
            else:
                assert type(ref) is float and value.hex() == ref.hex(), name


@PROPERTY_SETTINGS
@given(rows=st.lists(grid_row, min_size=1, max_size=24), povm=dilation)
@example(rows=EDGE_ROWS, povm=EDGE_DILATIONS[0])
@example(rows=EDGE_ROWS[::-1], povm=EDGE_DILATIONS[1])
@example(rows=EDGE_ROWS[1:3], povm=EDGE_DILATIONS[2])
def test_grid_rows_equal_single_cycles(rows, povm):
    params, drives, bases = grid_specs(rows)
    omega_z, omega_x, beta_c, beta_h, p, alpha, thetas, phis = grid_arrays(rows)
    spec = povm_spec(*povm)
    strokes = _strokes(omega_z, omega_x, beta_c, p, alpha)

    def dilate(strokes, reset_temperature):
        return strokes.dilate(spec.joint_unitary, spec, reset_temperature)

    assert_rows_bitwise(
        strokes.record(_gibbs(strokes.h2, beta_h)),
        [run_conventional_cycle(p, d) for p, d in zip(params, drives)],
    )
    assert_rows_bitwise(
        strokes.measure(basis_projectors(thetas, phis)),
        [run_pvm_cycle(p, d, b) for p, d, b in zip(params, drives, bases)],
    )
    assert_rows_bitwise(
        dilate(strokes, 1.0 / beta_c),
        [run_povm_cycle(p, d, spec) for p, d in zip(params, drives)],
    )
    assert_rows_bitwise(
        dilate(strokes, 0.7),
        [run_povm_cycle(p, d, spec, reset_temperature=0.7) for p, d in zip(params, drives)],
    )
    # a field shared by every row broadcasts: fig2 shares its parameters' constants, fig4 its gaps and drive
    assert_rows_bitwise(
        _strokes(params[0].omega_z, params[0].omega_x, params[0].beta_c, p, alpha).measure(
            basis_projectors(thetas, phis)
        ),
        [run_pvm_cycle(params[0], d, b) for d, b in zip(drives, bases)],
    )
    assert_rows_bitwise(
        strokes_i_ii(params[0], drives[0]).measure(basis_projectors(thetas, phis)),
        [run_pvm_cycle(params[0], drives[0], b) for b in bases],
    )
    assert_rows_bitwise(
        strokes.measure(bases[0].projectors()),
        [run_pvm_cycle(p, d, bases[0]) for p, d in zip(params, drives)],
    )
    assert_rows_bitwise(
        dilate(_strokes(omega_z[0], omega_x[0], beta_c, drives[0].p, drives[0].alpha), 1.0 / beta_c),
        [run_povm_cycle(EngineParams(omega_z[0], omega_x[0], bc), drives[0], spec) for bc in beta_c.tolist()],
    )


# Stacked dilation optima: one strokes pass and one candidate pass over many
# rows, as fig3 runs them, give every row the single optimizer call's value
# and point, bit for bit.
optimum_row = st.tuples(
    st.floats(0.2, 4.0),  # omega_z
    st.floats(1.05, 4.0),  # gamma
    st.floats(math.log(0.05), math.log(1e3)).map(math.exp),  # beta_c
    st.floats(0.5, 1.0),  # p
    angle,  # alpha
)
# p in {1/2, 1}, beta_c = 1e3, a gap ratio of exactly 2
EDGE_OPTIMUM_ROWS = [
    (2.0, 1.5, 1.0, 0.5, 0.0),
    (2.0, 2.0, 1.0, 1.0, 0.0),
    (1.0, 2.5, 1e3, 0.5, 1.0),
    (1.0, 3.0, 1e3, 1.0, 0.0),
]


@PROPERTY_SETTINGS
@given(rows=st.lists(optimum_row, min_size=1, max_size=24), t_c=st.floats(0.0, 3.0))
@example(rows=EDGE_OPTIMUM_ROWS, t_c=0.0)
@example(rows=EDGE_OPTIMUM_ROWS[::-1], t_c=1.0)
@example(rows=EDGE_OPTIMUM_ROWS[2:], t_c=1e-3)
def test_stacked_optima_equal_single_calls(rows, t_c):
    # each row's candidates, their values and the chosen one equal the single call's value and point
    params = [EngineParams(wz, g * wz, bc) for wz, g, bc, _, _ in rows]
    drives = [DriveSpec(p, alpha) for *_, p, alpha in rows]
    omega_z, gamma, beta_c, p, alpha = map(np.array, zip(*rows))
    strokes = _strokes(omega_z, gamma * omega_z, beta_c, p, alpha)
    both, vs = optimize._dilation_candidates(strokes, t_c, net=True)
    gross_only, gross_vs = optimize._dilation_candidates(strokes, t_c, net=False)
    n = len(rows)
    assert both.w_total.shape == (2, n) and gross_only.w_total.shape == (n,)
    assert vs.shape == (2, n, 4, 4) and gross_vs.shape == (n, 4, 4)
    for i, (prm, drive) in enumerate(zip(params, drives)):
        gross_v = optimize._dilation_candidates(strokes_i_ii(prm, drive), t_c, net=False)[1]
        net_vs = optimize._dilation_candidates(strokes_i_ii(prm, drive), t_c, net=True)[1]
        assert gross_vs[i].tobytes() == vs[0, i].tobytes() == gross_v.tobytes() == net_vs[0].tobytes()
        assert vs[1, i].tobytes() == net_vs[1].tobytes()
        gross = optimize.optimize_povm_work(prm, drive)
        net = optimize.optimize_povm_net_work(prm, drive, t_c=t_c)
        for value in (both.w_total[0, i], gross_only.w_total[i]):
            assert float(value).hex() == gross.best_value.hex()
        assert vs[0, i].tobytes() == gross.best_point.tobytes()
        j = 1 if both.net_work[1, i] > both.net_work[0, i] else 0  # a tie keeps the gross-optimal one
        assert float(both.net_work[j, i]).hex() == net.best_value.hex()
        assert vs[j, i].tobytes() == net.best_point.tobytes()


# The command line: with --deterministic, a report is a pure function of argv.
# Every command either writes its report and exits 0, or writes nothing to
# stdout and exits 2 (a bad flag value, or argparse's own SystemExit(2)); it
# never raises, and under the suite's error::RuntimeWarning it never warns.
EXTREME_FLOATS = (0.0, -1.0, 5e-324, 1e-320, 1e154, 1e308, math.nan, math.inf, -math.inf)
flag_value = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats(0.05, 6.0))
COMMAND_FLAGS = {
    "cycle": ("omega-x", "omega-z", "beta-c", "beta-h", "p", "alpha", "theta", "phi", "t-c"),
    "fig2": ("beta-c",),
    "fig3": ("beta-c", "t-c"),
    "fig4": ("omega-x", "omega-z", "beta-c", "t-c-start", "t-c-stop"),
    "table1": ("omega-x", "omega-z", "beta-c", "beta-h"),
    "optimize-povm": ("omega-x", "omega-z", "beta-c", "p", "t-c"),
}
COMMAND_CHOICES = {
    "cycle": [("--engine", ("conventional", "pvm", "povm"))],
    "fig2": [("--panel", ("a", "b"))],
    "fig3": [("--panel", ("a", "b"))],
}
COMMAND_SWITCHES = {"cycle": ("--v0",), "optimize-povm": ("--net",)}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, choices in COMMAND_CHOICES.get(command, ()):
        argv.append(f"{flag}={draw(st.sampled_from(choices))}")
    for flag in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(flag_value)!r}")
    argv += [s for s in COMMAND_SWITCHES.get(command, ()) if draw(st.booleans())]
    if command in ("fig2", "fig3", "fig4"):
        argv.append(f"--grid-points={draw(st.integers(2, 6))}")
    argv.append(f"--format={draw(st.sampled_from(('text', 'csv', 'json')))}")
    return argv + ["--deterministic"]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(argv=cli_argv())
@example(argv=["fig4", "--omega-x=1300000000.0", "--omega-z=1.0", "--deterministic"])
@example(argv=["table1", "--omega-x=2e+300", "--deterministic"])
@example(argv=["cycle", "--engine=pvm", "--theta=1.0", "--beta-c=1e+308", "--deterministic"])
def test_deterministic_report_is_a_pure_function_of_argv(argv):
    code, out = run_main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out == "", argv
    assert run_main(argv) == (code, out), argv
