"""Property tests: the simulated ledgers equal their closed forms everywhere.

Hypothesis runs derandomized and without an example database, so every
run draws the same inputs.  The explicit examples pin the edges the
simulator must handle: p = 1/2 and p = 1, a gap ratio of exactly 2,
measurement axes at the poles and a near-zero cold temperature.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qotto import analytic
from qotto.engine import DriveSpec, EngineParams, MeasurementBasis, run_conventional_cycle, run_pvm_cycle

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


def assert_ledgers_equal(sim, ref):
    for name in FIELDS:
        assert abs(getattr(sim, name) - getattr(ref, name)) <= TOL, name
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
    assert_ledgers_equal(sim, analytic.conventional_record(params, p))


@PROPERTY_SETTINGS
@given(**cycle_inputs)
@with_edges
def test_pvm_cycle_matches_closed_form(omega_z, gamma, beta_c, hot_fraction, p, alpha, theta, phi):
    params = _params(omega_z, gamma, beta_c, hot_fraction)
    drive = DriveSpec(p, alpha)
    basis = MeasurementBasis(theta, phi)
    sim = run_pvm_cycle(params, drive, basis)
    assert_ledgers_equal(sim, analytic.pvm_nonadiabatic_record(params, drive, basis))
