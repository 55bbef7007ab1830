"""Command-line front end: single cycles, sweeps, comparison table, optimizer runs.

Every report starts with '#'-prefixed metadata (units banner, tool
version, parameters, and a timestamp unless
--deterministic is given), followed by a documented header row and data
rows with '.'-decimal numbers at 12 significant digits.  Exit codes:
0 success, 2 bad flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, analytic, engine, optimize
from .engine import LN2, DriveSpec, EngineParams, MeasurementBasis, PovmSpec

UNITS_BANNER = "energies in hbar*Omega_0; temperatures in hbar*Omega_0/k_B"

SWEEP_VARIABLES = ("p", "t_c")
GRID_SLICE = 4096  # grid points per stacked pass, which bounds the ledgers held at once


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable on a uniform grid."""

    variable: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ValueError(f"start must be below stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ValueError(f"points must be at least 2, got {self.points}")
        lo, hi = {"p": (0.5, 1.0), "t_c": (0.0, math.inf)}[self.variable]
        if self.start < lo or self.stop > hi:
            raise ValueError(f"{self.variable} range [{self.start}, {self.stop}] outside [{lo}, {hi}]")
        if self.variable == "t_c" and not (self.start > 0.0 and 1.0 / self.start < math.inf):
            raise ValueError(f"t_c must be positive with a finite reciprocal, got start {self.start}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def slices(self) -> list[list[float]]:
        """values() as floats, in consecutive slices of at most GRID_SLICE points."""
        v = self.values().tolist()
        return [v[i:i + GRID_SLICE] for i in range(0, len(v), GRID_SLICE)]


@dataclass(frozen=True)
class RunReport:
    """Metadata plus tabular rows, renderable as text, CSV or JSON."""

    meta: dict
    columns: tuple[str, ...]
    rows: list


def _fmt(value) -> str:
    if type(value) is float:
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _json_value(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value):.12g}")


def render_report(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "meta": report.meta,
            "columns": list(report.columns),
            "rows": [[_json_value(v) for v in row] for row in report.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}: {value}" for key, value in report.meta.items()]
    if fmt == "csv":
        lines.append(",".join(report.columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in report.rows)
    else:  # key/value text
        for row in report.rows:
            lines.extend(f"{col} = {_fmt(v)}" for col, v in zip(report.columns, row))
            lines.append("")
        while lines and lines[-1] == "":
            lines.pop()
    return "\n".join(lines) + "\n"


RECORD_COLUMNS = (  # the CycleRecord fields and properties a ledger row prints, in order
    "e0", "e1", "e2", "e3", "w1", "w2", "w_total", "q_c", "q_h",
    "eta", "aux_entropy", "aux_reset_cost", "net_work", "first_law_residual",
)


def _load_su4_file(path: str) -> optimize.Su4Point:
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            values.extend(float(tok) for tok in body.split())
    if len(values) != 15:
        raise ValueError(f"{path}: expected 15 coefficients, found {len(values)}")
    return optimize.Su4Point(np.array(values))


def cmd_cycle(args) -> RunReport:
    params = EngineParams(
        omega_z=args.omega_z, omega_x=args.omega_x, beta_c=args.beta_c, beta_h=args.beta_h
    )
    drive = DriveSpec(p=args.p, alpha=args.alpha)
    phi = 0.0 if args.phi is None else args.phi
    meta = dict(
        engine=args.engine, omega_z=args.omega_z, omega_x=args.omega_x,
        beta_c=args.beta_c, p=args.p, alpha=args.alpha,
    )
    if args.engine == "conventional":
        if args.beta_h is None:
            raise ValueError("--engine conventional requires --beta-h")
        if args.v0 or args.su4_file or any(x is not None for x in (args.theta, args.phi, args.t_c)):
            raise ValueError("--theta/--phi/--v0/--su4-file/--t-c do not apply to the conventional engine")
        meta["beta_h"] = args.beta_h
        record = engine.run_conventional_cycle(params, drive)
    elif args.engine == "pvm":
        if args.beta_h is not None:
            raise ValueError("--beta-h does not apply to --engine pvm")
        if args.v0 or args.su4_file or args.t_c is not None:
            raise ValueError("--v0/--su4-file/--t-c do not apply to --engine pvm")
        if args.theta is None:
            raise ValueError("--engine pvm requires --theta")
        basis = MeasurementBasis(theta_x=args.theta, phi_x=phi)
        meta["theta_x"], meta["phi_x"] = args.theta, phi
        record = engine.run_pvm_cycle(params, drive, basis)
    else:  # povm
        if args.beta_h is not None:
            raise ValueError("--beta-h does not apply to --engine povm")
        if bool(args.v0) == bool(args.su4_file):
            raise ValueError("--engine povm requires exactly one of --v0 or --su4-file")
        if args.v0:
            joint = analytic.optimal_dilation_unitary()
            meta["dilation"] = "v0"
        else:
            joint = optimize.su4_from_point(_load_su4_file(args.su4_file))
            meta["dilation"] = args.su4_file
        aux_basis = MeasurementBasis(theta_x=args.theta or 0.0, phi_x=phi)
        povm = PovmSpec(joint_unitary=joint, aux_basis=aux_basis)
        meta["aux_theta_x"], meta["aux_phi_x"] = aux_basis.theta_x, aux_basis.phi_x
        record = engine.run_povm_cycle(params, drive, povm, reset_temperature=args.t_c)
        if args.t_c is not None:
            meta["t_c"] = args.t_c + 0.0  # a -0 prints as 0, as the cycle takes it
    return RunReport(meta=meta, columns=RECORD_COLUMNS, rows=[tuple(getattr(record, c) for c in RECORD_COLUMNS)])


_PANELS = {"a": (3.0, 2.0), "b": (5.0, 2.0)}


def cmd_fig2(args) -> RunReport:
    omega_x, omega_z = _PANELS[args.panel]
    spec = SweepSpec("p", 0.5, 1.0, args.grid_points)
    params = EngineParams(omega_z=omega_z, omega_x=omega_x, beta_c=args.beta_c)
    if not args.beta_c > 0.2:
        raise ValueError(f"--beta-c must exceed 0.2, the fixed hot inverse temperature of the w_conv_bh02 column, "
                         f"got {args.beta_c}")
    rows = []
    for ps in spec.slices():
        strokes = engine.strokes_i_ii(params, [DriveSpec(p=p) for p in ps])  # the columns differ only in stroke III
        columns = (
            strokes.thermalize(0.2),
            strokes.thermalize(0.0),
            strokes.measure(engine.basis_projectors(analytic.pvm_optimal_theta(params, ps), 0.0)),
        )
        residual = functools.reduce(np.maximum, (r.first_law_residual for r in columns))
        rows += zip(ps, *(r.w_total.tolist() for r in columns), residual.tolist())
    return RunReport(
        meta=dict(panel=args.panel, omega_x=omega_x, omega_z=omega_z, beta_c=args.beta_c),
        columns=("p", "w_conv_bh02", "w_conv_bh0", "w_pvm_max", "first_law_residual"),
        rows=rows,
    )


def cmd_fig3(args) -> RunReport:
    omega_x, omega_z = _PANELS[args.panel]
    spec = SweepSpec("p", 0.5, 1.0, args.grid_points)
    params = EngineParams(omega_z=omega_z, omega_x=omega_x, beta_c=args.beta_c)
    t_c = engine._check_finite_nonnegative("t_c", args.t_c if args.t_c is not None else 1.0 / args.beta_c)
    rows = []
    for ps in spec.slices():
        # both candidates of every row in one pass; the net optimum is the better, a tie keeping the gross one
        rec, _ = optimize._dilation_candidates(params, [DriveSpec(p=p) for p in ps], t_c, net=True)
        net = np.where(rec.net_work[1] > rec.net_work[0], rec.net_work[1], rec.net_work[0])
        for p, w, w_net, res in zip(ps, rec.w_total[0].tolist(), net.tolist(), rec.first_law_residual[0].tolist()):
            rows.append((p, w, w - t_c * LN2, w_net, analytic.pvm_optimal(params, p).work, res, 1))
    return RunReport(
        meta=dict(panel=args.panel, omega_x=omega_x, omega_z=omega_z, beta_c=args.beta_c, t_c=t_c),
        columns=(
            "p", "w_povm_max", "w_povm_lower_bound", "w_net_max", "w_pvm_max",
            "first_law_residual", "converged",
        ),
        rows=rows,
    )


def cmd_fig4(args) -> RunReport:
    params = EngineParams(omega_z=args.omega_z, omega_x=args.omega_x, beta_c=1.0)
    spec = SweepSpec("t_c", args.t_c_start, args.t_c_stop, args.grid_points)
    crossing = analytic.reset_crossing_temperature(params)
    povm = PovmSpec(joint_unitary=analytic.optimal_dilation_unitary())
    aux_projectors = povm.aux_basis.projectors()
    rows = []
    for t_cs in spec.slices():
        try:  # only the bound on beta_c * omega_x can fail, first at the coldest point
            colds = [EngineParams(omega_z=args.omega_z, omega_x=args.omega_x, beta_c=1.0 / t_c) for t_c in t_cs]
        except ValueError as exc:
            raise ValueError(f"t_c must be warmer than {spec.start} at omega_x = {args.omega_x}: {exc}") from None
        cycles = engine.strokes_i_ii(colds, DriveSpec(p=1.0)).dilate(
            povm.joint_unitary, povm.aux_state, aux_projectors, np.array(t_cs)  # each row resets at its t_c
        )
        for t_c, res in zip(t_cs, cycles.first_law_residual.tolist()):
            rec = analytic.aux_cost_record(params, t_c)
            rows.append((t_c, rec.delta_w, rec.min_cost, res))
    return RunReport(
        meta=dict(omega_x=args.omega_x, omega_z=args.omega_z, crossing_temperature=f"{crossing:.12g}"),
        columns=("t_c", "delta_w", "w_a_min", "first_law_residual"),
        rows=rows,
    )


def cmd_table1(args) -> RunReport:
    params = EngineParams(
        omega_z=args.omega_z, omega_x=args.omega_x, beta_c=args.beta_c, beta_h=args.beta_h
    )
    eta0 = 1.0 - args.omega_z / args.omega_x
    w_conv = analytic.conventional_record(params, 1.0).w_total
    w_pvm = analytic.pvm_nonadiabatic_record(params, DriveSpec(1.0), MeasurementBasis(math.pi / 2.0)).w_total
    w_povm = analytic.povm_work_ceiling(params, DriveSpec(1.0))
    best = analytic.pvm_best_p(params)
    # povm_work_ceiling's closed form over its 1001-point p-grid, as one array expression
    wz, wx, p = args.omega_z, args.omega_x, np.linspace(0.5, 1.0, 1001)
    d = np.sqrt(np.maximum((wx - wz) ** 2 + 4.0 * wx * wz * (1.0 - p), 0.0))
    povm_na = float(np.max(0.5 * params.tau_z * ((2.0 * p - 1.0) * wx - wz) + 0.5 * d))
    rows = [
        ("efficiency_adiabatic", eta0, eta0, eta0),
        ("optimal_work_adiabatic", w_conv, w_pvm, w_povm),
        # the two-bath work peaks at p = 1, so its non-adiabatic optimum is w_conv
        ("optimal_work_nonadiabatic", w_conv, best.work, povm_na),
        ("efficiency_at_optimal_work", eta0, best.eta, eta0 if params.gamma >= 2.0 else None),
    ]
    meta = dict(
        omega_x=args.omega_x, omega_z=args.omega_z, beta_c=args.beta_c,
        beta_h=args.beta_h, hierarchy_conv_le_pvm_lt_povm=str(bool(w_conv <= w_pvm < w_povm)),
    )
    return RunReport(meta=meta, columns=("quantity", "conventional", "pvm", "povm"), rows=rows)


def cmd_optimize_povm(args) -> RunReport:
    params = EngineParams(omega_z=args.omega_z, omega_x=args.omega_x, beta_c=args.beta_c)
    drive = DriveSpec(p=args.p, alpha=0.0)
    if args.t_c is not None and not args.net:
        raise ValueError("--t-c requires --net")
    t_c = 1.0 / args.beta_c if args.t_c is None else args.t_c
    if args.net:
        result = optimize.optimize_povm_net_work(params, drive, t_c=t_c)
    else:
        result = optimize.optimize_povm_work(params, drive)
    if args.su4_out:
        with open(args.su4_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# generator coefficients, order: " + " ".join(optimize.SU4_GENERATOR_LABELS) + "\n")
            fh.write(" ".join(f"{v:.17g}" for v in result.best_point.k) + "\n")
    meta = dict(
        omega_x=args.omega_x, omega_z=args.omega_z, beta_c=args.beta_c,
        p=args.p, objective="net" if args.net else "gross",
    )
    if args.net:
        meta["t_c"] = t_c + 0.0  # a -0 prints as 0, as the optimizer takes it
    columns = ("best_value", "evaluations", "converged") + tuple(
        f"k_{label}" for label in optimize.SU4_GENERATOR_LABELS
    )
    row = (result.best_value, result.evaluations, int(result.converged)) + tuple(result.best_point.k)
    return RunReport(meta=meta, columns=columns, rows=[row])


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument("--out", help="write the report to this file instead of stdout")
    sub.add_argument(
        "--format", choices=("text", "csv", "json"), default=default_format,
        help=f"output format (default {default_format})",
    )
    sub.add_argument(
        "--deterministic", action="store_true",
        help="suppress the timestamp so identical flags give identical bytes",
    )


def _add_param_flags(sub, omega_x=3.0, omega_z=2.0) -> None:
    sub.add_argument("--omega-x", type=float, default=omega_x, help="drive-stroke gap")
    sub.add_argument("--omega-z", type=float, default=omega_z, help="cold-stroke gap")
    sub.add_argument("--beta-c", type=float, default=1.0, help="cold inverse temperature")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qotto",
        description="Measurement-fueled qubit Otto engines: cycles, sweeps, optimization.",
    )
    parser.add_argument("--version", action="version", version=f"qotto {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    cycle = subs.add_parser("cycle", help="evaluate a single cycle and print its ledger")
    cycle.add_argument("--engine", choices=("conventional", "pvm", "povm"), required=True)
    _add_param_flags(cycle)
    cycle.add_argument("--beta-h", type=float, default=None, help="hot inverse temperature (conventional only)")
    cycle.add_argument("--p", type=float, default=1.0, help="drive transition probability")
    cycle.add_argument("--alpha", type=float, default=0.0, help="drive phase")
    cycle.add_argument("--theta", type=float, default=None, help="measurement polar angle")
    cycle.add_argument("--phi", type=float, default=None, help="measurement azimuthal angle (default 0)")
    cycle.add_argument("--v0", action="store_true", help="use the optimal adiabatic dilation unitary")
    cycle.add_argument("--su4-file", help="file with 15 generator coefficients for the dilation unitary")
    cycle.add_argument("--t-c", type=float, default=None, help="auxiliary reset temperature")
    _add_output_flags(cycle, "text")
    cycle.set_defaults(func=cmd_cycle)

    fig2 = subs.add_parser("fig2", help="two-bath vs projective work against the drive probability")
    fig2.add_argument("--panel", choices=("a", "b"), default="a")
    fig2.add_argument("--beta-c", type=float, default=1.0)
    fig2.add_argument("--grid-points", type=int, default=101)
    _add_output_flags(fig2, "csv")
    fig2.set_defaults(func=cmd_fig2)

    fig3 = subs.add_parser("fig3", help="optimized dilation work (gross and net) vs projective work")
    fig3.add_argument("--panel", choices=("a", "b"), default="a")
    fig3.add_argument("--beta-c", type=float, default=1.0)
    fig3.add_argument("--t-c", type=float, default=None, help="reset temperature (default 1/beta_c)")
    fig3.add_argument("--grid-points", type=int, default=11)
    _add_output_flags(fig3, "csv")
    fig3.set_defaults(func=cmd_fig3)

    fig4 = subs.add_parser("fig4", help="reset cost vs work advantage against the cold temperature")
    _add_param_flags(fig4, omega_x=5.0, omega_z=2.0)
    fig4.add_argument("--t-c-start", type=float, default=0.05)
    fig4.add_argument("--t-c-stop", type=float, default=4.0)
    fig4.add_argument("--grid-points", type=int, default=80)
    _add_output_flags(fig4, "csv")
    fig4.set_defaults(func=cmd_fig4)

    table1 = subs.add_parser("table1", help="three-engine comparison table")
    _add_param_flags(table1)
    table1.add_argument("--beta-h", type=float, default=0.2)
    _add_output_flags(table1, "text")
    table1.set_defaults(func=cmd_table1)

    opt = subs.add_parser("optimize-povm", help="maximize dilation-cycle work over the joint unitary")
    _add_param_flags(opt)
    opt.add_argument("--p", type=float, default=1.0)
    opt.add_argument("--net", action="store_true", help="maximize work net of the reset cost")
    opt.add_argument("--t-c", type=float, default=None, help="reset temperature (default 1/beta_c)")
    opt.add_argument("--su4-out", help="write the optimal coefficients to this file")
    _add_output_flags(opt, "text")
    opt.set_defaults(func=cmd_optimize_povm)

    return parser


_parser = functools.cache(build_parser)  # built on the first main() call, then reused


def main(argv=None) -> int:
    """Run one command: header, then its metadata and rows, to --out or stdout; 2 on a bad flag value."""
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
        header = {"tool": f"qotto {__version__}", "units": UNITS_BANNER}
        if not args.deterministic:
            header["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = render_report(RunReport({**header, **report.meta}, report.columns, report.rows), args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
