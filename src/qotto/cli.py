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

from . import __version__, analytic, engine, optimize, qmat
from .engine import LN2, DriveSpec, EngineParams, MeasurementBasis, PovmSpec

UNITS_BANNER = "energies in hbar*Omega_0; temperatures in hbar*Omega_0/k_B"

_BLOCH_BASIS = np.stack([qmat.ID2, qmat.SIGMA_X, qmat.SIGMA_Y, qmat.SIGMA_Z])  # optimize-povm's E0_I, E0_x, E0_y, E0_z


@dataclass(frozen=True)
class SweepSpec:
    """A uniform grid on [start, stop]; the swept field's own rules check its values."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ValueError(f"start must be below stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ValueError(f"points must be at least 2, got {self.points}")

    def values(self) -> np.ndarray:
        try:
            return np.linspace(self.start, self.stop, self.points)
        except MemoryError:  # a grid too large to allocate is a bad --grid-points, not a crash
            raise ValueError(f"cannot allocate a grid of {self.points} points") from None

    def slices(self) -> list[np.ndarray]:
        """values() in consecutive slices of at most engine.GRID_SLICE points, one stacked kernel pass each."""
        return np.split(self.values(), range(engine.GRID_SLICE, self.points, engine.GRID_SLICE))


@dataclass(frozen=True)
class RunReport:
    """Metadata plus tabular rows, renderable as text, CSV or JSON."""

    meta: dict
    columns: tuple[str, ...]
    rows: list


def _unsigned_zero(value):
    # A value with a float zero of either sign as +0.0, so no report prints -0.
    return value + 0.0 if isinstance(value, (float, np.floating)) else value


@functools.lru_cache(maxsize=256)
def _row_template(fmt: str, columns: tuple, types: tuple) -> str:
    # The %-template of a row of these cell types, a csv line or text's "column = cell" lines: floats at 12
    # significant digits, integers whole, None empty.
    cells = ["%.12g" if issubclass(t, (float, np.floating)) else "%.0s" if t is type(None)
             else "%d" if issubclass(t, (int, np.integer)) and t is not bool else "%s" for t in types]
    if fmt == "csv":
        return ",".join(cells)
    return "\n".join(f"{col.replace('%', '%%')} = {cell}" for col, cell in zip(columns, cells))


def _row_lines(report: RunReport, fmt: str) -> list[str]:
    # Each row through its template.  %.12g prints "-0" for -0.0 alone, its exponents having two digits, so a row
    # that printed a -0 cell is printed again with its float zeros unsigned.
    columns, lines = tuple(report.columns), []
    for row in map(tuple, report.rows):
        template = _row_template(fmt, columns, tuple(map(type, row)))
        line = template % row
        if "-0," in line or "-0\n" in line or line.endswith("-0"):
            line = template % tuple(map(_unsigned_zero, row))
        lines.append(line)
    return lines


def _json_value(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value) + 0.0:.12g}")


def render_report(report: RunReport, fmt: str) -> str:
    """The report as text, csv or json; every format prints a float zero, in metadata and cells, as 0."""
    meta = {key: _unsigned_zero(value) for key, value in report.meta.items()}
    if fmt == "json":
        payload = {
            "meta": meta,
            "columns": list(report.columns),
            "rows": [[_json_value(v) for v in row] for row in report.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    if fmt == "csv":
        lines += [",".join(report.columns), *_row_lines(report, fmt)]
    elif report.rows:  # key/value text, a blank line between rows
        lines.append("\n\n".join(_row_lines(report, fmt)))
    return "\n".join(lines) + "\n"


RECORD_COLUMNS = (  # the CycleRecord fields and properties a ledger row prints, in order
    "e0", "e1", "e2", "e3", "w1", "w2", "w_total", "q_c", "q_h",
    "eta", "aux_entropy", "aux_reset_cost", "net_work", "first_law_residual",
)


def _load_su4_file(path: str) -> np.ndarray:
    # The joint unitary of a --su4-file: 32 numbers are its 16 (re, im) pairs row by row, as --su4-out writes
    # them, and 15 are generator coefficients; '#' starts a comment.
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            values.extend(float(tok) for tok in body.split())
    if len(values) == 32:
        return np.array(values).view(complex).reshape(4, 4)
    if len(values) == 15:
        return optimize.su4_from_point(optimize.Su4Point(np.array(values)))
    raise ValueError(f"{path}: expected 32 numbers (a 4x4 unitary) or 15 generator coefficients, found {len(values)}")


# The optional flags each cycle engine takes: exactly one of the first group, any of the second.  A flag counts as
# given unless its value is None, so --phi 0 is given; the two-bath cycle's beta_h is required by EngineParams.
_CYCLE_FLAGS = {
    "conventional": ((), ("--beta-h",)),
    "pvm": (("--theta",), ("--phi",)),
    "povm": (("--v0", "--su4-file"), ("--theta", "--phi", "--t-c")),
}


def cmd_cycle(args) -> RunReport:
    one_of, optional = _CYCLE_FLAGS[args.engine]
    flags = ("--beta-h", "--theta", "--phi", "--v0", "--su4-file", "--t-c")
    given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]
    if len(set(given) & set(one_of)) != bool(one_of) or not set(given) <= set(one_of + optional):
        usage = [f"({' | '.join(one_of)})"] if one_of else []
        usage += [f"[{flag}]" for flag in optional]
        raise ValueError(f"--engine {args.engine} takes {' '.join(usage)}, got {' '.join(given) or 'none'}")
    params = EngineParams(omega_z=args.omega_z, omega_x=args.omega_x, beta_c=args.beta_c, beta_h=args.beta_h)
    drive = DriveSpec(p=args.p, alpha=args.alpha)
    phi = 0.0 if args.phi is None else args.phi
    meta = dict(
        engine=args.engine, omega_z=args.omega_z, omega_x=args.omega_x,
        beta_c=args.beta_c, p=args.p, alpha=args.alpha,
    )
    if args.engine == "conventional":
        meta["beta_h"] = args.beta_h
        record = engine.run_conventional_cycle(params, drive)
    elif args.engine == "pvm":
        basis = MeasurementBasis(theta_x=args.theta, phi_x=phi)
        meta["theta_x"], meta["phi_x"] = args.theta, phi
        record = engine.run_pvm_cycle(params, drive, basis)
    else:  # povm
        if args.v0:
            joint = analytic.optimal_dilation_unitary()
            meta["dilation"] = "v0"
        else:
            joint = _load_su4_file(args.su4_file)
            meta["dilation"] = args.su4_file
        aux_basis = MeasurementBasis(theta_x=args.theta or 0.0, phi_x=phi)
        povm = PovmSpec(joint_unitary=joint, aux_basis=aux_basis)
        meta["aux_theta_x"], meta["aux_phi_x"] = aux_basis.theta_x, aux_basis.phi_x
        record = engine.run_povm_cycle(params, drive, povm, reset_temperature=args.t_c)
        if args.t_c is not None:
            meta["t_c"] = params.reset_temperature(args.t_c)
    return RunReport(meta=meta, columns=RECORD_COLUMNS, rows=[tuple(getattr(record, c) for c in RECORD_COLUMNS)])


_PANELS = {"a": (3.0, 2.0), "b": (5.0, 2.0)}


def cmd_fig2(args) -> RunReport:
    omega_x, omega_z = _PANELS[args.panel]
    spec = SweepSpec(0.5, 1.0, args.grid_points)
    params = EngineParams(omega_z=omega_z, omega_x=omega_x, beta_c=args.beta_c)
    if not args.beta_c > 0.2:
        raise ValueError(f"--beta-c must exceed 0.2, the fixed hot inverse temperature of the w_conv_bh02 column, "
                         f"got {args.beta_c}")
    rows = []
    for ps in spec.slices():
        # strokes I-II at every p of the slice, in [1/2, 1] as pvm_optimal checks, at phase 0; the columns differ only
        # in stroke III: one (3, n) stack of its outputs, the first two the Gibbs states of the two hot baths
        strokes = engine._strokes(params.omega_z, params.omega_x, params.beta_c, ps, 0.0)
        hot = engine._gibbs(strokes.h2, np.array([[0.2], [0.0]]))
        measured = engine._measure(strokes.rho1, engine.basis_projectors(analytic.pvm_optimal(params, ps).theta, 0.0))
        rec = strokes.record(np.concatenate((np.broadcast_to(hot, (2,) + measured.shape), measured[None])))
        rows += zip(ps.tolist(), *rec.w_total.tolist(), rec.first_law_residual.max(axis=0).tolist())
    return RunReport(
        meta=dict(panel=args.panel, omega_x=omega_x, omega_z=omega_z, beta_c=args.beta_c),
        columns=("p", "w_conv_bh02", "w_conv_bh0", "w_pvm_max", "first_law_residual"),
        rows=rows,
    )


def cmd_fig3(args) -> RunReport:
    omega_x, omega_z = _PANELS[args.panel]
    spec = SweepSpec(0.5, 1.0, args.grid_points)
    params = EngineParams(omega_z=omega_z, omega_x=omega_x, beta_c=args.beta_c)
    t_c = params.reset_temperature(args.t_c)
    rows = []
    for ps in spec.slices():
        # both candidates of every row in one pass, and the net work of each row's winner
        strokes = engine._strokes(params.omega_z, params.omega_x, params.beta_c, ps, 0.0)
        rec, _ = optimize._dilation_candidates(strokes, t_c, net=True)
        nets = np.where(optimize._net_winner(rec), rec.net_work[1], rec.net_work[0])
        cells = zip(ps.tolist(), rec.w_total[0].tolist(), nets.tolist(), analytic.pvm_optimal(params, ps).work.tolist(),
                    rec.first_law_residual[0].tolist())
        rows += [(p, w, w - t_c * LN2, net, w_pvm, res, 1) for p, w, net, w_pvm, res in cells]
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
    spec = SweepSpec(args.t_c_start, args.t_c_stop, args.grid_points)
    try:  # the coldest row's beta_c = 1/t_c checks every row's, 1/0 taken as inf, which is not finite
        EngineParams(omega_z=args.omega_z, omega_x=args.omega_x, beta_c=1.0 / spec.start if spec.start else math.inf)
    except ValueError as exc:
        raise ValueError(f"t_c must be warmer than {spec.start} at omega_x = {args.omega_x}: {exc}") from None
    crossing = analytic.reset_crossing_temperature(params)
    v0 = analytic.optimal_dilation_unitary()
    rows = []
    for t_cs in spec.slices():
        # one stacked pass from the shared h1 and an array of cold inverse temperatures, each row reset at its own t_c
        strokes = engine._strokes(args.omega_z, args.omega_x, 1.0 / t_cs, 1.0, 0.0)
        residuals = strokes.dilate(v0, optimize._AUX, t_cs).first_law_residual
        rec = analytic.aux_cost_record(params, t_cs)
        rows += zip(t_cs.tolist(), [rec.delta_w] * t_cs.size, rec.min_cost.tolist(), residuals.tolist())
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
    conv = analytic.conventional_record(params, 1.0)
    w_pvm = analytic.pvm_nonadiabatic_record(params, DriveSpec(1.0), MeasurementBasis(math.pi / 2.0)).w_total
    best = analytic.pvm_best_p(params)
    ceiling = analytic.povm_work_ceiling(params, np.linspace(0.5, 1.0, 1001))  # its last point is p = 1
    w_povm = float(ceiling[-1])
    rows = [
        # eta0 is the two-bath cycle's efficiency only where it runs as an engine
        ("efficiency_adiabatic", None if conv.eta is None else eta0, eta0, eta0),
        ("optimal_work_adiabatic", conv.w_total, w_pvm, w_povm),
        # the two-bath work peaks at p = 1, so its non-adiabatic optimum is its adiabatic one
        ("optimal_work_nonadiabatic", conv.w_total, best.work, float(ceiling.max())),
        # the gross-optimal dilation cycle runs at eta0 at p = 1, the grid's last point, and has no closed form inside
        ("efficiency_at_optimal_work", conv.eta, best.eta, eta0 if ceiling.argmax() == ceiling.size - 1 else None),
    ]
    meta = dict(
        omega_x=args.omega_x, omega_z=args.omega_z, beta_c=args.beta_c,
        beta_h=args.beta_h, hierarchy_conv_le_pvm_lt_povm=str(bool(conv.w_total <= w_pvm < w_povm)),
    )
    return RunReport(meta=meta, columns=("quantity", "conventional", "pvm", "povm"), rows=rows)


def cmd_optimize_povm(args) -> RunReport:
    params = EngineParams(omega_z=args.omega_z, omega_x=args.omega_x, beta_c=args.beta_c)
    drive = DriveSpec(p=args.p, alpha=0.0)
    if args.t_c is not None and not args.net:
        raise ValueError("--t-c requires --net")
    meta = dict(
        omega_x=args.omega_x, omega_z=args.omega_z, beta_c=args.beta_c,
        p=args.p, objective="net" if args.net else "gross",
    )
    if args.net:
        meta["t_c"] = params.reset_temperature(args.t_c)
        result = optimize.optimize_povm_net_work(params, drive, t_c=meta["t_c"])
    else:
        result = optimize.optimize_povm_work(params, drive)
    if args.su4_out:
        with open(args.su4_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# joint unitary, row by row: re im of each entry\n")
            fh.writelines(" ".join(f"{v:.17g}" for v in row) + "\n" for row in result.best_point.view(float))
    # the effect of outcome 0, E_0 = Tr_a[(I x rho_a) V^dag (I x P_0) V] of the optimizer's auxiliary rho_a and
    # outcome projector P_0, as E0_I I + E0_x sigma_x + E0_y sigma_y + E0_z sigma_z
    v, aux = result.best_point, optimize._AUX
    joint = v.conj().T @ engine._kron(qmat.ID2, aux.aux_basis.projectors()[0]) @ v
    e0 = qmat._marginals(engine._kron(qmat.ID2, aux.aux_state) @ joint)[0]
    bloch = 0.5 * np.einsum("jab,ba->j", _BLOCH_BASIS, e0).real
    columns = ("best_value", "evaluations", "converged", "E0_I", "E0_x", "E0_y", "E0_z")
    row = (result.best_value, result.evaluations, int(result.converged), *bloch.tolist())
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


def _add_gap_flags(sub, omega_x=3.0) -> None:
    sub.add_argument("--omega-x", type=float, default=omega_x, help="drive-stroke gap")
    sub.add_argument("--omega-z", type=float, default=2.0, help="cold-stroke gap")


def _add_param_flags(sub) -> None:
    _add_gap_flags(sub)
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
    cycle.add_argument("--v0", action="store_true", default=None, help="use the optimal adiabatic dilation unitary")
    cycle.add_argument("--su4-file", help="file with the dilation unitary (as --su4-out writes it) or its 15 generator "
                       "coefficients")
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
    _add_gap_flags(fig4, omega_x=5.0)  # it sweeps the cold temperature, so it takes no --beta-c
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
    opt.add_argument("--su4-out", help="write the optimal joint unitary to this file")
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
