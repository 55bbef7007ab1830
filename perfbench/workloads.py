"""The three benchmark workloads: seeded inputs, one op each, and its check.

Each workload is a closed loop with one client.  Ops are grouped in rounds
of ``round_size`` ops; the loop only stops between rounds, so every run has
the same mix of op kinds.  Structural choices (which op uses a mixed
auxiliary, an endpoint drive probability, a pole angle, which parameter
band a search uses) follow the op index; the seed draws every value inside
them.  Runs with different seeds therefore do the same kinds of work on
different inputs.

``run(i)`` is the timed region and calls the program only through its
public functions.  ``prepare(i)`` and ``check(i, result)`` run outside it;
``check`` returns ``None`` or a message saying what was wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import fields

import numpy as np

import qotto
import qotto.cli
from qotto import analytic

LEDGER_TOL = 1e-10
EPS = float(np.finfo(float).eps)
# Reports print 12 significant digits; a printed value is compared with its
# closed form within that rounding plus the cross-route tolerance.
PRINT_REL_TOL = 1e-11


def _close_printed(printed: float, exact: float, tol: float = LEDGER_TOL) -> bool:
    return abs(printed - exact) <= tol + PRINT_REL_TOL * abs(exact)


def _field_tol(name: str, ref) -> float:
    """Cross-route tolerance of one ledger field: LEDGER_TOL, widened for eta where q_h is small.

    eta = w_total / q_h, and w_total and q_h are differences of energies of
    size E, so each carries a rounding of about eps * E on either route.
    Where q_h is tiny (a measurement axis near a pole) the ratio amplifies
    that by 1/q_h: at q_h = 1.4e-6 the routes agree to 4e-16 in w_total and
    q_h and differ by 1.8e-10 in eta.  Where q_h > 0.1 the added term is
    below about 1e-13.
    """
    if name != "eta" or ref.eta is None:
        return LEDGER_TOL
    scale = max(abs(ref.e0), abs(ref.e1), abs(ref.e2), abs(ref.e3))
    return LEDGER_TOL + 8.0 * EPS * scale * (1.0 + abs(ref.eta)) / abs(ref.q_h)


def _fmt12(value: float) -> str:
    return f"{float(value):.12g}"


def _ledger_mismatch(sim, ref) -> str | None:
    for f in fields(sim):
        a, b = getattr(sim, f.name), getattr(ref, f.name)
        if a is None or b is None:
            if a is not b:
                return f"{f.name}: simulated {a} vs analytic {b}"
        elif not abs(a - b) <= _field_tol(f.name, ref):
            return f"{f.name}: simulated {a!r} vs analytic {b!r}"
    return None


def _first_law(rec, label: str) -> str | None:
    if not rec.first_law_residual <= LEDGER_TOL:
        return f"{label} first-law residual {rec.first_law_residual!r}"
    return None


class Cycles:
    """One op: one parameter point through the conventional, pvm and povm cycles."""

    name = "cycles"
    round_size = 1
    POOL = 256

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.points = [self._point(j, rng) for j in range(self.POOL)]

    @staticmethod
    def _point(j: int, rng: np.random.Generator) -> dict:
        omega_z = rng.uniform(1.0, 3.0)
        if j % 16 == 3:
            gamma = 2.0
        elif j % 2 == 0:
            gamma = rng.uniform(1.1, 1.95)
        else:
            gamma = rng.uniform(2.05, 4.0)
        beta_c = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        beta_h = 0.0 if j % 8 == 5 else rng.uniform(0.0, 0.9) * beta_c
        p = {0: 0.5, 1: 1.0}.get(j % 8, rng.uniform(0.5, 1.0))
        theta = {2: 0.0, 3: math.pi}.get(j % 8, rng.uniform(0.0, math.pi))
        params = qotto.EngineParams(omega_z, gamma * omega_z, beta_c, beta_h=beta_h)
        drive = qotto.DriveSpec(p=p, alpha=rng.uniform(0.0, 2.0 * math.pi))
        basis = qotto.MeasurementBasis(theta, rng.uniform(0.0, 2.0 * math.pi))
        point = qotto.Su4Point(rng.uniform(-math.pi, math.pi, size=15))
        aux_basis = qotto.MeasurementBasis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        if j % 4 == 1:  # mixed auxiliary: a pure state blended with I/2
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket /= np.linalg.norm(ket)
            mix = rng.uniform(0.2, 0.9)
            aux_state = mix * np.outer(ket, ket.conj()) + (1.0 - mix) * 0.5 * np.eye(2)
        else:
            aux_state = None
        return dict(params=params, drive=drive, basis=basis, point=point,
                    aux_state=aux_state, aux_basis=aux_basis)

    def label(self, i: int) -> str:
        return "cycle3"

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        x = self.points[i % self.POOL]
        kwargs = {"aux_basis": x["aux_basis"]}
        if x["aux_state"] is not None:
            kwargs["aux_state"] = x["aux_state"]
        povm = qotto.PovmSpec(joint_unitary=qotto.su4_from_point(x["point"]), **kwargs)
        return (
            qotto.run_conventional_cycle(x["params"], x["drive"]),
            qotto.run_pvm_cycle(x["params"], x["drive"], x["basis"]),
            qotto.run_povm_cycle(x["params"], x["drive"], povm),
        )

    def check(self, i: int, result) -> str | None:
        x = self.points[i % self.POOL]
        conv, pvm, povm = result
        ref_conv = analytic.conventional_record(x["params"], x["drive"].p)
        ref_pvm = analytic.pvm_nonadiabatic_record(x["params"], x["drive"], x["basis"])
        for label, sim, ref in (("conventional", conv, ref_conv), ("pvm", pvm, ref_pvm)):
            bad = _ledger_mismatch(sim, ref)
            if bad:
                return f"{label} {bad}"
        for label, rec in (("conventional", conv), ("pvm", pvm), ("povm", povm)):
            bad = _first_law(rec, label)
            if bad:
                return bad
        ceiling = analytic.povm_work_ceiling(x["params"], x["drive"])
        if not povm.w_total <= ceiling + LEDGER_TOL:
            return f"povm w_total {povm.w_total!r} above the ceiling {ceiling!r}"
        return None


def _parse_report(text: str) -> tuple[dict, list[dict]]:
    """Split a csv or text report into its metadata and rows of named fields."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            body.append(line)
    if body and " = " in body[0]:
        rows, row = [], {}
        for line in body:
            key, _, value = line.partition(" = ")
            if key in row:
                rows.append(row)
                row = {}
            row[key] = value
        rows.append(row)
        return meta, rows
    header = body[0].split(",")
    return meta, [dict(zip(header, line.split(","))) for line in body[1:]]


def _num(row: dict, key: str) -> float:
    return float(row[key])


class Sweeps:
    """One op: one in-process ``qotto`` command, checked from its report.

    A round is fig2 (panel a), fig2 (panel b), fig4, table1 and ``cycle``
    with each engine.  Each command has VARIANTS seeded flag sets that
    repeat within a run, so repeated argv can be checked for identical
    bytes.
    """

    name = "sweeps"
    COMMANDS = ("fig2a", "fig2b", "fig4", "table1", "conventional", "pvm", "povm")
    CHECKS = {"fig2a": "_check_fig2", "fig2b": "_check_fig2", "fig4": "_check_fig4",
              "table1": "_check_table1", "conventional": "_check_conventional",
              "pvm": "_check_pvm", "povm": "_check_povm"}
    round_size = len(COMMANDS)
    VARIANTS = 4

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng([seed, 2])
        self.variants = [
            [self._variant(kind, v, rng) for v in range(self.VARIANTS)] for kind in self.COMMANDS
        ]
        self.digests: dict[tuple, str] = {}

    def _gaps(self, v: int, rng) -> tuple[float, float]:
        omega_z = rng.uniform(1.0, 3.0)
        gamma = rng.uniform(1.1, 1.95) if v % 2 == 0 else rng.uniform(2.05, 4.0)
        return omega_z, gamma * omega_z

    def _variant(self, kind: str, v: int, rng) -> dict:
        out = os.path.join(self.workdir, f"{kind}-{v}.out")
        x: dict = {"kind": kind, "out": out}
        if kind in ("fig2a", "fig2b"):
            x["panel"] = kind[-1]
            x["beta_c"] = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            argv = ["fig2", "--panel", x["panel"], "--beta-c", repr(x["beta_c"])]
        elif kind == "fig4":
            x["omega_z"], x["omega_x"] = self._gaps(v, rng)
            x["t_start"] = rng.uniform(0.05, 0.2)
            x["t_stop"] = rng.uniform(2.0, 5.0)
            argv = ["fig4", "--omega-x", repr(x["omega_x"]), "--omega-z", repr(x["omega_z"]),
                    "--t-c-start", repr(x["t_start"]), "--t-c-stop", repr(x["t_stop"])]
        else:
            x["omega_z"], x["omega_x"] = self._gaps(v, rng)
            x["beta_c"] = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
            argv = ["--omega-x", repr(x["omega_x"]), "--omega-z", repr(x["omega_z"]),
                    "--beta-c", repr(x["beta_c"])]
            if kind == "table1":
                x["beta_h"] = rng.uniform(0.0, 0.9) * x["beta_c"]
                argv = ["table1"] + argv + ["--beta-h", repr(x["beta_h"])]
            else:
                x["p"] = {0: 0.5, 1: 1.0}.get(v, rng.uniform(0.5, 1.0))
                argv = ["cycle", "--engine", kind] + argv + ["--p", repr(x["p"])]
                if kind == "conventional":
                    x["beta_h"] = rng.uniform(0.0, 0.9) * x["beta_c"]
                    x["alpha"] = rng.uniform(0.0, 2.0 * math.pi)
                    argv += ["--beta-h", repr(x["beta_h"]), "--alpha", repr(x["alpha"])]
                elif kind == "pvm":
                    x["alpha"] = rng.uniform(0.0, 2.0 * math.pi)
                    x["theta"] = {2: 0.0, 3: math.pi}.get(v, rng.uniform(0.0, math.pi))
                    x["phi"] = rng.uniform(0.0, 2.0 * math.pi)
                    argv += ["--alpha", repr(x["alpha"]), "--theta", repr(x["theta"]),
                             "--phi", repr(x["phi"])]
                else:
                    if v == 0:
                        argv += ["--v0"]
                    else:
                        su4 = os.path.join(self.workdir, f"su4-{v}.txt")
                        k = rng.uniform(-math.pi, math.pi, size=15)
                        with open(su4, "w", encoding="utf-8") as fh:
                            fh.write(" ".join(repr(float(c)) for c in k) + "\n")
                        argv += ["--su4-file", su4]
                    argv += ["--theta", repr(rng.uniform(0.0, math.pi)),
                             "--phi", repr(rng.uniform(0.0, 2.0 * math.pi))]
        x["argv"] = argv + ["--deterministic", "--out", out]
        return x

    def _op(self, i: int) -> dict:
        return self.variants[i % self.round_size][(i // self.round_size) % self.VARIANTS]

    def label(self, i: int) -> str:
        return self.COMMANDS[i % self.round_size]

    def prepare(self, i: int) -> None:
        out = self._op(i)["out"]
        if os.path.exists(out):
            os.remove(out)

    def run(self, i: int):
        return qotto.cli.main(list(self._op(i)["argv"]))

    def check(self, i: int, result) -> str | None:
        x = self._op(i)
        if result != 0:
            return f"exit code {result}"
        with open(x["out"], "rb") as fh:
            data = fh.read()
        key = tuple(x["argv"])
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return "repeated argv gave different bytes"
        meta, rows = _parse_report(data.decode("utf-8"))
        for row in rows:
            if "first_law_residual" in row and not _num(row, "first_law_residual") <= LEDGER_TOL:
                return f"first-law residual {row['first_law_residual']}"
        return getattr(self, self.CHECKS[x["kind"]])(x, meta, rows)

    def _check_fig2(self, x, meta, rows) -> str | None:
        omega_x, omega_z = {"a": (3.0, 2.0), "b": (5.0, 2.0)}[x["panel"]]
        grid = np.linspace(0.5, 1.0, 101)
        if len(rows) != grid.size:
            return f"fig2 has {len(rows)} rows"
        params = qotto.EngineParams(omega_z, omega_x, x["beta_c"])
        for p, row in zip(grid, rows):
            exact = analytic.pvm_optimal(params, float(p)).work
            if row["p"] != _fmt12(p) or not _close_printed(_num(row, "w_pvm_max"), exact):
                return f"fig2 row p={row['p']}: w_pvm_max {row['w_pvm_max']} vs {exact!r}"
            for col, beta_h in (("w_conv_bh02", 0.2), ("w_conv_bh0", 0.0)):
                hot = qotto.EngineParams(omega_z, omega_x, x["beta_c"], beta_h=beta_h)
                ref = analytic.conventional_record(hot, float(p)).w_total
                if not _close_printed(_num(row, col), ref):
                    return f"fig2 row p={row['p']}: {col} {row[col]} vs {ref!r}"
        return None

    def _check_fig4(self, x, meta, rows) -> str | None:
        params = qotto.EngineParams(x["omega_z"], x["omega_x"], 1.0)
        grid = np.linspace(x["t_start"], x["t_stop"], 80)
        if len(rows) != grid.size:
            return f"fig4 has {len(rows)} rows"
        crossing = _fmt12(analytic.reset_crossing_temperature(params))
        if meta.get("crossing_temperature") != crossing:
            return f"fig4 crossing {meta.get('crossing_temperature')} vs {crossing}"
        for t_c, row in zip(grid, rows):
            rec = analytic.aux_cost_record(params, float(t_c))
            if row["w_a_min"] != _fmt12(rec.min_cost) or row["delta_w"] != _fmt12(rec.delta_w):
                return f"fig4 row t_c={row['t_c']}: w_a_min {row['w_a_min']} vs {rec.min_cost!r}"
        return None

    def _check_table1(self, x, meta, rows) -> str | None:
        params = qotto.EngineParams(x["omega_z"], x["omega_x"], x["beta_c"], beta_h=x["beta_h"])
        table = {row["quantity"]: row for row in rows}
        eta0 = _fmt12(1.0 - x["omega_z"] / x["omega_x"])
        if table["efficiency_adiabatic"]["povm"] != eta0:
            return f"table1 efficiency {table['efficiency_adiabatic']['povm']} vs {eta0}"
        ceiling = max(
            analytic.povm_work_ceiling(params, qotto.DriveSpec(p=float(p)))
            for p in np.linspace(0.5, 1.0, 1001)
        )
        na = table["optimal_work_nonadiabatic"]
        if not _close_printed(_num(na, "povm"), ceiling):
            return f"table1 povm non-adiabatic work {na['povm']} vs {ceiling!r}"
        if not _close_printed(_num(na, "pvm"), analytic.pvm_best_p(params).work):
            return f"table1 pvm non-adiabatic work {na['pvm']}"
        if meta.get("hierarchy_conv_le_pvm_lt_povm") != "True":
            return "table1 work hierarchy not reported as holding"
        return None

    def _cycle_ref(self, x):
        params = qotto.EngineParams(x["omega_z"], x["omega_x"], x["beta_c"], beta_h=x.get("beta_h"))
        drive = qotto.DriveSpec(p=x["p"], alpha=x.get("alpha", 0.0))
        return params, drive

    def _check_ledger(self, rows, ref) -> str | None:
        (row,) = rows
        for f in fields(ref):
            exact = getattr(ref, f.name)
            if exact is None:
                if row[f.name] != "":
                    return f"{f.name} printed {row[f.name]} where the closed form has none"
            elif not _close_printed(_num(row, f.name), exact, _field_tol(f.name, ref)):
                return f"{f.name} printed {row[f.name]} vs closed form {exact!r}"
        return None

    def _check_conventional(self, x, meta, rows) -> str | None:
        params, drive = self._cycle_ref(x)
        return self._check_ledger(rows, analytic.conventional_record(params, drive.p))

    def _check_pvm(self, x, meta, rows) -> str | None:
        params, drive = self._cycle_ref(x)
        basis = qotto.MeasurementBasis(x["theta"], x["phi"])
        return self._check_ledger(rows, analytic.pvm_nonadiabatic_record(params, drive, basis))

    def _check_povm(self, x, meta, rows) -> str | None:
        params, drive = self._cycle_ref(x)
        ceiling = analytic.povm_work_ceiling(params, drive)
        (row,) = rows
        if not _num(row, "w_total") <= ceiling + LEDGER_TOL + PRINT_REL_TOL * abs(ceiling):
            return f"povm w_total {row['w_total']} above the ceiling {ceiling!r}"
        return None


class Search:
    """One op: one work search at the default optimizer budgets.

    Each point takes three ops: a fig3 row (the gross, then the net
    dilation search) and a criterion-4 basis search.  A round visits one
    point in each of BANDS, so every round has the same mix; the seed
    places each point inside its band and derives the optimizer seed.

    The first two bands lie around fig3's default beta_c = 1, where the
    default budget reaches the ceiling to ~1e-15: a gross search more than
    GROSS_TOL short of it fails.  The third is cold (beta_c 3 to 5).  There
    the default budget stops up to ~2e-4 short of the ceiling, a known
    optimizer defect, whether or not Nelder-Mead reports success; the check
    there only catches a search that has stopped working (COLD_TOL).  Every
    gap is recorded in ``gaps`` and the benchmark reports it, so the defect
    and its fix show.  A gross search above the ceiling fails in any band.
    """

    name = "search"
    KINDS = ("gross", "net", "basis")
    GROSS_TOL = 1e-8
    COLD_TOL = 1e-2
    # (panel, beta_c range, p range, allowed gross gap below the ceiling)
    BANDS = (
        ("a", (0.5, 1.0), (0.5, 0.75), GROSS_TOL),
        ("b", (1.0, 1.5), (0.75, 1.0), GROSS_TOL),
        ("b", (3.0, 5.0), (0.5, 1.0), COLD_TOL),
    )
    round_size = len(KINDS) * len(BANDS)
    PANELS = {"a": (3.0, 2.0), "b": (5.0, 2.0)}

    def __init__(self, seed: int, workdir: str, digest_file: str | None = None, source_key: str = ""):
        self.seed = seed
        self.source_key = source_key
        self.points: dict[int, dict] = {}
        self.gross: dict[int, float] = {}
        self.gaps: dict[int, float] = {}  # op index -> ceiling minus gross, every gross search
        self.digest_file = digest_file
        self.digests: dict[str, list] = {}
        if digest_file and os.path.exists(digest_file):
            with open(digest_file, encoding="utf-8") as fh:
                self.digests = json.load(fh)

    def _point(self, n: int) -> dict:
        if n not in self.points:
            rng = np.random.default_rng([self.seed, 3, n])
            panel, (b_lo, b_hi), (p_lo, p_hi), gap_tol = self.BANDS[n % len(self.BANDS)]
            omega_x, omega_z = self.PANELS[panel]
            beta_c = float(rng.uniform(b_lo, b_hi))
            self.points[n] = dict(
                params=qotto.EngineParams(omega_z, omega_x, beta_c),
                drive=qotto.DriveSpec(p=float(rng.uniform(p_lo, p_hi))),
                t_c=1.0 / beta_c,
                cfg=qotto.OptimizerConfig(seed=int(rng.integers(2**31))),
                gap_tol=gap_tol,
            )
        return self.points[n]

    def label(self, i: int) -> str:
        return self.KINDS[i % len(self.KINDS)]

    def prepare(self, i: int) -> None:
        self._point(i // len(self.KINDS))

    def run(self, i: int):
        x = self._point(i // len(self.KINDS))
        kind = self.label(i)
        if kind == "gross":
            return qotto.optimize_povm_work(x["params"], x["drive"], x["cfg"])
        if kind == "net":
            return qotto.optimize_povm_net_work(x["params"], x["drive"], t_c=x["t_c"], cfg=x["cfg"])
        return qotto.optimize_pvm_basis(x["params"], x["drive"], x["cfg"], grid_size=256)

    def check(self, i: int, result) -> str | None:
        r = i // len(self.KINDS)
        x = self._point(r)
        kind = self.label(i)
        best = result.best_value
        key = f"{self.source_key}:{self.seed}:{i}"
        digest = [best.hex(), int(result.evaluations)]
        if self.digests.setdefault(key, digest) != digest:
            return f"{kind} search not reproducible: {digest} vs earlier {self.digests[key]}"
        if kind == "gross":
            ceiling = analytic.povm_work_ceiling(x["params"], x["drive"])
            self.gross[r] = best
            self.gaps[i] = ceiling - best
            if not best <= ceiling + LEDGER_TOL:
                return f"gross {best!r} above the ceiling {ceiling!r}"
            if ceiling - best > x["gap_tol"]:
                return f"gross {best!r} more than {x['gap_tol']:g} below the ceiling {ceiling!r}"
        elif kind == "net":
            gross = self.gross.get(r)
            if gross is None:
                return "net search without its gross search"
            cap = x["t_c"] * math.log(2.0)
            if not gross + 1e-9 >= best >= gross - cap - 1e-9:
                return f"net {best!r} outside [gross - t_c ln 2, gross] for gross {gross!r}"
        else:
            exact = analytic.pvm_optimal(x["params"], x["drive"].p).work
            if not abs(best - exact) <= 1e-6:
                return f"basis search {best!r} vs closed form {exact!r}"
        return None

    def save_digests(self) -> None:
        if not self.digest_file:
            return
        tmp = self.digest_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh)
        os.replace(tmp, self.digest_file)


WORKLOADS = {cls.name: cls for cls in (Cycles, Sweeps, Search)}
