"""Span recorder that wraps qotto's public functions from outside the package.

Every wrapped call records one span: name, parent span, start, end and the
op it belongs to.  Spans are held in flat typed arrays (28 bytes each) and
turned into per-layer metrics when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in this single-threaded program, so children never overlap.

The set of traced functions is the table below.  A function a later version
of qotto no longer has is skipped and reports zero, so the metric names stay
fixed.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs traced by name; each is replaced in every qotto
# namespace that binds the same function object.
TRACED = {
    "qmat": (
        "hermitian_eig", "exp_i_hermitian", "von_neumann_entropy",
        "validate_density_matrix", "validate_hermitian", "validate_unitary",
        "as_matrix", "projector",
    ),
    "engine": (
        "run_conventional_cycle", "run_pvm_cycle", "run_povm_cycle",
        "thermal_state", "drive_unitary", "pvm_stroke", "povm_stroke",
    ),
    "analytic": (
        "conventional_record", "pvm_nonadiabatic_record", "pvm_optimal",
        "povm_work_ceiling", "aux_cost_record", "reset_crossing_temperature",
    ),
    "optimize": (
        "optimize_povm_work", "optimize_povm_net_work", "optimize_pvm_basis",
        "su4_from_point",
    ),
    "cli": ("render_report",),
}
NAMESPACES = ("qotto", "qotto.qmat", "qotto.engine", "qotto.analytic", "qotto.optimize", "qotto.cli")
CLI_COMMANDS = ("cycle", "fig2", "fig4", "table1")
OPTIMIZERS = ("optimize_povm_work", "optimize_povm_net_work", "optimize_pvm_basis")
MODULES = ("qmat", "engine", "analytic", "optimize", "cli")


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    Counts and times are per completed op of the traced segment, so they do
    not scale with throughput or run length.
    """
    units = {
        "import.numpy_s": "s",
        "import.scipy_optimize_s": "s",
        "import.qotto_s": "s",
    }
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count/op"
            units[f"{module}.{name}.self_s"] = "s/op"
    units["engine.PovmSpec.init.calls"] = "count/op"
    units["engine.PovmSpec.init.self_s"] = "s/op"
    units["engine.PovmSpec.validate_kraus.calls"] = "count/op"
    units["engine.run_pvm_cycle.p50_us"] = "us"
    units["engine.run_povm_cycle.p50_us"] = "us"
    units["optimize.evaluations"] = "count/op"
    units["optimize.polish_evals"] = "count/op"
    units["optimize.minimize.self_s"] = "s/op"
    units["optimize.objective.self_s"] = "s/op"
    units["optimize.objective.p50_us"] = "us"
    units["optimize.global_s"] = "s/op"
    units["optimize.converged_ratio"] = "ratio"
    units["optimize.net_work_mean"] = "hbar_Omega0"
    units["optimize.gross_gap_max"] = "hbar_Omega0"
    units["cli.main.self_s"] = "s/op"
    for command in CLI_COMMANDS:
        units[f"cli.main.{command}.p50_ms"] = "ms"
    for module in MODULES + ("other",):
        units[f"{module}.self_share"] = "ratio"
    units["host.ref_ops_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Records nested spans around wrapped callables while ``enabled``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.enabled = False
        self.polish_evals = 0
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, fn, new) -> None:
        for ns_name in NAMESPACES:
            ns = sys.modules.get(ns_name)
            if ns is None:
                continue
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._replace(ns, attr, new)

    def install(self) -> None:
        """Wrap every traced function of an already imported qotto."""
        import qotto  # noqa: F401  (the namespaces below must be loaded)
        import qotto.cli  # noqa: F401

        for module, names in TRACED.items():
            mod = sys.modules[f"qotto.{module}"]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    self._replace_everywhere(fn, self.wrap(f"{module}.{name}", fn))

        povm_spec = getattr(sys.modules["qotto.engine"], "PovmSpec", None)
        if povm_spec is not None:
            for attr, name in (("__post_init__", "init"), ("validate_kraus", "validate_kraus")):
                if attr in vars(povm_spec):
                    self._replace(povm_spec, attr, self.wrap(f"engine.PovmSpec.{name}", vars(povm_spec)[attr]))

        cli = sys.modules["qotto.cli"]
        main = getattr(cli, "main", None)
        if main is not None:
            span = self.span

            @functools.wraps(main)
            def traced_main(argv=None):
                command = argv[0] if argv else "none"
                return span(f"cli.main.{command}", main, argv)

            self._replace_everywhere(main, traced_main)

        opt = sys.modules["qotto.optimize"]
        minimize = getattr(opt, "minimize", None)
        if minimize is not None:
            objective_wrap = self.wrap
            tracer = self

            def traced_minimize(fun, x0, *args, **kwargs):
                res = minimize(objective_wrap("optimize.objective", fun), x0, *args, **kwargs)
                if tracer.enabled:
                    tracer.polish_evals += int(res.nfev)
                return res

            self._replace(opt, "minimize", self.wrap("optimize.minimize", traced_minimize))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op calls and self times, medians and module shares of a traced run.

    The benchmark's own spans are named ``op``; their self time is work done
    outside every traced function (numpy, private helpers, glue) and is
    reported as ``other.self_share``.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)
    n_names = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n_names)
    self_sum = np.bincount(a["name"], weights=own, minlength=n_names)
    per_op = 1.0 / max(ops, 1)

    def idx(name):
        return tracer._ids.get(name)

    def count(name):
        i = idx(name)
        return float(calls[i]) if i is not None else 0.0

    def self_s(name):
        i = idx(name)
        return float(self_sum[i]) if i is not None else 0.0

    def p50(name, scale):
        i = idx(name)
        if i is None or calls[i] == 0:
            return 0.0
        return float(np.median(dur[a["name"] == i])) * scale

    m: dict[str, float] = {}
    for module, names in TRACED.items():
        for name in names:
            m[f"{module}.{name}.calls"] = count(f"{module}.{name}") * per_op
            m[f"{module}.{name}.self_s"] = self_s(f"{module}.{name}") * per_op
    m["engine.PovmSpec.init.calls"] = count("engine.PovmSpec.init") * per_op
    m["engine.PovmSpec.init.self_s"] = self_s("engine.PovmSpec.init") * per_op
    m["engine.PovmSpec.validate_kraus.calls"] = count("engine.PovmSpec.validate_kraus") * per_op
    m["engine.run_pvm_cycle.p50_us"] = p50("engine.run_pvm_cycle", 1e6)
    m["engine.run_povm_cycle.p50_us"] = p50("engine.run_povm_cycle", 1e6)
    m["optimize.polish_evals"] = tracer.polish_evals * per_op
    m["optimize.minimize.self_s"] = self_s("optimize.minimize") * per_op
    m["optimize.objective.self_s"] = self_s("optimize.objective") * per_op
    m["optimize.objective.p50_us"] = p50("optimize.objective", 1e6)
    m["optimize.global_s"] = sum(self_s(f"optimize.{name}") for name in OPTIMIZERS) * per_op
    main_names = [n for n in tracer.names if n.startswith("cli.main.")]
    m["cli.main.self_s"] = sum(self_s(n) for n in main_names) * per_op
    for command in CLI_COMMANDS:
        m[f"cli.main.{command}.p50_ms"] = p50(f"cli.main.{command}", 1e3)

    total = float(dur[a["parent"] < 0].sum())
    by_module = dict.fromkeys(MODULES + ("other",), 0.0)
    for i, name in enumerate(tracer.names):
        module = name.split(".", 1)[0]
        by_module[module if module in by_module else "other"] += float(self_sum[i])
    for module, value in by_module.items():
        m[f"{module}.self_share"] = value / total if total > 0.0 else 0.0
    return m
