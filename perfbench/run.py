"""qotto benchmark: one workload, one seed, every metric by name with its unit.

    python3 perfbench/run.py --workload {cycles,sweeps,search} --seed N --seconds S --trace {0,1}

Run from the repository root.  Set-up time is the median over several fresh
interpreters that each import ``qotto`` and ``qotto.cli``, half of them
started before the workload and half after it, so that a slow spell of the
host early or late in the run does not decide it.  The workload runs in one
more fresh process with the BLAS and OpenMP pools pinned to one thread.
Reported times are scaled to a nominal host by a reference loop sampled
while they run (see ``hostref.py``); the wall-clock figures are printed
beside them.  ``--trace 0`` reports the end-to-end metrics of an untraced
run; ``--trace 1`` reports the per-layer metrics of a traced run (see
``tracer.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run is also
appended, with its environment record, to ``perfbench/out/runs.jsonl``.
The process exits non-zero, printing no result, when qotto's sources are
missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 4
PROBE_MARKERS = ("-- perfbench import probe --", "-- perfbench import probe end --")  # as in importprobe.py
IMPORT_PROBES = 3
DEADLINE_S = 170.0
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# op_p90_ms is printed, not reported: a search run has nine ops, too few for
# a 90th percentile, and every reported metric must exist on every workload.
P90_MIN_OPS = 100
WORKLOADS = ("cycles", "sweeps", "search")


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def probe_setup(env: dict, deadline: float) -> tuple[float, float]:
    """(wall, nominal-host) time of one fresh ``import qotto, qotto.cli``."""
    proc = _run([sys.executable, str(HERE / "importprobe.py")], env, deadline)
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["setup_s"], probe["nominal_setup_s"]


def import_breakdown(env: dict, deadline: float) -> dict[str, float]:
    """Split one fresh ``import qotto, qotto.cli`` into numpy, scipy and qotto's own part.

    Each import the qotto modules trigger directly is charged, with everything
    it imports in turn, to its top-level package; qotto's share is the rest.
    """
    proc = _run([sys.executable, "-X", "importtime", str(HERE / "importprobe.py")], env, deadline)
    log = proc.stderr.split(PROBE_MARKERS[0] + "\n", 1)[1].split(PROBE_MARKERS[1], 1)[0]
    waiting: dict[int, list] = {}  # level -> finished imports whose importer is still open
    for line in log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = {"name": name.strip(), "cum": int(cum) * 1e-6, "children": waiting.pop(level + 1, [])}
        waiting.setdefault(level, []).append(node)
    roots = waiting.get(0, [])
    charged = {"numpy": 0.0, "scipy": 0.0}

    def charge(node):
        if node["name"].split(".")[0] == "qotto":
            for child in node["children"]:
                charge(child)
        else:
            top = node["name"].split(".")[0]
            charged[top] = charged.get(top, 0.0) + node["cum"]

    for root in roots:
        charge(root)
    total = sum(root["cum"] for root in roots)
    return {
        "import.numpy_s": charged["numpy"],
        "import.scipy_optimize_s": charged["scipy"],
        "import.qotto_s": total - charged["numpy"] - charged["scipy"],
    }


def git_commit() -> str:
    """The checked-out commit; 'none' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qotto benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qotto" / "__init__.py").is_file():
        print(f"error: no qotto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = pinned_env()
    try:
        probe_setup(env, deadline)  # fills the bytecode cache; users do not pay that each start
        setups = [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]
        breakdowns = [import_breakdown(env, deadline) for _ in range(IMPORT_PROBES if args.trace else 0)]
        result_path = OUT / f"result-{os.getpid()}.json"
        _run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--outdir", str(OUT), "--result", str(result_path)],
            env, deadline,
        )
        result = json.loads(result_path.read_text())
        result_path.unlink()
        setups += [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append((result["wall_setup_s"], result["setup_s"]))
    untraced = result["untraced"]
    ref = result["host_ref_ops_per_s"]
    e2e = {
        "setup_s": statistics.median(nominal for _, nominal in setups),
        "ops_per_s": untraced["ops_per_s"],
        "op_p50_ms": untraced["op_p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    segments = [untraced] + ([result["traced"]] if args.trace else [])
    attempted = sum(s["attempted"] for s in segments)
    failed = sum(s["failed"] for s in segments)
    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **result["versions"], "thread_pins": THREAD_PINS,
        "commit": git_commit(), "source_key": result["source_key"],
        "loadavg": os.getloadavg(), "host_ref_ops_per_s": ref,
        "host_sampled_ops_per_s": result["host_sampled_ops_per_s"],
    }
    wall = {
        "setup_s": statistics.median(w for w, _ in setups),
        "ops_per_s": untraced["wall_ops_per_s"],
        "op_p50_ms": untraced["wall_op_p50_ms"],
    }

    print(f"qotto benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env_record))
    print(f"end-to-end, untraced ({untraced['attempted']} ops; times on the nominal host, "
          f"wall clock in brackets):")
    for name, unit in END_TO_END.items():
        on_wall = f" ({wall[name]:.6g} {unit} wall)" if name in wall else ""
        print(f"  {name:<14} {e2e[name]:.6g} {unit}{on_wall}")
    if untraced["attempted"] >= P90_MIN_OPS:
        print(f"  {'op_p90_ms':<14} {untraced['op_p90_ms']:.6g} ms ({untraced['attempted']} ops)")
    print(f"  {'failed_ratio':<14} {untraced['failed'] / untraced['attempted']:.6g} "
          f"({untraced['failed']}/{untraced['attempted']})")
    if untraced["net_work_mean"] is not None:
        print(f"  {'net_work_mean':<14} {untraced['net_work_mean']!r} hbar_Omega0")
    if untraced["gross_gaps"]:
        # The cold-band gross search stops short of the ceiling at the default
        # budget, a known optimizer defect; its check allows that, so report it.
        print(f"  {'gross_gap_max':<14} {max(untraced['gross_gaps']):.6g} hbar_Omega0 below "
              f"povm_work_ceiling; {untraced['gross_short']} of {len(untraced['gross_gaps'])} "
              f"gross searches more than 1e-8 short")
    print("  p50 by op kind: " + ", ".join(f"{k}={v:.4g} ms" for k, v in untraced["kind_p50_ms"].items()))
    for seg in segments:
        for line in seg["failures"]:
            print("  FAILED " + line.replace("\n", "\n    "))

    if args.trace:
        layers = dict(result["layers"])
        for name in ("import.numpy_s", "import.scipy_optimize_s", "import.qotto_s"):
            layers[name] = statistics.median(b[name] for b in breakdowns)
        layers["host.ref_ops_per_s"] = statistics.mean(ref)
        units = tracer.per_layer_metric_units()
        print(f"per-layer, traced ({result['traced']['attempted']} ops; counts and times per op):")
        for name, unit in units.items():
            print(f"  {name:<44} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env_record, "failed": failed, "attempted": attempted,
                             "metrics": {k: v["value"] for k, v in metrics.items()}, "wall": wall,
                             "untraced": {k: untraced[k] for k in (
                                 "op_p90_ms", "net_work_mean", "gross_gaps", "kind_p50_ms", "failures")}}) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
