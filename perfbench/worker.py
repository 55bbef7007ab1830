"""Workload process: times its own ``import qotto``, runs one workload, writes JSON.

Started by ``run.py`` with the thread pools pinned in its environment.  The
untraced segment gives the end-to-end figures; a ``hostref.HostSampler``
runs during it, so that op times can be given on the nominal host.  With
``--trace 1`` the same op sequence runs again for the same time, without
the sampler and with every traced function wrapped; its spans give the
per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostref  # noqa: E402  (loads nothing qotto imports)

SETUP_S, NOMINAL_SETUP_S = hostref.timed_import("qotto", "qotto.cli")

import qotto  # noqa: E402
import qotto.cli  # noqa: E402

import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REF_ITERATIONS = 20000
SAMPLE_EVERY_S = 0.1


class OptStats:
    """Optimizer outcomes over a segment: evaluations, convergence, net work, ceiling gaps."""

    def __init__(self):
        self.results = 0
        self.evaluations = 0
        self.converged = 0
        self.net_values: list[float] = []
        self.gaps: list[float] = []  # povm_work_ceiling minus each gross search's result

    def add(self, label: str, result, gap: float | None = None) -> None:
        if isinstance(result, qotto.OptResult):
            self.results += 1
            self.evaluations += int(result.evaluations)
            self.converged += bool(result.converged)
            if label == "net":
                self.net_values.append(float(result.best_value))
            if gap is not None:
                self.gaps.append(gap)


def _another_round(i: int, round_size: int, elapsed: float, seconds: float) -> bool:
    # Stop at the round boundary nearest to ``seconds``: with rounds of
    # several seconds (search) this keeps the number of rounds, and so the
    # mix of inputs, the same from run to run.
    rounds = i // round_size
    if rounds == 0:
        return True
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_segment(wl, seconds: float, tracer=None) -> dict:
    """Run whole rounds of ops for about ``seconds`` of wall time."""
    starts: list[float] = []
    ends: list[float] = []
    labels: list[str] = []
    failures: list[str] = []
    raised = 0
    stats = OptStats()
    i = 0
    start = time.perf_counter()
    while i % wl.round_size or _another_round(i, wl.round_size, time.perf_counter() - start, seconds):
        wl.prepare(i)
        label = wl.label(i)
        if tracer is not None:
            tracer.current_op = i
            tracer.enabled = True
        t = time.perf_counter()
        try:
            result = tracer.span("op", wl.run, i) if tracer is not None else wl.run(i)
            error = None
        except Exception:  # an op that raises is a failed op, not a crashed run
            result, error = None, traceback.format_exc(limit=3)
            raised += 1
        t_end = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            error = wl.check(i, result)
            stats.add(label, result, getattr(wl, "gaps", {}).get(i))
        starts.append(t)
        ends.append(t_end)
        labels.append(label)
        if error is not None:
            failures.append(f"op {i} ({label}): {error}")
        i += 1
    return {
        "starts": starts,
        "ends": ends,
        "labels": labels,
        "failures": failures,
        "raised": raised,
        "stats": stats,
    }


def summary(seg: dict, sampler: hostref.HostSampler | None = None) -> dict:
    """Op counts and timings of a segment.

    With a sampler the timings are nominal-host times (see ``hostref``) and
    the wall-clock figures are kept beside them; without one they are wall
    times.
    """
    if sampler is not None:
        wall, lat = sampler.scale(seg["starts"], seg["ends"])
    else:
        wall = lat = np.asarray(seg["ends"]) - np.asarray(seg["starts"])
    failed = len(seg["failures"])
    done = lat.size - seg["raised"]  # an op whose check fails still did its work
    labels = np.asarray(seg["labels"])
    stats = seg["stats"]
    return {
        "attempted": int(lat.size),
        "failed": failed,
        "ops_per_s": done / float(lat.sum()),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "wall_ops_per_s": done / float(wall.sum()),
        "wall_op_p50_ms": float(np.percentile(wall, 50)) * 1e3,
        "kind_p50_ms": {k: float(np.median(lat[labels == k])) * 1e3 for k in dict.fromkeys(seg["labels"])},
        "net_work_mean": float(np.mean(stats.net_values)) if stats.net_values else None,
        "gross_gaps": stats.gaps,
        "gross_short": sum(gap > workloads.Search.GROSS_TOL for gap in stats.gaps),
        "failures": seg["failures"][:10],
    }


def source_key() -> str:
    """Hash of the qotto sources and the workload definitions.

    Stored search digests are keyed by it, so they never outlive a change to
    the program or to the inputs it is given.
    """
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qotto").glob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    ref_start = hostref.reference_speed(REF_ITERATIONS)
    key = source_key()
    workdir = os.path.join(args.outdir, f"work-{args.workload}-{os.getpid()}")
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Search:
        wl = cls(args.seed, workdir, os.path.join(args.outdir, "search-digests.json"), key)
    else:
        wl = cls(args.seed, workdir)
    try:
        with hostref.HostSampler(hostref.NUMPY, SAMPLE_EVERY_S) as sampler:
            untraced = run_segment(wl, args.seconds)
        out = {"untraced": summary(untraced, sampler), "host_sampled_ops_per_s": sampler.median_speed()}
        # read before tracing starts: the traced segment's spans are not a user's cost
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_segment(wl, args.seconds, tracer)
            tracer.uninstall()
            out["traced"] = summary(traced)
            ops = len(traced["starts"])
            layers = tracing.layer_metrics(tracer, ops)
            stats = traced["stats"]
            layers["optimize.evaluations"] = stats.evaluations / ops
            layers["optimize.converged_ratio"] = stats.converged / stats.results if stats.results else 0.0
            layers["optimize.net_work_mean"] = (
                float(np.mean(stats.net_values)) if stats.net_values else 0.0
            )
            layers["optimize.gross_gap_max"] = max(stats.gaps) if stats.gaps else 0.0
            layers["trace.overhead_ratio"] = out["untraced"]["wall_ops_per_s"] / out["traced"]["ops_per_s"]
            out["layers"] = layers
            tracer.save(os.path.join(args.outdir, f"trace-{args.workload}.npz"))
    finally:
        if isinstance(wl, workloads.Search):
            wl.save_digests()
        shutil.rmtree(workdir, ignore_errors=True)
    ref_end = hostref.reference_speed(REF_ITERATIONS)
    out.update(
        wall_setup_s=SETUP_S,
        setup_s=NOMINAL_SETUP_S,
        host_ref_ops_per_s=[ref_start, ref_end],
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        source_key=key,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
