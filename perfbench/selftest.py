"""Self-test of the benchmark itself (about 20 s):

    python3 perfbench/selftest.py

- every workload runs a few ops with zero failed;
- a deliberately corrupted result of each workload is counted as failed;
- a search op repeated from the same seed matches bit for bit;
- a cold-band gross search short of the ceiling by the known default-budget
  gap is recorded, not failed;
- the host sampler takes its slices out of op times and scales by the
  speed measured during or around each op;
- the tracer computes self time as duration minus child spans, wraps every
  namespace that binds a function and restores them all afterwards;
- the metric names and units agree with BENCHMARK.json;
- the import breakdown adds up to a whole import;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import worker  # first: puts the qotto sources on sys.path and imports qotto

import hostref  # noqa: E402
import qotto  # noqa: E402
import qotto.qmat  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "out" / "selftest"


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def one_segment(wl, seconds: float = 0.0) -> dict:
    seg = worker.run_segment(wl, seconds)
    expect(not seg["failures"], f"{wl.name}: {seg['failures'][:3]}")
    return seg


def test_cycles() -> None:
    wl = workloads.Cycles(7, str(WORKDIR))
    seg = one_segment(wl, 0.3)
    expect(len(seg["starts"]) >= workloads.Cycles.POOL // 4, "cycles ran too few ops")
    conv, pvm, povm = wl.run(0)
    bad = dataclasses.replace(conv, e0=conv.e0 + 1e-9)
    expect(wl.check(0, (bad, pvm, povm)) is not None, "cycles missed a ledger field off by 1e-9")
    over = dataclasses.replace(povm, w_total=10.0)
    expect(wl.check(0, (conv, pvm, over)) is not None, "cycles missed work above the ceiling")
    for i in range(wl.POOL):
        conv, pvm, povm = wl.run(i)
        if pvm.eta is not None and pvm.q_h > 0.1:
            break
    off = dataclasses.replace(pvm, eta=pvm.eta + 1e-9)
    expect(wl.check(i, (conv, off, povm)) is not None, "cycles missed an eta off by 1e-9 where q_h > 0.1")


def _bump(value: str) -> str:
    try:
        return repr(float(value) * (1.0 + 1e-6) + 1e-6)
    except ValueError:
        return value


def corrupt_report(text: str) -> str:
    """Move every number in a report's rows by about 1e-6; keep metadata and header."""
    out, header = [], False
    for line in text.splitlines():
        if line.startswith("#") or not line:
            out.append(line)
        elif " = " in line:
            key, _, value = line.partition(" = ")
            out.append(f"{key} = {_bump(value)}")
        elif not header:
            header = True
            out.append(line)
        else:
            out.append(",".join(_bump(v) for v in line.split(",")))
    return "\n".join(out) + "\n"


def test_sweeps() -> None:
    wl = workloads.Sweeps(7, str(WORKDIR / "sweeps"))
    one_segment(wl)
    expect(wl.check(0, 2) is not None, "sweeps missed a non-zero exit code")
    for i in range(wl.round_size):
        wl.prepare(i)
        expect(wl.run(i) == 0, f"sweeps op {i} failed")
        path = Path(wl._op(i)["out"])
        path.write_text(corrupt_report(path.read_text()))
        expect(wl.check(i, 0) is not None, f"sweeps op {i}: changed bytes not caught")
        wl.digests.clear()
        expect(wl.check(i, 0) is not None, f"sweeps op {i}: corrupted values not caught")


def test_search() -> None:
    wl = workloads.Search(7, str(WORKDIR))
    results = []
    for i in range(len(wl.KINDS)):
        wl.prepare(i)
        results.append(wl.run(i))
        expect(wl.check(i, results[i]) is None, f"search op {i} failed")
    again = workloads.Search(7, str(WORKDIR))
    again.digests = dict(wl.digests)
    again.prepare(0)
    expect(again.check(0, again.run(0)) is None, "search op 0 not reproducible from its seed")
    recount = dataclasses.replace(results[0], evaluations=results[0].evaluations + 1)
    expect(wl.check(0, recount) is not None, "search missed a changed evaluation count")
    gross = results[0].best_value
    # gross above the ceiling, net above gross, basis off the closed form
    for i, value in enumerate((gross + 1e-5, gross + 1e-6, results[2].best_value + 1e-5)):
        wl.digests.clear()
        expect(wl.check(i, dataclasses.replace(results[i], best_value=value)) is not None,
               f"search op {i}: corrupted best value not caught")
        wl.gross[0] = gross
    wl.digests.clear()
    short = dataclasses.replace(results[0], best_value=gross - 1e-7)
    expect(wl.check(0, short) is not None, "search missed a gross result 1e-7 short of the ceiling")
    # cold band (op 6): short by the known default-budget gap is reported, not
    # failed; a search that has stopped working, or one above the ceiling, fails
    cold = wl._point(6 // len(wl.KINDS))
    ceiling = qotto.analytic.povm_work_ceiling(cold["params"], cold["drive"])
    for gap, fails in ((1e-5, False), (2e-2, True), (-1e-6, True)):
        wl.digests.clear()
        bad = wl.check(6, dataclasses.replace(results[0], best_value=ceiling - gap))
        expect((bad is not None) == fails, f"cold gross {gap:g} below the ceiling: {bad}")
        if not fails:
            expect(abs(wl.gaps[6] - gap) < 1e-9, "cold shortfall not recorded")


def test_tracer() -> None:
    original = qotto.qmat.hermitian_eig
    tr = tracing.Tracer()
    tr.install()
    try:
        expect(qotto.qmat.hermitian_eig is not original, "hermitian_eig not wrapped")
        expect(qotto.engine.qmat.hermitian_eig is qotto.qmat.hermitian_eig, "namespaces disagree")
        expect(qotto.run_pvm_cycle is qotto.engine.run_pvm_cycle, "qotto namespace not rewrapped")
        tr.enabled = True

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        def child():
            busy(0.01)

        def parent():
            busy(0.01)
            tr.span("child", child)
            tr.span("child", child)

        tr.span("parent", parent)
        tr.enabled = False
    finally:
        tr.uninstall()
    expect(qotto.qmat.hermitian_eig is original, "uninstall left a wrapper behind")
    a = tr.arrays()
    own = tracing.self_times(a["parent"], a["end"] - a["start"])
    top = int(a["parent"].tolist().index(-1))
    expect(abs(own[top] - 0.01) < 0.005, f"parent self time {own[top]} not about 10 ms")
    expect(a["parent"].tolist().count(top) == 2, "child spans lost their parent")


def test_host_sampler() -> None:
    nominal = hostref.NUMPY.nominal
    s = hostref.HostSampler(hostref.NUMPY, 0.1)
    # slices at 1.0-1.1 s and 3.0-3.1 s, at half and twice the nominal speed
    s.starts, s.ends, s.speeds = [1.0, 3.0], [1.1, 3.1], [0.5 * nominal, 2.0 * nominal]
    wall, scaled = s.scale([0.5, 2.0], [1.5, 2.5])
    # op 0 holds slice 0: its time leaves out the slice; op 1 lies between the slices
    expect(abs(wall[0] - 0.9) < 1e-12 and abs(scaled[0] - 0.45) < 1e-12, f"op 0: {wall[0]}, {scaled[0]}")
    expect(abs(wall[1] - 0.5) < 1e-12 and abs(scaled[1] - 0.625) < 1e-12, f"op 1: {wall[1]}, {scaled[1]}")
    with hostref.HostSampler(hostref.NUMPY, 0.05) as live:
        t = time.perf_counter()
        end = t + 0.45
        while time.perf_counter() < end:
            pass
        t_end = time.perf_counter()
    expect(len(live.speeds) >= 6, f"sampler took {len(live.speeds)} slices in 0.45 s")
    wall, _ = live.scale([t], [t_end])
    expect(wall[0] < t_end - t, "slices not taken out of the op time")


def test_metric_names() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(e2e == run.END_TO_END, f"end-to-end metrics differ: {e2e} vs {run.END_TO_END}")
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(layers == tracing.per_layer_metric_units(), "per-layer metrics differ from tracer.py")


def test_import_breakdown() -> None:
    env = run.pinned_env()
    deadline = time.monotonic() + 60
    parts = run.import_breakdown(env, deadline)
    expect(all(v > 0.0 for v in parts.values()), f"empty import share: {parts}")
    total = sum(parts.values())
    expect(0.1 < total < 10.0, f"import total {total} s")


def test_bare_directory() -> None:
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "run.py succeeded without the qotto sources")
    expect('"correct"' not in proc.stdout, "run.py printed a result without the qotto sources")


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        for test in (test_metric_names, test_host_sampler, test_tracer, test_cycles, test_sweeps, test_search,
                     test_import_breakdown, test_bare_directory):
            t = time.perf_counter()
            test()
            print(f"ok {test.__name__} ({time.perf_counter() - t:.1f} s)", flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
