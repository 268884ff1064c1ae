#!/usr/bin/env python3
"""Benchmark of the gradient-decay CLI: one workload, a fixed measuring time.

    python3 bench/run.py --workload sweep_mnist --seed 0 --seconds 30 --trace 0

Run it from the repository root.  It generates the workload's inputs from
--seed, then starts fresh CLI processes one after another (a closed loop, one
client) until --seconds have passed, checking every output.  With --trace 0
it reports the end-to-end metrics of BENCHMARK.json as medians over the
processes.  With --trace 1 it alternates untraced and traced processes and
reports the per-layer metrics from the traced ones.  A table of every metric
with its unit comes first; the last line is one JSON object.

    python3 bench/run.py --record-digests

runs each workload once on the default seed and stores the digests of its
outputs in bench/digests.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import gate

os.environ.update(gate.THREAD_ENV)  # before numpy loads BLAS, here and in every child

import numpy as np  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120
MIN_PROCESSES = 3  # per kind (untraced, traced), even when --seconds is shorter

# On a shared host the speed of one CPU drifts: fresh-process wall times moved
# by up to 1.7x over a minute on a 2-vCPU VM, and a 30 s run's median by up to
# 32% between seeds.  A fixed reference loop timed on the same CPU just before
# and after each process follows that drift (ten-seed spreads fell to 3-10%),
# so reported times are scaled to the speed at which the loop takes
# REFERENCE_S.  The loop runs no program code, so no program change moves it.
REFERENCE_S = 0.030
_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter work and small numpy operations."""
    start = spans.clock()
    total = 0
    for i in range(400_000):
        total += i * i
    for _ in range(400):
        np.maximum(_REFERENCE_MATRIX @ _REFERENCE_MATRIX + 1.0, 0.0).sum()
    return spans.clock() - start


@dataclass
class Proc:
    """One CLI process: its timings, its checked operations, its trace.

    Times are as measured; ``speed`` (REFERENCE_S over the reference loop's
    time around the process) scales them to the reference speed.
    """

    wall_s: float
    setup_s: float
    speed: float
    rss_mb: float
    items: int
    output_bytes: int
    ops: list
    layers: dict | None

    def scaled(self, attr: str) -> float:
        return getattr(self, attr) * self.speed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(wl, inputs: Path, work: Path, index: int, traced: bool, expected) -> Proc:
    out = work / f"out{index}"
    marks = work / f"marks{index}.json"
    trace = work / f"trace{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(marks), wl.first_work,
           str(trace) if traced else "-", str(index), "--", *wl.argv(inputs, out)]
    reference = reference_seconds()
    with open(work / "stdout", "wb") as so, open(work / "stderr", "wb") as se:
        start = spans.clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 gives this child's own peak RSS
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = spans.clock()
    reference = (reference + reference_seconds()) / 2
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = (work / "stdout").read_bytes(), (work / "stderr").read_bytes()
    ops = gate.judge(wl, proc.returncode, stderr, out, stdout, expected)
    if any(problems for _, problems, _ in ops):
        sys.stderr.write(stderr.decode(errors="replace")[-2000:])
    first_work = json.loads(marks.read_text()).get("first_work") if marks.exists() else None
    setup_s = first_work - start if first_work is not None else math.nan
    output_bytes = len(stdout) + sum(f.stat().st_size for f in out.glob("*")) if out.exists() else len(stdout)
    layers = spans.layer_metrics(json.loads(trace.read_text())) if traced and trace.exists() else None
    shutil.rmtree(out, ignore_errors=True)
    for f in (marks, trace):
        f.unlink(missing_ok=True)
    return Proc(end - start, setup_s, REFERENCE_S / reference, usage.ru_maxrss / 1024.0,
                wl.items(), output_bytes, ops, layers)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run is still using it
        pass


def warm_up() -> None:
    """Compile the package's bytecode and load numpy once, outside the timing."""
    subprocess.run([sys.executable, "-c", "import gradient_decay.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)


def measure(wl, inputs: Path, work: Path, seconds: float, traced_run: bool, expected):
    plain: list[Proc] = []
    traced: list[Proc] = []
    start = spans.clock()
    index = 0
    while True:
        use_trace = traced_run and index % 2 == 1
        p = run_process(wl, inputs, work, index, use_trace, expected)
        (traced if use_trace else plain).append(p)
        index += 1
        enough = len(plain) >= MIN_PROCESSES and (not traced_run or len(traced) >= MIN_PROCESSES)
        if enough and spans.clock() - start + p.wall_s > seconds:
            return plain, traced


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten runs beyond it, if there is one."""
    n = len(values)
    if n < 11:
        return f"max {max(values):.4f} of {n} runs (no percentile has 10 runs beyond it)"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} of {n} runs"


def end_to_end(plain: list[Proc]) -> dict[str, float]:
    """Medians over the untraced processes, times scaled to the reference speed."""
    med = statistics.median
    return {
        "wall_s": med(p.scaled("wall_s") for p in plain),
        "setup_s": med(p.scaled("setup_s") for p in plain),
        "items_per_s": med(p.items / (p.scaled("wall_s") - p.scaled("setup_s")) for p in plain),
        "peak_rss_mb": med(p.rss_mb for p in plain),
    }


def per_layer(plain: list[Proc], traced: list[Proc]) -> dict[str, float]:
    """Medians over the traced processes; layer times are as measured."""
    layers = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
    layers["cli.output_bytes"] = statistics.median(p.output_bytes for p in traced)
    layers["bench.trace_overhead_s"] = (statistics.median(p.scaled("wall_s") for p in traced)
                                        - statistics.median(p.scaled("wall_s") for p in plain))
    return layers


def run(args) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    info = gate.platform_info()
    expected, digest_note = gate.expected_digests(wl, args.seed, info)
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        inputs = work / "inputs"
        wl.prepare(inputs, args.seed)
        warm_up()
        plain, traced = measure(wl, inputs, work, args.seconds, args.trace == 1, expected)
    finally:
        remove_work(work)

    ops = [op for p in plain + traced for op in p.ops]
    failed = [(name, problems) for name, problems, _ in ops if problems]
    # a traced process writes its trace on every exit but a kill, which also fails its operations
    traced = [p for p in traced if p.layers is not None]
    if args.trace and not traced:
        raise SystemExit("no traced process wrote a trace")
    e2e = end_to_end(plain)
    values = per_layer(plain, traced) if args.trace else e2e
    declared = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                         "differ from BENCHMARK.json")

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("platform: " + ", ".join(f"{k} {v}" for k, v in info.items() if k != "cpu_features"))
    print(f"processes: {len(plain)} untraced, {len(traced)} traced")
    print(f"correctness: {len(ops)} operations, {len(failed)} failed "
          f"(error_rate {len(failed) / len(ops):.4g}); {digest_note}")
    for name, problems in failed[:20]:
        print(f"  FAILED {name}: {'; '.join(problems)}")
    print(f"  {'wall_s tail':<44} {tail([p.scaled('wall_s') for p in plain])}")
    print(f"  {'wall_s per process, as measured':<44} {' '.join(f'{p.wall_s:.3f}' for p in plain)}")
    print(f"  {'speed per process (reference / loop)':<44} {' '.join(f'{p.speed:.3f}' for p in plain)}")
    shown = dict(e2e, **values)
    for name, value in shown.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if args.trace:
        print("  (mlp.train.gflop is computed from the layer shapes, not counted)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


def record_digests() -> int:
    info = gate.platform_info()
    digests = {}
    work = ROOT / ".bench_work" / f"record-{os.getpid()}"
    try:
        for wl in WORKLOADS.values():
            wdir = work / wl.name
            wdir.mkdir(parents=True)
            wl.prepare(wdir / "inputs", DEFAULT_SEED)
            p = run_process(wl, wdir / "inputs", wdir, 0, False, None)
            bad = [(name, problems) for name, problems, _ in p.ops if problems]
            if bad:
                raise SystemExit(f"{wl.name}: not recording, invariants fail: {bad}")
            digests[wl.name] = {name: digest for name, _, digest in p.ops}
    finally:
        remove_work(work)
    gate.record(digests, DEFAULT_SEED, info)
    print(f"recorded {sum(map(len, digests.values()))} digests in {gate.DIGESTS_PATH}")
    return 0


def main() -> int:
    # SIGTERM unwinds like an exception, so children are killed and reaped and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process, its reference loop and every child it starts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gradient_decay" / "cli.py").exists():
        print(f"no gradient_decay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
