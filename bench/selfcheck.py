#!/usr/bin/env python3
"""Self-test of the correctness gate: one corrupted output byte fails one operation.

    python3 bench/selfcheck.py

For every workload it runs the CLI once on the default seed and checks that
the gate passes every operation.  It then changes one digit in the output of
one operation (a per-beta file of a sweep, a property line of verify, the
calib report) and checks that the gate counts exactly that operation as
failed.  The digests come from bench/digests.json where they apply to this
platform, otherwise from the clean run itself.  Exits 1 if any check fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import gate
from run import CHILD_TIMEOUT_S, HERE, ROOT, SRC, child_env, remove_work
from workloads import DEFAULT_SEED, WORKLOADS, Sweep


def change_one_digit(data: bytes) -> bytes:
    """Replace the first digit after the midpoint with another digit."""
    i = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    return data[:i] + str((int(chr(data[i])) + 1) % 10).encode() + data[i + 1 :]


def check(wl, work: Path, info: dict) -> list[str]:
    inputs, out = work / "inputs", work / "out"
    wl.prepare(inputs, DEFAULT_SEED)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(work / "marks.json"), wl.first_work, "-", "0",
         "--", *wl.argv(inputs, out)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    expected, note = gate.expected_digests(wl, DEFAULT_SEED, info)
    judge = lambda stdout: gate.judge(wl, proc.returncode, proc.stderr, out, stdout, expected)
    clean = judge(proc.stdout)
    errors = [f"clean run: {name}: {problems}" for name, problems, _ in clean if problems]
    if errors:
        return errors
    if expected is None:
        note = "digests taken from the clean run"
        expected = {name: digest for name, _, digest in clean}

    stdout = proc.stdout
    if isinstance(wl, Sweep):
        target = wl.tags[1]
        path = out / f"reliability_beta_{target}.csv"
        path.write_bytes(change_one_digit(path.read_bytes()))
    elif wl.name == "verify_default":
        lines = stdout.splitlines(keepends=True)
        target = clean[10][0]
        stdout = b"".join(lines[:10] + [change_one_digit(lines[10])] + lines[11:])
    else:
        target = clean[0][0]
        stdout = change_one_digit(stdout)
    failed = [name for name, problems, _ in judge(stdout) if problems]
    print(f"{wl.name}: {len(clean)} operations pass; one changed byte in {target!r} "
          f"-> failed {failed} ({note})")
    return [] if failed == [target] else [f"expected only {target!r} to fail, got {failed}"]


def main() -> int:
    if not (SRC / "gradient_decay" / "cli.py").exists():
        print(f"no gradient_decay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info = gate.platform_info()
    work = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    errors = []
    try:
        for wl in WORKLOADS.values():
            (work / wl.name).mkdir(parents=True)
            errors += [f"{wl.name}: {e}" for e in check(wl, work / wl.name, info)]
    finally:
        remove_work(work)
    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
