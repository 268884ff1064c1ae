"""Correctness gate: invariants on every seed, recorded digests where they apply.

Byte-identical CLI outputs are the oracle.  Digests recorded on one platform
are compared only on a platform with the same fingerprint (numpy, BLAS, BLAS
thread count, CPU features), because a different BLAS kernel or SIMD path may
change the last bits of a float; elsewhere the invariants alone decide.  A
seeded workload is compared only on the seed the digests were recorded with.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# One BLAS thread: valid on any machine, steadier timings on a shared one, and
# the output bytes do not depend on the core count (1 and 2 threads give
# different summary.csv bytes on the MNIST-shaped sweep).
BLAS_THREADS = 1
THREAD_ENV = {
    name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def platform_info() -> dict:
    """Versions and thread settings the timings and digests depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def fingerprint(info: dict) -> str:
    keyed = {k: v for k, v in info.items() if k != "nproc"}
    return hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest()[:16]


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def expected_digests(workload, seed: int, info: dict) -> tuple[dict | None, str]:
    """The recorded digests for this run, or None and the reason they do not apply."""
    if not DIGESTS_PATH.exists():
        return None, "no digests recorded"
    data = json.loads(DIGESTS_PATH.read_text())
    if data["fingerprint"] != fingerprint(info):
        return None, f"digests were recorded on another platform ({data['fingerprint']})"
    if workload.seeded and seed != data["seed"]:
        return None, f"digests are for seed {data['seed']}"
    return data["workloads"][workload.name], "compared with recorded digests"


def judge(workload, exit_code: int, stderr: bytes, out: Path, stdout: bytes,
          expected: dict | None) -> list[tuple[str, list[str], str]]:
    """(operation, problems, digest) for every operation the workload should produce."""
    crash = []
    if exit_code != 0:
        crash.append(f"exit code {exit_code}")
    if b"Traceback (most recent call last)" in stderr:
        crash.append("traceback")
    results = []
    for op in workload.ops(out, stdout):
        problems = op.problems + crash
        digest = sha256(op.payload)
        if expected is not None and expected.get(op.name) != digest:
            problems.append("digest mismatch")
        results.append((op.name, problems, digest))
    for i in range(len(results), workload.n_ops):
        results.append((f"missing{i}", ["no output"] + crash, ""))
    return results


def record(digests: dict, seed: int, info: dict) -> None:
    DIGESTS_PATH.write_text(json.dumps(
        {"fingerprint": fingerprint(info), "platform": info, "seed": seed, "workloads": digests},
        indent=1, sort_keys=True) + "\n")
