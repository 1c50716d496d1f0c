"""Byte-for-byte pins on what the CLI writes.

A change that only deletes or restructures code must leave these files
unchanged.  The SHA-256 digests below were recorded before such a change
and are compared after it.  Floating-point results depend on numpy's
kernels, so the test runs only on the numpy version the digests were
recorded with.  Each command runs in its own process with BLAS pinned to
one thread: at 129x129 the BLAS dot inside `np.linalg.norm` rounds
`solve-poisson`'s ``residual_history`` differently at two threads, and the
dense inverse of a 17x17 coarsest grid (65x65 at 3 levels) rounds the
whole solve differently.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgnet

# recorded with numpy 2.4.6 (OpenBLAS 0.3.31)
NUMPY_VERSION = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}, running numpy {np.__version__}")

RUNS = {
    "train": ["train", "--epochs", "2", "--seed", "0"],
    "verify": ["verify", "--theorem", "all", "--seed", "0"],
    "solve-33-L4": ["solve-poisson", "--size", "33", "--levels", "4"],
    "solve-65-L5": ["solve-poisson", "--size", "65", "--levels", "5"],
    "solve-65-L6": ["solve-poisson", "--size", "65", "--levels", "6"],
    "solve-129-L5": ["solve-poisson", "--size", "129", "--levels", "5"],
}

DIGESTS = {
    "solve-33-L4": {
        "out.json":
            "339f374aa7e6fbdfc669970845c5e61fb636715ce1d003ba409ebc727eeb5158",
    },
    "solve-65-L5": {
        "out.json":
            "07294ebb0d10f6b8176060063e481156b0bcab94201fa2983feda488cc3a9ce5",
    },
    "solve-65-L6": {
        "out.json":
            "b607bf6c39ff8d4d3f87c80a3f4de0db74acf762348d74e8a8500ba03bd7f233",
    },
    "solve-129-L5": {
        "out.json":
            "46c71c4ea70b23652d7d211b79a222a810ebe33f47cbab14dea4f6e9d8aeefc7",
    },
    "train": {
        "config.json":
            "1c1739a92da2f2016254a356da75e664adfdcb7391e999449592af7ef1746d4e",
        "metrics.ndjson":
            "8e539a8c4dc621c3f508db77de930692cdb8e6c8ca4fd8aa10f00ab2554eeb50",
        "checkpoint.mgnet":
            "a2c5966e7d2efa8bd4c6f91fccd3a1039cc7526d694ae81c5139452c65f51dcb",
        "summary.json":
            "1cadde0f7c95d7aa16e5841d2c3d4f1b731f095e77b46bc851c4296d33c0dbb9",
    },
    "verify": {
        "out.json":
            "5eabb2f4efb11d2d208f01858de121322fb0cae6888f00bb8a94ca4b0e714f6b",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(Path(mgnet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "mgnet.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def output_digests(run: str, tmp_path) -> dict:
    """Run one CLI command into `tmp_path`; digest of every file it writes.

    The checkpoint path stored in the train summary names the temporary
    directory, so it is dropped before that file is digested.
    """
    argv = RUNS[run]
    if run == "train":
        out = tmp_path / "run"
        _run_cli(argv + ["--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        del summary["checkpoint"]
        return {"config.json": _sha256((out / "config.json").read_bytes()),
                "metrics.ndjson": _sha256((out / "metrics.ndjson").read_bytes()),
                "checkpoint.mgnet": _sha256((out / "checkpoint.mgnet").read_bytes()),
                "summary.json": _sha256(json.dumps(summary, indent=2).encode())}
    out = tmp_path / "out.json"
    _run_cli(argv + ["--out", str(out)])
    return {"out.json": _sha256(out.read_bytes())}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_recorded_digests(run, tmp_path):
    assert output_digests(run, tmp_path) == DIGESTS[run]
