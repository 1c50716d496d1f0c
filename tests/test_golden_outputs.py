"""Byte-for-byte pins on what the CLI writes.

A change that only deletes or restructures code must leave these files
unchanged.  The SHA-256 digests below were recorded before such a change
and are compared after it.  Floating-point results depend on numpy's
kernels, so the test runs only on the numpy version the digests were
recorded with.  Each command runs in its own process with BLAS pinned to
one thread: the dense direct solve behind `solve-poisson`'s
``relative_error_vs_direct`` rounds differently at two threads.
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
}

DIGESTS = {
    "solve-33-L4": {
        "out.json":
            "1419655407fca38c555627f62e4e7c1c9d2d962416c34fc93cad74da88da5e87",
    },
    "solve-65-L5": {
        "out.json":
            "ae5211ffd381e9803df6bd7e021128448186221f1dfcdfe299c97ff5719753df",
    },
    "solve-65-L6": {
        "out.json":
            "029430178fd60751f7d0ccd3db550245278b07b77f6ee312ae6e3245962d8c52",
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
