"""Self-test of the benchmark harness.

    python3 mgbench/selftest.py

Runs every workload once at a tiny size, traced, and checks that each
end-to-end and per-layer metric of BENCHMARK.json comes out positive.  Then
shows that each oracle accepts a right answer and rejects a deliberately
wrong one.  Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile

from run import BENCH_DIR, ROOT, single_blas_thread

single_blas_thread()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402
from mgnet import (equivalence_lab, mgnet_model, poisson_mg, tensor_core,  # noqa: E402
                   training)
from mgnet.data_io import LabeledImage  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rejects(errors: list) -> bool:
    return bool(errors)


def check_workloads(workdir: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        tracer = spans.Tracer()
        tracer.install()
        try:
            res = session.run(f"{workload}/tiny", seed=1, seconds=0, workdir=workdir,
                              tracer=tracer)
        finally:
            tracer.uninstall()
        expect(res["correct"], f"{workload}/tiny passes its oracles {res['errors']}")
        unseeded = sum(p.rhs for p in session.scale_named(f"{workload}/tiny").ladder
                       if not p.seeded)
        expect(0 <= res["failed"] <= unseeded and res["attempted"] > res["failed"],
               f"{workload}/tiny: {res['failed']} of {res['attempted']} operations failed, "
               f"all of them fixed-input solves")
        per_layer = spans.per_layer(tracer, res["rounds"], res["extras"])
        for kind, values in (("end_to_end", res["end_to_end"]), ("per_layer", per_layer)):
            bad = [m["name"] for m in spec[kind]
                   if not (m["name"] in values and math.isfinite(values[m["name"]])
                           and values[m["name"]] > 0)]
            expect(not bad, f"{workload}/tiny: every {kind} metric is positive {bad}")


def check_poisson_oracle() -> None:
    e = np.zeros((5, 5))
    e[2, 2] = 1.0
    expect(np.array_equal(oracles.poisson_apply(e)[1:4, 1:4],
                          np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]])),
           "poisson_apply is the 5-point stencil")
    u_star = np.random.default_rng(0).standard_normal((17, 17))
    f = oracles.poisson_apply(u_star)
    res = poisson_mg.solve_poisson(f, 3, [2, 2, 2], rtol=session.RTOL)
    expect(not oracles.check_poisson(f, u_star, res.u, res.converged, session.RTOL),
           "poisson oracle accepts a converged solve")
    wrong = res.u.copy()
    wrong[8, 8] += 1e-6
    expect(rejects(oracles.check_poisson(f, u_star, wrong, True, session.RTOL)),
           "poisson oracle rejects a solution perturbed by 1e-6 at one point")
    expect(rejects(oracles.check_poisson(f, u_star, res.u, False, session.RTOL)),
           "poisson oracle rejects a solve that reports no convergence")


def check_conv_oracle() -> None:
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 9, 8, 3))
    kern = tensor_core.ConvKernel(rng.standard_normal((3, 3, 4, 3)), rng.standard_normal(4))
    for stride in (1, 2):
        out = tensor_core.conv2d(x, kern, stride)
        expect(not oracles.check_conv(out, x, kern.weights, kern.bias, stride),
               f"conv oracle accepts tensor_core.conv2d at stride {stride}")
        wrong = out.copy()
        wrong[0, 0, 0, 0] += 1e-9
        expect(rejects(oracles.check_conv(wrong, x, kern.weights, kern.bias, stride)),
               f"conv oracle rejects a stride-{stride} output off by 1e-9 at one sample")
    flipped = tensor_core.ConvKernel(kern.weights[::-1, ::-1].copy(), kern.bias)
    expect(rejects(oracles.check_conv(tensor_core.conv2d(x, flipped, 1), x, kern.weights,
                                      kern.bias, 1)),
           "conv oracle rejects a kernel applied flipped (correlation vs convolution)")


def check_gradient_oracle() -> None:
    cfg = mgnet_model.MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=1, classes=2)
    rng = np.random.default_rng(2)
    items = [LabeledImage(rng.random((8, 8, 1)), i % 2) for i in range(8)]
    result = training.train(cfg, training.TrainConfig(batch_size=8, epochs=2, seed=0), items)
    images = np.stack([it.image for it in items])
    labels = np.array([it.label for it in items])
    buffers = {k: v.copy() for k, v in result.weights.buffers.items()}
    for sign, ok_expected, what in ((1.0, True, "accepts the backward gradient"),
                                    (-1.0, False, "rejects the sign-flipped gradient"),
                                    (1.001, False, "rejects the gradient scaled by 1.001")):
        errors = session.gradient_check(cfg, result.weights, images, labels, 0, sign)
        expect(not errors if ok_expected else rejects(errors), f"gradient oracle {what}")
    expect(not oracles.check_same_tensors(buffers, result.weights.buffers),
           "gradient oracle leaves the BN running buffers unchanged")


def check_small_oracles() -> None:
    reports = equivalence_lab.verify_all(seed=0)
    expect(not oracles.check_reports(reports), "report oracle accepts verify_all")
    bad = equivalence_lab.EquivalenceReport("dual", 1e-6, 3, 0)
    empty = equivalence_lab.EquivalenceReport("dual", 0.0, 0, 0)
    expect(rejects(oracles.check_reports([bad])), "report oracle rejects a 1e-6 discrepancy")
    expect(rejects(oracles.check_reports([empty])), "report oracle rejects zero instances")

    expect(not oracles.check_initial_loss(math.log(10) + 0.01, 10, 0.05)
           and rejects(oracles.check_initial_loss(math.log(10) + 0.1, 10, 0.05)),
           "initial-loss oracle accepts log(10)+0.01 and rejects log(10)+0.1")

    state = {"a": np.array([1.0, 2.0])}
    nudged = {"a": np.nextafter(state["a"], 3.0)}
    expect(not oracles.check_same_tensors(state, {"a": state["a"].copy()})
           and rejects(oracles.check_same_tensors(state, nudged)),
           "checkpoint oracle rejects a one-ulp change")

    rng = np.random.default_rng(3)
    planes = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    labels = np.array([3, 7], dtype=np.uint8)
    items = [LabeledImage(p.transpose(1, 2, 0) / 255.0, int(l)) for p, l in zip(planes, labels)]
    wrong = planes.copy()
    wrong[1, 2, 5, 5] ^= 1
    expect(not oracles.check_cifar(items, planes, labels)
           and rejects(oracles.check_cifar(items, wrong, labels))
           and rejects(oracles.check_cifar(items, planes, labels[::-1].copy())),
           "CIFAR oracle rejects one flipped bit and swapped labels")


def main() -> int:
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR / "out")
    try:
        check_poisson_oracle()
        check_conv_oracle()
        check_gradient_oracle()
        check_small_oracles()
        check_workloads(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
