"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import time

import numpy as np

from mgnet.classic_models import resnet_param_count
from mgnet.cli import table_preset
from mgnet.data_io import gen_synthetic, load_cifar10, save_checkpoint, load_checkpoint
from mgnet.equivalence_lab import verify_all
from mgnet.grid_transfer import RESTRICT_LINEAR, prolongation_matrix
from mgnet.mgnet_model import MgNetConfig, count_params, init_weights, mgnet_forward
from mgnet.poisson_mg import PoissonHierarchy, smooth, solve_poisson
from mgnet.training import TrainConfig, evaluate, finite_diff_check, train

from conftest import restriction_matrix


def verdict(number, passed, detail):
    line = f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_equivalence_suite_across_seeds():
    start = time.time()
    worst = {}
    for seed in range(20):
        for report in verify_all(seed=seed):
            worst[report.theorem_id] = max(worst.get(report.theorem_id, 0.0),
                                           report.max_abs_discrepancy)
    elapsed = time.time() - start
    ok = all(v < 1e-9 for v in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
    verdict(1, ok, f"20 seeds, max discrepancies {detail}, {elapsed:.1f}s")


def test_criterion_2_multigrid_solver_convergence():
    start = time.time()
    results = []
    for size, levels in ((17, 3), (33, 4)):
        hierarchy = PoissonHierarchy(size, size, levels)
        f = np.random.default_rng(size).standard_normal((size, size))
        solved = solve_poisson(f, levels, [2] * levels, omega=0.8, cycles=50,
                               rtol=1e-12, hierarchy=hierarchy)
        reference = hierarchy.direct_solve(f)
        rel = float(np.linalg.norm(solved.u - reference) / np.linalg.norm(reference))
        monotone = all(b < a for a, b in zip(solved.residual_norms,
                                             solved.residual_norms[1:]))
        results.append((size, solved.cycles, rel, monotone))
    elapsed = time.time() - start
    ok = (elapsed < 10.0
          and all(cycles <= 50 and rel < 1e-8 and mono
                  for _, cycles, rel, mono in results))
    detail = "; ".join(f"{s}x{s}: {c} cycles, rel {r:.1e}, monotone={m}"
                       for s, c, r, m in results)
    verdict(2, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_3_kernel_exactness():
    kernel_ok = np.array_equal(
        RESTRICT_LINEAR, np.array([[0.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 0.0]]))
    transpose_ok = True
    for coarse in (3, 5):  # fine grids 5x5 and 9x9
        p = prolongation_matrix(coarse, coarse)
        r = restriction_matrix(2 * coarse - 1, 2 * coarse - 1)
        transpose_ok &= np.array_equal(r, p.T)
    # the smoother is omega D^-1 r on every level, D the diagonal of the dense
    # matrix that `apply` represents
    rng = np.random.default_rng(3)
    hierarchy = PoissonHierarchy(33, 33, 4)
    worst = 0.0
    for level, (m, n) in enumerate(hierarchy.sizes, start=1):
        diag = np.empty(m * n)
        for j in range(m * n):
            e = np.zeros((m, n))
            e.flat[j] = 1.0
            diag[j] = hierarchy.apply(e, level).flat[j]
        for omega in (0.4, 0.8, 1.0, 1.5):
            r = rng.standard_normal((m, n))
            jacobi = (omega / diag * r.ravel()).reshape(m, n)
            got = smooth(r, hierarchy, level, omega)
            worst = max(worst, float(np.abs(got - jacobi).max()))
    ok = kernel_ok and transpose_ok and worst < 1e-12
    verdict(3, ok, f"kernel exact={kernel_ok}, "
                   f"restriction==prolongation^T={transpose_ok}, "
                   f"smoother vs omega D^-1 r on 4 levels {worst:.1e}")


def test_criterion_4_gradient_correctness():
    start = time.time()
    cfg_off = MgNetConfig(J=2, nu=(2, 2), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=3)
    report_off = finite_diff_check(cfg_off, init_weights(cfg_off, seed=1),
                                   np.random.default_rng(41).random((1, 9, 9, 1)),
                                   [1], seed=1)
    cfg_on = MgNetConfig(J=2, nu=(2, 2), c_u=4, c_f=4, pi_variant="pi1",
                         use_batchnorm=True, in_channels=1, classes=3)
    report_on = finite_diff_check(cfg_on, init_weights(cfg_on, seed=1),
                                  np.random.default_rng(42).random((4, 9, 9, 1)),
                                  [0, 1, 2, 0], seed=1)
    elapsed = time.time() - start
    ok = (report_off.worst_relative_error < 1e-5
          and report_on.worst_relative_error < 1e-4
          and elapsed < 60.0)
    verdict(4, ok, f"BN off worst {report_off.worst_relative_error:.2e} "
                   f"({report_off.entries_checked} entries), "
                   f"BN on worst {report_on.worst_relative_error:.2e}, {elapsed:.1f}s")


def test_criterion_5_parameter_counts():
    r18 = resnet_param_count(18, 10)
    r34 = resnet_param_count(34, 10)
    mg_small_pi1 = count_params(table_preset("mgnet-2-256-256-pi1"))
    mg_big_pi1 = count_params(table_preset("mgnet-2-256-512-pi1"))
    mg_big_pi2 = count_params(table_preset("mgnet-2-256-512-pi2"))
    ok = (abs(r18 - 11.2e6) / 11.2e6 < 0.02
          and abs(r34 - 21.3e6) / 21.3e6 < 0.02
          and abs(mg_small_pi1 - 8.9e6) / 8.9e6 < 0.05
          and mg_small_pi1 < mg_big_pi1
          and mg_big_pi2 < mg_big_pi1)
    verdict(5, ok, f"resnet18={r18:,}, resnet34={r34:,}, "
                   f"mgnet(256,256)pi1={mg_small_pi1:,}, "
                   f"orderings {mg_small_pi1:,} < {mg_big_pi1:,} and "
                   f"{mg_big_pi2:,} < {mg_big_pi1:,}")


def test_criterion_6_toy_training():
    start = time.time()
    train_set = gen_synthetic(2, 200, size=16, seed=11)
    test_set = gen_synthetic(2, 100, size=16, seed=12)
    cfg = MgNetConfig(J=3, nu=(2, 2, 2), c_u=16, c_f=16, pi_variant="pi1",
                      use_batchnorm=True, in_channels=1, classes=2)
    tcfg = TrainConfig(learning_rate=0.1, momentum=0.9, batch_size=32,
                       epochs=20, seed=0)
    weights = init_weights(cfg, seed=tcfg.seed)
    test_accuracy = []
    result = train(cfg, tcfg, train_set, weights=weights,
                   on_epoch=lambda _: test_accuracy.append(evaluate(cfg, weights, test_set)[1]))
    best = max(test_accuracy)
    elapsed = time.time() - start

    # determinism: a re-run of the first epochs reproduces the history exactly
    prefix = train(cfg, TrainConfig(learning_rate=0.1, momentum=0.9,
                                    batch_size=32, epochs=2, seed=0), train_set)
    deterministic = all(prefix.history[i] == result.history[i] for i in range(2))

    ok = best >= 0.95 and elapsed < 300.0 and deterministic
    verdict(6, ok, f"best test accuracy {best:.3f} in 20 epochs, "
                   f"deterministic={deterministic}, {elapsed:.0f}s")


def test_criterion_7_variant_degeneracy():
    def build(variant, seed=7):
        cfg = MgNetConfig(J=2, nu=(3, 2), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=2,
                          smoothing_variant=variant)
        weights = init_weights(cfg, seed=seed)
        return cfg, weights

    cfg_s, w_s = build("single")
    cfg_m, w_m = build("multi")
    cfg_c, w_c = build("chebyshev")
    for name, p in w_s.params.items():
        if name in w_m.params:
            w_m.params[name].data = p.data.copy()
        if name in w_c.params:
            w_c.params[name].data = p.data.copy()
    for name, p in w_m.params.items():
        if name.endswith("/alpha"):
            degenerate = np.full(p.data.shape, -1e4)
            degenerate[-1] = 0.0
            p.data = degenerate
    for name, p in w_c.params.items():
        if name.endswith("/omega"):
            p.data = np.array(1.0)

    x = np.random.default_rng(5).standard_normal((1, 9, 9, 1))
    _, trace_single = mgnet_forward(x, cfg_s, w_s)
    _, trace_multi = mgnet_forward(x, cfg_m, w_m)
    _, trace_cheby = mgnet_forward(x, cfg_c, w_c)

    def identical(a, b):
        return all(np.asarray(ua).tobytes() == np.asarray(ub).tobytes()
                   for la, lb in zip(a.u_iterates, b.u_iterates)
                   for ua, ub in zip(la, lb))

    multi_ok = identical(trace_single, trace_multi)
    cheby_ok = identical(trace_single, trace_cheby)
    verdict(7, multi_ok and cheby_ok,
            f"multi-step bitwise={multi_ok}, chebyshev bitwise={cheby_ok}")


def test_criterion_8_persistence(tmp_path):
    roundtrips = []
    for label, cfg in (
            ("plain", MgNetConfig(J=2, nu=(2, 2), c_u=4, c_f=4, pi_variant="pi1",
                                  use_batchnorm=False, in_channels=1, classes=3)),
            ("bn+pi2", MgNetConfig(J=3, nu=(2, 2, 0), c_u=5, c_f=6, pi_variant="pi2",
                                   use_batchnorm=True, in_channels=3, classes=10)),
            ("multi", MgNetConfig(J=2, nu=(3, 1), c_u=4, c_f=4, pi_variant="pi0",
                                  use_batchnorm=True, in_channels=1, classes=2,
                                  smoothing_variant="multi")),
            ("chebyshev", MgNetConfig(J=2, nu=(3, 2), c_u=3, c_f=3, pi_variant="pi1",
                                      use_batchnorm=False, in_channels=1, classes=2,
                                      smoothing_variant="chebyshev"))):
        weights = init_weights(cfg, seed=3)
        path = tmp_path / f"{label}.mgnet"
        save_checkpoint(path, weights.state_dict())
        loaded = load_checkpoint(path)
        state = weights.state_dict()
        roundtrips.append(set(loaded) == set(state)
                          and all(loaded[k].tobytes() == state[k].tobytes()
                                  for k in state))
    ckpt_ok = all(roundtrips)

    payload = bytearray()
    for i in range(10):
        payload.append(i)
        payload.extend(bytes([25 * i]) * 3072)
    cifar_path = tmp_path / "batch.bin"
    cifar_path.write_bytes(bytes(payload))
    images = load_cifar10(cifar_path)
    cifar_ok = (len(images) == 10
                and [im.label for im in images] == list(range(10))
                and all(np.allclose(im.image, (25 * i) / 255.0)
                        for i, im in enumerate(images))
                and all(im.image.shape == (32, 32, 3) for im in images))
    verdict(8, ckpt_ok and cifar_ok,
            f"checkpoint round-trips bitwise for {len(roundtrips)} model kinds, "
            f"CIFAR-10 loader parses 10 constructed records exactly")
