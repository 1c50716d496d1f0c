"""Correctness oracles, written independently of the code they check.

Each oracle is a separate computation or a property of the method, never a
stored copy of an earlier output.  Every function returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np


def poisson_apply(u: np.ndarray) -> np.ndarray:
    """Zero-padded 5-point Laplacian by numpy slicing: 4u minus the four
    neighbours, with samples outside the grid read as 0."""
    out = 4.0 * u
    out[1:, :] -= u[:-1, :]
    out[:-1, :] -= u[1:, :]
    out[:, 1:] -= u[:, :-1]
    out[:, :-1] -= u[:, 1:]
    return out


def poisson_condition(n: int) -> float:
    """Spectral condition number of the n x n zero-padded 5-point operator,
    from its closed-form eigenvalues 4 sin^2(j pi / 2(n+1)) summed over the
    two axes."""
    s = np.sin(np.arange(1, n + 1) * np.pi / (2.0 * (n + 1))) ** 2
    return float((8.0 * s[-1]) / (8.0 * s[0]))


def check_poisson(f, u_star, u, converged: bool, rtol: float) -> list:
    """A converged solve meets the residual test under the independent
    stencil, and its error is within the bound cond(A) * rtol that the
    residual test implies."""
    errors = []
    if not converged:
        errors.append("solver reported no convergence")
    f_norm = float(np.linalg.norm(f))
    residual = float(np.linalg.norm(f - poisson_apply(u)))
    if not residual <= rtol * f_norm:
        errors.append(f"residual {residual:.3e} above rtol*|f| = {rtol * f_norm:.3e}")
    rel_error = float(np.linalg.norm(u - u_star) / np.linalg.norm(u_star))
    bound = poisson_condition(u.shape[0]) * rtol
    if not rel_error <= bound:
        errors.append(f"relative error {rel_error:.3e} above cond*rtol = {bound:.3e}")
    return errors


def reference_conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   stride: int) -> np.ndarray:
    """Zero-padded conv as a sum of shifted slices: one (c_in, c_out) matmul
    per kernel tap on a strided view of the padded input."""
    kk = weights.shape[0]
    k = (kk - 1) // 2
    b, m, n, _ = x.shape
    ho, wo = -(-m // stride), -(-n // stride)
    padded = np.pad(x, ((0, 0), (k, k), (k, k), (0, 0)))
    out = np.zeros((b, ho, wo, weights.shape[2])) + bias
    for p in range(kk):
        for q in range(kk):
            window = padded[:, p:p + stride * (ho - 1) + 1:stride,
                            q:q + stride * (wo - 1) + 1:stride, :]
            out += window @ weights[p, q].T
    return out


def check_conv(actual, x, weights, bias, stride: int, tol: float = 1e-12) -> list:
    expected = reference_conv(x, weights, bias, stride)
    if np.shape(actual) != expected.shape:
        return [f"conv output shape {np.shape(actual)} != {expected.shape}"]
    err = float(np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300))
    return [] if err <= tol else [f"stride-{stride} conv differs from reference by {err:.3e}"]


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy through a max-shifted log-sum-exp."""
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return float((lse - logits[np.arange(len(labels)), labels]).mean())


def derivatives_agree(analytic: float, fd: float, h: float, loss: float,
                      tol: float = 1e-5) -> bool:
    """<grad L, d> against the central difference (L(h) - L(-h)) / 2h: to
    `tol` relative, plus the rounding of two float64 losses of size `loss`
    (taken as 1e-13 |L| each, far above the 2.2e-16 of one operation)
    divided by the step."""
    allowance = 1e-13 * max(abs(loss), 1.0) / h
    return abs(fd - analytic) <= tol * max(abs(fd), abs(analytic)) + allowance


def check_initial_loss(loss: float, classes: int, margin: float) -> list:
    """A head initialised near zero predicts near-uniformly: L0 ~ log(classes)."""
    if np.isfinite(loss) and abs(loss - np.log(classes)) <= margin:
        return []
    return [f"initial loss {loss:.4f} is not within {margin} of log({classes})"]


def check_same_tensors(saved: dict, restored: dict) -> list:
    """Bitwise equality of two name -> array maps."""
    if saved.keys() != restored.keys():
        return [f"tensor names differ: {sorted(saved.keys() ^ restored.keys())}"]
    return [f"{k} differs" for k in saved if not np.array_equal(saved[k], restored[k])]


def check_cifar(items, planes: np.ndarray, labels: np.ndarray) -> list:
    """Parsed images are the (n, 3, 32, 32) uint8 planes written, moved to
    (32, 32, 3) and scaled by 1/255; labels match."""
    errors = []
    parsed = np.stack([it.image for it in items])
    expected = planes.transpose(0, 2, 3, 1) / 255.0
    if parsed.shape != expected.shape or not np.array_equal(parsed, expected):
        errors.append("parsed pixels differ from the records written")
    if [it.label for it in items] != labels.tolist():
        errors.append("parsed labels differ from the records written")
    return errors


def check_reports(reports, tolerance: float = 1e-9) -> list:
    errors = []
    for r in reports:
        if not (r.instances_tested > 0 and r.max_abs_discrepancy < tolerance):
            errors.append(f"{r.theorem_id} seed {r.seed}: discrepancy "
                          f"{r.max_abs_discrepancy:.3e} over {r.instances_tested} instances")
    return errors
