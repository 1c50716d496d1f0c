"""Command-line entry point.

Exit codes: 0 success, 1 verification/check failure, 2 usage or input error.
Results are written as JSON (line-delimited for per-epoch metrics) so they
can be parsed back by the same toolkit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data_io, equivalence_lab, poisson_mg
from .classic_models import resnet_param_count
from .mgnet_model import MgNetConfig, count_params, init_weights
from .tensor_core import ContractViolation
from .training import TrainConfig, check_dataset, evaluate, train

TABLE_PRESETS = {
    "mgnet-2-256-256-pi0": dict(c_u=256, c_f=256, pi_variant="pi0"),
    "mgnet-2-256-256-pi1": dict(c_u=256, c_f=256, pi_variant="pi1"),
    "mgnet-2-256-512-pi1": dict(c_u=256, c_f=512, pi_variant="pi1"),
    "mgnet-2-256-512-pi2": dict(c_u=256, c_f=512, pi_variant="pi2"),
}

# the dense direct solve behind the error report costs O((size^2)^2) memory
# and O((size^2)^3) time: 143 MB at 65x65, 2.2 GB at 129x129
DIRECT_SOLVE_MAX_SIZE = 65


def table_preset(name: str, classes: int = 10) -> MgNetConfig:
    """Published-configuration presets (J=5, two smoothings, head at level 5)."""
    spec = TABLE_PRESETS[name]
    return MgNetConfig(J=5, nu=(2, 2, 2, 2, 0), smoothing_variant="single",
                       extractor_strategy="variable", use_batchnorm=True,
                       f_in_variant="conv_relu", in_channels=3, classes=classes,
                       shared_data_map=True, **spec)


def _load_dataset(spec: str, fmt: str, synthetic_classes: int, seed: int):
    if spec == "synthetic":
        per_class = 200
        return data_io.gen_synthetic(synthetic_classes, per_class, size=16, seed=seed)
    path = Path(spec)
    if path.is_dir():
        files = sorted(path.glob("*.bin")) or sorted(path.glob("data_batch*"))
        if not files:
            raise data_io.FormatError(f"no CIFAR binary files under {path}")
    else:
        files = [path]
    loader = data_io.load_cifar10 if fmt == "cifar10" else data_io.load_cifar100
    items = []
    for f in files:
        items.extend(loader(f))
    if not items:
        raise data_io.FormatError(f"{path}: no CIFAR records")
    return items


def _cmd_solve_poisson(args) -> int:
    hierarchy = poisson_mg.PoissonHierarchy(args.size, args.size, args.levels)
    rng = np.random.default_rng(args.seed)
    f = rng.standard_normal((args.size, args.size))
    result = poisson_mg.solve_poisson(f, args.levels, [args.nu] * args.levels,
                                      omega=args.omega, cycles=args.cycles,
                                      rtol=args.rtol, hierarchy=hierarchy)
    cap = DIRECT_SOLVE_MAX_SIZE
    rel_error, versus = None, f"direct-solve comparison skipped above {cap}x{cap}"
    if args.size <= cap:
        reference = hierarchy.direct_solve(f)
        rel_error = float(np.linalg.norm(result.u - reference)
                          / max(np.linalg.norm(reference), 1e-300))
        versus = f"relative error vs direct solve {rel_error:.3e}"
    # geometric-mean residual reduction per cycle
    factor = float((result.residual_norms[-1] / np.linalg.norm(f)) ** (1.0 / result.cycles))
    payload = {
        "size": args.size, "levels": args.levels, "nu": args.nu,
        "omega": args.omega, "seed": args.seed,
        "cycles_run": result.cycles, "converged": result.converged,
        "convergence_factor": factor,
        "residual_history": result.residual_norms,
        "relative_error_vs_direct": rel_error,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2))
    if not result.converged:
        print(f"did not converge after {result.cycles} cycles (residual "
              f"{result.residual_norms[-1]:.3e}, convergence factor {factor:.3f}); "
              f"{versus}", file=sys.stderr)
        return 1
    print(f"solved {args.size}x{args.size} in {result.cycles} cycles "
          f"(convergence factor {factor:.3f}); {versus}")
    return 0


def _cmd_verify(args) -> int:
    if args.theorem == "all":
        reports = equivalence_lab.verify_all(seed=args.seed)
    else:
        reports = [equivalence_lab.verify(args.theorem, seed=args.seed)]
    payload = {"seed": args.seed,
               "tolerance": equivalence_lab.SUITE_TOLERANCE,
               "reports": [r.to_dict() for r in reports],
               "all_passed": all(r.passed() for r in reports)}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
    for r in reports:
        status = "pass" if r.passed() else "FAIL"
        print(f"{r.theorem_id:6s} max discrepancy {r.max_abs_discrepancy:.3e} "
              f"({r.instances_tested} comparisons) {status}")
    return 0 if payload["all_passed"] else 1


def _cmd_train(args) -> int:
    cfg = MgNetConfig.from_json(args.config) if args.config else None
    tcfg = TrainConfig(learning_rate=args.lr, momentum=args.momentum,
                       batch_size=args.batch_size, epochs=args.epochs,
                       seed=args.seed)
    synthetic_classes = cfg.classes if cfg else args.synthetic_classes
    dataset = _load_dataset(args.data, args.data_format, synthetic_classes, args.seed)
    if cfg is None:
        # the default toy model, shaped by the data it is to train on
        classes = (args.synthetic_classes if args.data == "synthetic"
                   else {"cifar10": 10, "cifar100": 100}[args.data_format])
        cfg = MgNetConfig(J=3, nu=(2, 2, 2), c_u=16, c_f=16, pi_variant="pi1",
                          use_batchnorm=True, in_channels=dataset[0].image.shape[-1],
                          classes=classes)
    check_dataset(cfg, dataset)  # before anything is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2))
    metrics_path = out_dir / "metrics.ndjson"
    with open(metrics_path, "w") as metrics:
        def on_epoch(entry):
            metrics.write(json.dumps(entry) + "\n")
            metrics.flush()
            print(f"epoch {entry['epoch']:3d}  loss {entry['loss']:.4f}  "
                  f"accuracy {entry['accuracy']:.4f}")
        try:
            result = train(cfg, tcfg, dataset, on_epoch=on_epoch)
        except FloatingPointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    ckpt = out_dir / "checkpoint.mgnet"
    data_io.save_checkpoint(ckpt, result.weights.state_dict())
    summary = {"config": cfg.to_dict(), "train": tcfg.to_dict(),
               "final": result.history[-1], "checkpoint": str(ckpt)}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return 0


def _cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    config_path = Path(args.config) if args.config else ckpt_path.parent / "config.json"
    if not config_path.exists():
        raise ContractViolation(
            f"no model config found at {config_path}; pass --config explicitly")
    cfg = MgNetConfig.from_json(config_path)
    weights = init_weights(cfg, seed=0)
    weights.load_state_dict(data_io.load_checkpoint(ckpt_path))
    dataset = _load_dataset(args.data, args.data_format, cfg.classes, args.seed)
    loss, accuracy = evaluate(cfg, weights, dataset)
    if not np.isfinite(loss):
        print(f"error: evaluation loss is {loss}", file=sys.stderr)
        return 1
    print(json.dumps({"loss": loss, "accuracy": accuracy, "items": len(dataset)},
                     allow_nan=False))
    return 0


def _cmd_count_params(args) -> int:
    classes = 10 if args.classes is None else args.classes
    if args.model in ("resnet18", "resnet34"):
        n = resnet_param_count(int(args.model[-2:]), classes)
    elif args.model in TABLE_PRESETS:
        n = count_params(table_preset(args.model, classes))
    elif args.model == "mgnet":
        if not args.config:
            raise ContractViolation("--model mgnet needs --config with the model JSON")
        cfg = MgNetConfig.from_json(args.config)
        classes = cfg.classes if args.classes is None else args.classes
        n = count_params(dataclasses.replace(cfg, classes=classes))
    else:
        raise ContractViolation(f"unknown model {args.model!r}")
    print(json.dumps({"model": args.model, "classes": classes, "params": n}))
    return 0


def _seed(text: str) -> int:
    """Type of every --seed: numpy's generators take only non-negative integers."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgnet",
        description="Multigrid solver, multigrid-structured networks, and the "
                    "equivalence certification suite.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve-poisson", help="run the multigrid Poisson solver")
    p.add_argument("--size", type=int, default=17, help="grid size, of the form 2^s+1")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--nu", type=int, default=2, help="smoothings per level")
    p.add_argument("--omega", type=float, default=0.8)
    p.add_argument("--cycles", type=int, default=50)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="results.json")
    p.set_defaults(func=_cmd_solve_poisson)

    p = sub.add_parser("verify", help="certify the equivalence identities")
    p.add_argument("--theorem", choices=("all",) + equivalence_lab.THEOREM_IDS,
                   default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("train", help="train a network")
    p.add_argument("--config", help="model config JSON (defaults to a small toy model)")
    p.add_argument("--data", default="synthetic", help="'synthetic' or a CIFAR binary path")
    p.add_argument("--data-format", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--synthetic-classes", type=int, default=2)
    p.add_argument("--out", default="run", help="output directory")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="model config JSON (default: config.json next "
                                    "to the checkpoint)")
    p.add_argument("--data", default="synthetic")
    p.add_argument("--data-format", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--seed", type=_seed, default=1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("count-params", help="count trainable parameters")
    p.add_argument("--model", required=True,
                   help="resnet18 | resnet34 | mgnet (with --config) | "
                        + " | ".join(TABLE_PRESETS))
    p.add_argument("--config", help="model config JSON for --model mgnet")
    p.add_argument("--classes", type=int,
                   help="number of classes (default: 10, or the config's for --model mgnet)")
    p.set_defaults(func=_cmd_count_params)
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_help()
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ContractViolation, data_io.FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
