"""The benchmark reaches mgnet by name: the entry points its tracer wraps and
the attributes its session reads must all resolve, and the session's calls
must run with their arguments."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "mgbench" / "spans.py"
SESSION_PATH = SPANS_PATH.with_name("session.py")


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"mgbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = load(SPANS_PATH)


def session_attributes() -> list:
    """(module, attribute) for every ``<module>.<attribute>`` read in
    mgbench/session.py on a module it imports from mgnet."""
    tree = ast.parse(SESSION_PATH.read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "mgnet"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


SESSION_ATTRIBUTES = session_attributes()


@pytest.mark.parametrize("module,attr", spans.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"mgnet.{module}"), attr))


@pytest.mark.parametrize("module,cls,method", spans.METHODS,
                         ids=[f"{m}.{c}.{f}" for m, c, f in spans.METHODS])
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"mgnet.{module}"), cls)
    assert callable(owner.__dict__[method])


def test_session_reads_some_attributes():
    assert ("mgnet_model", "mgnet_forward") in SESSION_ATTRIBUTES


@pytest.mark.parametrize("module,attr", SESSION_ATTRIBUTES,
                         ids=[f"{m}.{a}" for m, a in SESSION_ATTRIBUTES])
def test_session_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(f"mgnet.{module}"), attr)


def test_traced_training_step_and_eval():
    from mgnet.data_io import gen_synthetic
    from mgnet.mgnet_model import MgNetConfig
    from mgnet.training import TrainConfig, evaluate, train

    # the benchmark's toy model: J=3, nu=(2,2,2), c=16
    cfg = MgNetConfig(J=3, nu=(2, 2, 2), c_u=16, c_f=16, pi_variant="pi1",
                      use_batchnorm=True, in_channels=1, classes=2)
    data = gen_synthetic(2, 4, size=16, seed=0)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        result = train(cfg, TrainConfig(epochs=1, batch_size=8, learning_rate=0.02), data)
        evaluate(cfg, result.weights, data)
    finally:
        tracer.active = False
        tracer.uninstall()
    table = tracer.table()
    # per forward: theta0, 8 data maps, 6 extractors, 2 restrictions and 2
    # interpolations; one training forward plus one eval.  The data map of the
    # all-zero u^{1,0} is an `autodiff.conv2d` call and record like any other;
    # its forward and vjp only take the bias, without convolving
    assert table["autodiff.conv2d"]["calls"] == 2 * 19
    assert table["autodiff.vjp.conv2d"]["calls"] == 19
    assert "autodiff.vjp.conv2d_of_zeros" not in table
    for name in ("autodiff.batchnorm", "mgnet_model.KernelOperators.apply_bn",
                 "training.sgd_momentum_step", "mgnet_model.mgnet_forward.eval"):
        assert table[name]["calls"] > 0, name
    metrics = spans.per_layer(tracer, 1, {})
    assert metrics["autodiff.conv2d.computed_gflops"] > 0
    assert metrics["autodiff.tape.records_per_step"] > 0


@pytest.mark.parametrize("workload", ["toy/tiny", "paper/tiny"])
def test_session_rounds_run_clean(workload, tmp_path, monkeypatch):
    # one round of every phase of `session.run` at the harness self-test's
    # size, without the fresh set-up processes
    monkeypatch.syspath_prepend(str(SESSION_PATH.parent))  # session imports oracles
    session = load(SESSION_PATH)
    s = session.Session(session.scale_named(workload), seed=1, workdir=str(tmp_path))
    cfg, train_items, eval_items, weights = session.setup(s)
    session.check_setup(s, cfg, train_items, eval_items)
    session.train_eval_round(s, cfg, train_items, eval_items, first=True)
    session.ladder_round(s, session.manufactured_solutions(s))
    session.verify_round(s)
    session.first_batch_oracles(s, cfg, weights, train_items)
    assert s.errors == []
    assert s.failed == 0 and s.attempted > 0
