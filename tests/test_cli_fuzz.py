"""Property test of the command line: every argv ends in exit code 0, 1 or 2.

Arguments are drawn from each subcommand's grammar with out-of-range,
non-finite and malformed values mixed in, and `count-params` reads fuzzed
JSON model configs.  `train` and `eval` are drawn only on paths that reject
their input before the first epoch, so no drawn example trains a model.
"""

import json
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from mgnet.cli import TABLE_PRESETS, run_cli
from mgnet.data_io import save_checkpoint
from mgnet.equivalence_lab import THEOREM_IDS
from mgnet.mgnet_model import MgNetConfig, init_weights

from conftest import cifar_file

CONFIG_FIELDS = list(MgNetConfig.__dataclass_fields__)
BAD_TEXT = st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "0x10", "2.5"])


def number(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), BAD_TEXT)


def real():
    return st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), BAD_TEXT,
                     st.sampled_from(["0.8", "1e-10", "0", "1"]))


@st.composite
def options(draw, grammar):
    """Each option of `grammar` left out or given a drawn value, in a drawn order."""
    argv = []
    for flag, values in grammar.items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append([flag, value])
    return [token for pair in draw(st.permutations(argv)) for token in pair]


SOLVE = {"--size": number(-3, 33), "--levels": number(-1, 7), "--nu": number(-1, 4),
         "--omega": real(), "--cycles": number(-1, 60), "--rtol": real(),
         "--seed": number(-3, 9)}
VERIFY = {"--theorem": st.sampled_from(THEOREM_IDS + ("all", "bogus")),
          "--seed": number(-3, 9)}
COUNT = {"--model": st.sampled_from(["resnet18", "resnet34", "resnet50", "mgnet", ""]
                                    + list(TABLE_PRESETS)),
         "--classes": number(-5, 200)}
# valid values only: each train or eval argv also carries one of the rejections below
TRAIN = {"--lr": st.sampled_from(["0.05", "0.1"]), "--epochs": st.sampled_from(["1", "2"]),
         "--batch-size": st.sampled_from(["1", "16"]),
         "--momentum": st.sampled_from(["0", "0.9"]), "--seed": st.sampled_from(["0", "3"]),
         "--synthetic-classes": st.sampled_from(["2", "3"]),
         "--data-format": st.sampled_from(["cifar10", "cifar100"])}
EVAL = {"--seed": st.sampled_from(["0", "3"]),
        "--data-format": st.sampled_from(["cifar10", "cifar100"])}

TRAIN_REJECTS = [
    ["--lr", "nan"], ["--lr", "0"], ["--lr", "-inf"], ["--epochs", "0"], ["--momentum", "1"],
    ["--momentum", "nan"], ["--batch-size", "0"], ["--seed", "-1"],
    ["--data", "{dir}/missing.bin"], ["--data", "{dir}/truncated.bin"],
    ["--data", "{dir}/empty.bin"], ["--config", "{dir}/missing.json"],
    ["--config", "{dir}/truncated.json"], ["--config", "{dir}/rgb/config.json", "--data",
                                           "{dir}/c10.bin", "--data-format", "cifar10"],
]
EVAL_REJECTS = [
    ["--checkpoint", "{dir}/missing.mgnet"], ["--checkpoint", "{dir}/truncated.mgnet"],
    ["--checkpoint", "{dir}/gray/checkpoint.mgnet", "--config", "{dir}/rgb/config.json"],
    ["--checkpoint", "{dir}/gray/checkpoint.mgnet", "--config", "{dir}/missing.json"],
    ["--checkpoint", "{dir}/gray/checkpoint.mgnet", "--data", "{dir}/truncated.bin"],
    ["--checkpoint", "{dir}/gray/checkpoint.mgnet", "--data", "{dir}/empty.bin"],
    ["--checkpoint", "{dir}/rgb/checkpoint.mgnet", "--data", "{dir}/c10.bin",
     "--data-format", "cifar10"],
    ["--checkpoint", "{dir}/gray/checkpoint.mgnet", "--seed", "-1"],
]

JSON_VALUE = st.one_of(
    st.integers(-3, 6), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.none(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 4), st.floats(-3, 3)), max_size=4),
    st.sampled_from(["single", "multi", "chebyshev", "scaled", "constant", "pi0", "pi2",
                     "conv_relu_maxpool"]))


@st.composite
def config_text(draw):
    """A model config over J=2, nu=[1, 1] with drawn fields replaced, maybe cut short."""
    fields = draw(st.dictionaries(st.sampled_from(CONFIG_FIELDS + ["bogus"]), JSON_VALUE,
                                  max_size=4))
    text = json.dumps({"J": 2, "nu": [1, 1], **fields})
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def cases():
    """(argv with "{dir}" for the fixture directory, text of {dir}/fuzz.json or None)."""
    out = ["--out", "{dir}/out.json"]
    return st.one_of(
        st.tuples(options(SOLVE).map(lambda a: ["solve-poisson", *out, *a]), st.none()),
        st.tuples(options(VERIFY).map(lambda a: ["verify", *out, *a]), st.none()),
        st.tuples(st.tuples(options(COUNT), st.booleans()).map(
            lambda t: ["count-params", *t[0], *(["--config", "{dir}/fuzz.json"] if t[1]
                                                else [])]), config_text()),
        st.tuples(st.tuples(options(TRAIN), st.sampled_from(TRAIN_REJECTS)).map(
            lambda t: ["train", "--out", "{dir}/run", *t[0], *t[1]]), st.none()),
        st.tuples(st.tuples(options(EVAL), st.sampled_from(EVAL_REJECTS)).map(
            lambda t: ["eval", *t[0], *t[1]]), st.none()),
    )


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")
    cifar_file(d / "c10.bin", [5] * 5)
    cifar_file(d / "c100.bin", [50] * 5, label_bytes=2)
    (d / "truncated.bin").write_bytes((d / "c10.bin").read_bytes()[:4000])
    (d / "empty.bin").write_bytes(b"")
    (d / "truncated.json").write_text('{"J": 2, "nu": [1,')
    for name, channels in (("gray", 1), ("rgb", 3)):
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=channels, classes=2)
        (d / name).mkdir()
        (d / name / "config.json").write_text(json.dumps(cfg.to_dict()))
        save_checkpoint(d / name / "checkpoint.mgnet", init_weights(cfg).state_dict())
    (d / "truncated.mgnet").write_bytes((d / "gray" / "checkpoint.mgnet").read_bytes()[:50])
    return d


def count_config(text):
    return (["count-params", "--model", "mgnet", "--config", "{dir}/fuzz.json"], text)


@settings(max_examples=60, deadline=timedelta(seconds=10), database=None, derandomize=True)
@given(case=cases())
# training without a config on CIFAR data, and the label check behind both commands
@example(case=(["train", "--data", "{dir}/c10.bin", "--out", "{dir}/run", "--epochs", "1",
                "--batch-size", "5"], None))
@example(case=(["train", "--data", "{dir}/c100.bin", "--data-format", "cifar100", "--out",
                "{dir}/run", "--epochs", "1", "--batch-size", "5"], None))
@example(case=(["train", "--out", "{dir}/run", *TRAIN_REJECTS[-1]], None))
@example(case=(["eval", *EVAL_REJECTS[-2]], None))
# model configs and class counts at the one config boundary
@example(case=count_config('{"c_u": 2.5}'))
@example(case=count_config('{"J": 2, "nu": [1.7, 1]}'))
@example(case=count_config('{"kernel_half_width": 1.5}'))
@example(case=count_config('{"use_batchnorm": "no"}'))
@example(case=count_config('{"J": 0, "nu": []}'))
@example(case=count_config('{"in_channels": 0}'))
@example(case=count_config('{"classes": -3}'))
@example(case=count_config('{"c_u": NaN}'))
@example(case=count_config('{"c_f": 1e400}'))
@example(case=(["count-params", "--model", "resnet18", "--classes", "-5"], None))
@example(case=(count_config('{"J": 2, "nu": [1, 1]}')[0] + ["--classes", "100"],
               '{"J": 2, "nu": [1, 1]}'))
# negative seeds
@example(case=(["verify", "--theorem", "mg0", "--seed", "-1", "--out", "{dir}/out.json"], None))
@example(case=(["solve-poisson", "--seed", "-1", "--out", "{dir}/out.json"], None))
@example(case=(["train", "--seed", "-1", "--out", "{dir}/run"], None))
@example(case=(["eval", "--checkpoint", "{dir}/gray/checkpoint.mgnet", "--seed", "-1"], None))
# empty data
@example(case=(["eval", "--checkpoint", "{dir}/gray/checkpoint.mgnet", "--data",
                "{dir}/empty.bin"], None))
def test_every_argv_ends_in_an_exit_code(fixture_dir, case):
    argv, config = case
    if config is not None:
        (fixture_dir / "fuzz.json").write_text(config)
    assert run_cli([a.format(dir=fixture_dir) for a in argv]) in (0, 1, 2)
