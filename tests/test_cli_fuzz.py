"""Property test of the command line: every argv ends in exit code 0, 1 or 2.

Arguments are drawn from each subcommand's grammar with out-of-range,
non-finite and malformed values mixed in, and `count-params` reads fuzzed
JSON model configs.  `train` and `eval` are drawn only on paths that reject
their input before the first epoch, so no drawn example trains a model.
A second property feeds `eval` byte-level mutations of a trained checkpoint,
and a third feeds `eval` and `train --epochs 1` mutations of a CIFAR-10
or CIFAR-100 file.
"""

import contextlib
import io
import json
import math
import shutil
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from mgnet.cli import TABLE_PRESETS, run_cli
from mgnet.data_io import load_checkpoint, save_checkpoint
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
# paths the operating system refuses: a directory to write, a file to walk through,
# a directory of CIFAR batches where one file is expected
@example(case=(["solve-poisson", "--out", "{dir}"], None))
@example(case=(["train", "--data", "{dir}/c10.bin/x", "--out", "{dir}/run"], None))
@example(case=(["train", "--data", "{dir}", "--out", "{dir}/run"], None))
@example(case=(["eval", "--checkpoint", "{dir}/rgb/checkpoint.mgnet", "--data", "{dir}"],
               None))
def test_every_argv_ends_in_an_exit_code(fixture_dir, case):
    argv, config = case
    if config is not None:
        (fixture_dir / "fuzz.json").write_text(config)
    assert run_cli([a.format(dir=fixture_dir) for a in argv]) in (0, 1, 2)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A real `mgnet train --epochs 1` run directory (the default toy model)."""
    d = tmp_path_factory.mktemp("trained")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["train", "--out", str(d / "run"), "--epochs", "1"]) == 0
    return d / "run"


def _with_state(edit):
    """A mutation that rewrites the decoded tensors and encodes them again."""
    def mutate(raw, a, b, scratch):
        state = load_checkpoint(scratch / "checkpoint.mgnet")
        edit(state)
        save_checkpoint(scratch / "edited.mgnet", state)
        return (scratch / "edited.mgnet").read_bytes()
    return mutate


def _splice(raw, a, b, scratch):
    """Cut out (or, with b before a, repeat) the bytes between two offsets."""
    return raw[:a % len(raw)] + raw[b % len(raw):]


def _flip(raw, a, b, scratch):
    i = a % len(raw)
    return raw[:i] + bytes([raw[i] ^ (b % 255 + 1)]) + raw[i + 1:]


MUTATIONS = {
    "truncate": lambda raw, a, b, scratch: raw[:a % len(raw)],
    "flip": _flip,
    "splice": _splice,
    # the named reproducers
    "missing_buffers": _with_state(lambda s: [s.pop(n) for n in list(s) if "/running_" in n]),
    "extra_tensor": _with_state(lambda s: s.update({"level9/bogus": s["head/bias"]})),
    "nan_value": _with_state(lambda s: s["head/weights"].__setitem__((0, 0), math.nan)),
    # the first tensor name starts after the 6-byte magic and its 4-byte length
    "non_utf8_name": lambda raw, a, b, scratch: raw[:10] + b"\xff" + raw[11:],
}
BYTE_MUTATIONS = ["truncate", "flip", "splice"]


def _strict_float(text):
    raise ValueError(f"non-finite number {text} in the output")


@settings(max_examples=25, deadline=timedelta(seconds=20), database=None, derandomize=True)
@given(mutation=st.tuples(st.sampled_from(BYTE_MUTATIONS), st.integers(0, 1 << 16),
                          st.integers(0, 1 << 16)))
@example(mutation=("missing_buffers", 0, 0))
@example(mutation=("extra_tensor", 0, 0))
@example(mutation=("nan_value", 0, 0))
@example(mutation=("non_utf8_name", 0, 0))
def test_eval_of_a_mutated_checkpoint_ends_in_an_exit_code(trained_run, tmp_path_factory,
                                                           mutation):
    kind, a, b = mutation
    scratch = tmp_path_factory.mktemp("mutated")
    shutil.copy(trained_run / "config.json", scratch / "config.json")
    shutil.copy(trained_run / "checkpoint.mgnet", scratch / "checkpoint.mgnet")
    raw = (scratch / "checkpoint.mgnet").read_bytes()
    (scratch / "checkpoint.mgnet").write_bytes(MUTATIONS[kind](raw, a, b, scratch))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(["eval", "--checkpoint", str(scratch / "checkpoint.mgnet")])
    assert code in (0, 1, 2)
    if kind not in BYTE_MUTATIONS:
        assert code == 2, kind
    if code == 0:
        result = json.loads(out.getvalue().splitlines()[-1], parse_constant=_strict_float)
        assert math.isfinite(result["loss"]) and 0.0 <= result["accuracy"] <= 1.0


@pytest.fixture(scope="module")
def cifar_case(tmp_path_factory):
    """Per format, a three-record CIFAR file, a small model config of its
    class count and that model's checkpoint."""
    d = tmp_path_factory.mktemp("cifar")
    for fmt, labels in (("cifar10", [0, 1, 2]), ("cifar100", [97, 98, 99])):
        cifar_file(d / f"{fmt}.bin", labels, label_bytes=LABEL_BYTES[fmt])
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=3, classes=CLASSES[fmt])
        (d / f"{fmt}.json").write_text(json.dumps(cfg.to_dict()))
        save_checkpoint(d / f"{fmt}.mgnet", init_weights(cfg).state_dict())
    return d


LABEL_BYTES = {"cifar10": 1, "cifar100": 2}  # CIFAR-100: coarse, then the fine label
CLASSES = {"cifar10": 10, "cifar100": 100}
RECORD = 1 + 3 * 1024
RECORD100 = 2 + 3 * 1024


@settings(max_examples=20, deadline=timedelta(seconds=20), database=None, derandomize=True)
@given(command=st.sampled_from(["eval", "train"]), fmt=st.sampled_from(["cifar10", "cifar100"]),
       mutation=st.tuples(st.sampled_from(BYTE_MUTATIONS), st.integers(0, 1 << 14),
                          st.integers(0, 1 << 14)))
# a label byte flipped to 10, one whole record kept, the middle record cut out
@example(command="eval", fmt="cifar10", mutation=("flip", 0, 9))
@example(command="train", fmt="cifar10", mutation=("flip", RECORD, 9))
@example(command="eval", fmt="cifar10", mutation=("truncate", RECORD, 0))
@example(command="train", fmt="cifar10", mutation=("splice", RECORD, 2 * RECORD))
# the second record's fine label 98 flipped to 101, a cut inside the second
# record, the middle record cut out, and a one-byte splice that shifts every
# later record
@example(command="eval", fmt="cifar100", mutation=("flip", RECORD100 + 1, 6))
@example(command="train", fmt="cifar100", mutation=("flip", RECORD100 + 1, 6))
@example(command="eval", fmt="cifar100", mutation=("truncate", RECORD100 + 100, 0))
@example(command="train", fmt="cifar100", mutation=("splice", RECORD100, 2 * RECORD100))
@example(command="eval", fmt="cifar100", mutation=("splice", RECORD100, RECORD100 + 1))
def test_a_mutated_cifar_file_ends_in_an_exit_code(cifar_case, tmp_path_factory, command, fmt,
                                                  mutation):
    kind, a, b = mutation
    scratch = tmp_path_factory.mktemp("mutated_cifar")
    data = MUTATIONS[kind]((cifar_case / f"{fmt}.bin").read_bytes(), a, b, scratch)
    (scratch / "data.bin").write_bytes(data)
    argv = {"eval": ["eval", "--checkpoint", str(cifar_case / f"{fmt}.mgnet"),
                     "--config", str(cifar_case / f"{fmt}.json")],
            "train": ["train", "--config", str(cifar_case / f"{fmt}.json"),
                      "--out", str(scratch / "run"), "--epochs", "1", "--batch-size", "2"]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv[command] + ["--data", str(scratch / "data.bin"),
                                        "--data-format", fmt])
    # a file of whole records whose (fine) label bytes are all below the
    # format's class count is valid; anything else is a format error
    record = LABEL_BYTES[fmt] + 3 * 1024
    labels = data[LABEL_BYTES[fmt] - 1::record]
    valid = len(data) and len(data) % record == 0 and max(labels) < CLASSES[fmt]
    assert code == (0 if valid else 2)
    if code == 0:
        if command == "eval":
            result = json.loads(out.getvalue().splitlines()[-1], parse_constant=_strict_float)
        else:
            summary = (scratch / "run" / "summary.json").read_text()
            result = json.loads(summary, parse_constant=_strict_float)["final"]
        assert math.isfinite(result["loss"]) and 0.0 <= result["accuracy"] <= 1.0
