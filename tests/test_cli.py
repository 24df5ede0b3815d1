"""CLI tests, driven through main() with temp directories."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnkit.cli import _write_csv, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
NETS = ROOT / "nets"

FEASIBLE_ARCH = """\
input_dim 4
classes 2
layer v width=2 r=2
layer u width=4
layer n width=4
layer p width=2
"""

INFEASIBLE_ARCH = """\
input_dim 4
classes 2
layer v width=2
layer u width=3
layer u width=2
"""

VUN_ARCH = """\
input_dim 4
classes 1
layer v width=2 r=2
layer u width=1
layer n width=1
"""

# Every u and p ancilla is dephased, so the circuit's two outputs are
# 0.25 each for every input: a tie on every sample.
TIED_ARCH = """\
input_dim 4
classes 2
layer v width=2
layer u width=2
layer p width=2
"""

XOR_TRAIN = [
    "--dataset", "xor",
    "--epochs", "3",
    "--batch", "16",
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_feasible_architecture_exits_zero(tmp_path, capsys):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    code = main(["check", "--arch", arch, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    assert report["passed"] is True
    assert (tmp_path / "out" / "manifest.json").exists()


def test_check_infeasible_architecture_exits_one(tmp_path, capsys):
    arch = write(tmp_path, "bad.arch", INFEASIBLE_ARCH)
    code = main(["check", "--arch", arch, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "principle 4" in out
    assert "infeasible" in out


def test_check_malformed_file_exits_two(tmp_path, capsys):
    arch = write(tmp_path, "broken.arch", "input_dim 4\nclasses 2\nlayer z width=1\n")
    code = main(["check", "--arch", arch, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err


def test_check_is_fast(tmp_path):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    start = time.monotonic()
    main(["check", "--arch", arch, "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def test_train_writes_all_artifacts(tmp_path, capsys):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    out = tmp_path / "run"
    code = main(["train", "--arch", arch, *XOR_TRAIN, "--out", str(out)])
    assert code == 0
    assert "test_accuracy=" in capsys.readouterr().out

    rows = read_csv(out / "results.csv")
    assert len(rows) == 1
    assert rows[0]["architecture"] == "v*2+u+n+p"
    assert rows[0]["schema"] == "1"
    assert 0.0 <= float(rows[0]["test_accuracy"]) <= 1.0

    metrics = read_csv(out / "metrics.csv")
    assert len(metrics) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["seed"] == 0
    assert (out / "checkpoint.json").exists()


def test_csv_rows_are_written_as_dict_writer_writes_them(tmp_path):
    # a missing key is an empty field; an unknown key is refused
    columns = ["epoch", "train_loss", "test_accuracy"]
    rows = [{"epoch": 1, "train_loss": 0.1 + 0.2}, {"epoch": 2, "train_loss": "a,b", "test_accuracy": None}]
    _write_csv(tmp_path / "new.csv", columns, rows)
    with open(tmp_path / "dict.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "dict.csv").read_bytes()
    with pytest.raises(ValueError, match="fields not in fieldnames"):
        _write_csv(tmp_path / "bad.csv", columns, [{"epoch": 1, "loss": 0.5}])


def test_train_is_bit_identical_across_reruns(tmp_path):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    main(["train", "--arch", arch, *XOR_TRAIN, "--out", str(tmp_path / "a")])
    main(["train", "--arch", arch, *XOR_TRAIN, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.csv").read_text() == (
        tmp_path / "b" / "metrics.csv"
    ).read_text()
    assert (tmp_path / "a" / "results.csv").read_text() == (
        tmp_path / "b" / "results.csv"
    ).read_text()


def test_eval_untrained_checkpoint_sits_near_chance(tmp_path, capsys):
    from qnnkit.arch import from_kinds
    from qnnkit.model import init_parameters, save_checkpoint

    arch = from_kinds(4, 2, "vu")
    ckpt = tmp_path / "fresh.json"
    save_checkpoint(ckpt, arch, init_parameters(arch, seed=0))
    code = main(
        ["eval", "--checkpoint", str(ckpt), "--dataset", "xor", "--out",
         str(tmp_path / "eval")]
    )
    assert code == 0
    acc = float(read_csv(tmp_path / "eval" / "results.csv")[0]["test_accuracy"])
    assert 0.25 <= acc <= 0.75  # a 2-class untrained model hovers near 1/2


def test_eval_roundtrips_checkpoint(tmp_path, capsys):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    out = tmp_path / "run"
    main(["train", "--arch", arch, *XOR_TRAIN, "--out", str(out)])
    trained = read_csv(out / "results.csv")[0]
    # older checkpoints store a "theta_mode" on every layer; it is ignored
    payload = json.loads((out / "checkpoint.json").read_text())
    for layer in payload["architecture"]["layers"]:
        layer["theta_mode"] = "per-channel"
    older = write(tmp_path, "older.json", json.dumps(payload))

    for checkpoint in (str(out / "checkpoint.json"), older):
        code = main(
            ["eval", "--checkpoint", checkpoint, "--dataset", "xor", "--out", str(tmp_path / "eval")]
        )
        assert code == 0
        evaluated = read_csv(tmp_path / "eval" / "results.csv")[0]
        assert float(evaluated["test_accuracy"]) == pytest.approx(
            float(trained["test_accuracy"])
        )


def test_a_net_with_no_v_layer_trains_evaluates_and_verifies(tmp_path, capsys):
    # its checkpoint holds no v blocks, "v_thetas": [], and loads back
    arch = write(tmp_path, "un.arch", UN_ARCH)
    ckpt = str(tmp_path / "train" / "checkpoint.json")
    runs = [
        ["train", "--arch", arch, *XOR_TRAIN, "--out", str(tmp_path / "train")],
        ["eval", "--checkpoint", ckpt, "--dataset", "xor", "--out", str(tmp_path / "eval")],
        ["verify", "--arch", arch, "--checkpoint", ckpt, "--out", str(tmp_path / "verify")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv[0]
    assert json.loads(Path(ckpt).read_text())["parameters"]["v_thetas"] == []
    trained = read_csv(tmp_path / "train" / "results.csv")[0]
    evaluated = read_csv(tmp_path / "eval" / "results.csv")[0]
    assert evaluated["test_accuracy"] == trained["test_accuracy"]
    rows = read_csv(tmp_path / "verify" / "verify.csv")
    assert max(float(r["max_abs_deviation"]) for r in rows) <= 1e-15


def test_eval_missing_checkpoint_exits_two(tmp_path, capsys):
    no_params = tmp_path / "no_params.json"
    no_params.write_text(
        '{"format": "qnnkit-checkpoint", "version": 1, "architecture": {"input_dim": 4,'
        ' "num_classes": 2, "layers": [{"kind": "v", "width": 2, "repeat": 1,'
        ' "theta_mode": "shared"}]}}'
    )
    cases = [(tmp_path / "missing.json", "No such file"), (no_params, "missing field 'parameters'")]
    for path, reason in cases:
        code = main(["eval", "--checkpoint", str(path), "--dataset", "xor", "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err


def test_verify_checkpoint_with_wrong_shapes_exits_two(tmp_path, capsys):
    from qnnkit.arch import parse_architecture
    from qnnkit.model import init_parameters, save_checkpoint

    spec = parse_architecture(FEASIBLE_ARCH)
    ckpt = tmp_path / "short.json"
    save_checkpoint(ckpt, spec, init_parameters(spec, seed=0))
    payload = json.loads(ckpt.read_text())
    for row in payload["parameters"]["v_thetas"]:
        row.pop()  # every row one angle short, which save_checkpoint refuses to write
    ckpt.write_text(json.dumps(payload))
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    code = main(["verify", "--arch", arch, "--checkpoint", str(ckpt), "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "shapes" in err


# ---------------------------------------------------------------------------
# bad input: one error line, exit 2
# ---------------------------------------------------------------------------

WIDE_ARCH = "input_dim 16\nclasses 2\nlayer v width=4\nlayer u width=2\n"

# QuantumFlow-style: no v layer, so train, eval and verify take it, and
# sweep, which varies the v-layer repeats, refuses it.
UN_ARCH = "input_dim 4\nclasses 2\nlayer u width=2\nlayer n width=2\n"

# Fits the template, and check and verify take it, but it cannot train:
# with one class the loss and every gradient are 0.
ONE_CLASS_ARCH = "input_dim 16\nclasses 1\nlayer v width=4\nlayer u width=1\n"
ONE_CLASS_MNIST = ["--dataset", "mnist", "--classes", "3", "--data-dir", "{tmp}/valid", "--epochs", "1"]

# Outside the trainable template v* u? [np]*, though the file parses.
U_FIRST_ARCH = "input_dim 4\nclasses 2\nlayer u width=2\nlayer u width=2\n"
VPU_ARCH = "input_dim 4\nclasses 2\nlayer v width=2\nlayer p width=2\nlayer u width=2\n"
# n layers have one angle per channel; there is no theta= option
THETA_ARCH = FEASIBLE_ARCH.replace("layer n width=4", "layer n width=4 theta=shared")
# a key given twice is an error, not a silent overwrite by the later value
REPEATED_OPTION_ARCH = FEASIBLE_ARCH.replace("layer v width=2 r=2", "layer v width=2 r=2 r=1")
REPEATED_HEADER_ARCH = FEASIBLE_ARCH + "classes 2\n"

# Checkpoints whose keys are right but one value is wrong: it has the
# wrong JSON type, or it asks for 10^11 v blocks, whose 2.91 TiB of angles
# the file does not hold and no loader should draw.
_GOOD_CHECKPOINT_ARCH = {
    "input_dim": 4,
    "num_classes": 2,
    "layers": [{"kind": "v", "width": 2, "repeat": 1, "theta_mode": "per-channel"}],
}
BAD_CHECKPOINTS = {
    "arch-list": [],
    "layer-int": dict(_GOOD_CHECKPOINT_ARCH, layers=[7]),
    "input-dim-str": dict(_GOOD_CHECKPOINT_ARCH, input_dim="16"),
    "huge-repeat": dict(_GOOD_CHECKPOINT_ARCH, layers=[{"kind": "v", "width": 2, "repeat": 10**11}]),
}


def write_bad_checkpoints(tmp_path):
    """{tmp}/<name>.json for every malformed checkpoint that BAD_INPUT_CASES
    names: each of BAD_CHECKPOINTS, and ok.arch's own checkpoint with a NaN
    angle, with "repeat": 2.0, with "version": true, with "v_thetas": [],
    which a net with no v layer saves, or with an angle of "1" or true;
    {tmp}/deep.json nests too deeply to read."""
    from qnnkit.arch import parse_architecture
    from qnnkit.model import init_parameters, save_checkpoint

    ok = parse_architecture(FEASIBLE_ARCH)
    nan_params = init_parameters(ok)
    nan_params.v_thetas[0, 0] = np.nan
    save_checkpoint(tmp_path / "nan.json", ok, nan_params)
    save_checkpoint(tmp_path / "ok.json", ok, init_parameters(ok))
    saved = json.loads((tmp_path / "ok.json").read_text())
    saved["architecture"]["layers"][0]["repeat"] = 2.0
    write(tmp_path, "float-repeat.json", json.dumps(saved))
    saved["architecture"]["layers"][0]["repeat"] = 2
    write(tmp_path, "version-true.json", json.dumps(dict(saved, version=True)))
    no_v = dict(saved["parameters"], v_thetas=[])
    write(tmp_path, "empty-v.json", json.dumps(dict(saved, parameters=no_v)))
    for name, angle in (("angle-str", "1"), ("angle-true", True)):
        saved["parameters"]["v_thetas"][0][0] = angle
        write(tmp_path, f"{name}.json", json.dumps(saved))
    write(tmp_path, "deep.json", "[" * 200000 + "]" * 200000)
    for name, architecture in BAD_CHECKPOINTS.items():
        payload = {"format": "qnnkit-checkpoint", "version": 1, "architecture": architecture}
        payload["parameters"] = {"v_thetas": [[0.0] * 4], "uw_latent": None, "n_thetas": [], "pw_latent": []}
        write(tmp_path, f"{name}.json", json.dumps(payload))


def write_bad_mnist_dirs(tmp_path):
    """{tmp}/bad-magic holds a plain train-images file with a wrong magic,
    {tmp}/truncated-gz a train-labels .gz cut to 20 bytes, and
    {tmp}/empty-train and {tmp}/empty-test a split with none of the default
    classes 3 and 6; the rest, and all of {tmp}/valid, is valid."""
    from qnnkit import data

    images = np.zeros((2, 28, 28), dtype=np.uint8)
    split_labels = {  # name: (train labels, test labels)
        "bad-magic": ([3, 6], [3, 6]),
        "truncated-gz": ([3, 6], [3, 6]),
        "empty-train": ([0, 1], [3, 6]),
        "empty-test": ([3, 6], [0, 1]),
        "valid": ([3, 6], [3, 6]),
    }
    for name, labels in split_labels.items():
        directory = tmp_path / name
        directory.mkdir()
        for images_name, labels_name, split in (
            (data.TRAIN_IMAGES, data.TRAIN_LABELS, labels[0]),
            (data.TEST_IMAGES, data.TEST_LABELS, labels[1]),
        ):
            data.write_idx(
                directory / (images_name + ".gz"),
                directory / (labels_name + ".gz"),
                images,
                np.array(split, dtype=np.uint8),
            )
    (tmp_path / "bad-magic" / data.TRAIN_IMAGES).write_bytes(bytes.fromhex("deadbeef") + bytes(12))
    cut = tmp_path / "truncated-gz" / (data.TRAIN_LABELS + ".gz")
    cut.write_bytes(cut.read_bytes()[:20])


BAD_INPUT_CASES = {
    "check-missing-arch": (["check", "--arch", "{tmp}/none.arch"], "No such file"),
    "verify-missing-arch": (["verify", "--arch", "{tmp}/none.arch"], "No such file"),
    "train-missing-arch": (["train", "--arch", "{tmp}/none.arch", *XOR_TRAIN], "No such file"),
    "sweep-missing-arch": (["sweep", "--arch", "{tmp}/none.arch", *XOR_TRAIN], "No such file"),
    "train-missing-mnist": (["train", "--arch", "{tmp}/wide.arch", "--data-dir", "{tmp}/empty"], "MNIST"),
    "eval-missing-mnist": (["eval", "--checkpoint", "{tmp}/wide.json", "--data-dir", "{tmp}/empty"], "MNIST"),
    "train-input-dim-mismatch": (["train", "--arch", "{tmp}/wide.arch", *XOR_TRAIN], "input_dim 16"),
    "train-bad-idx-magic": (
        ["train", "--arch", "{tmp}/wide.arch", "--data-dir", "{tmp}/bad-magic"],
        "bad-magic/train-images-idx3-ubyte: bad image magic 0xdeadbeef",
    ),
    "train-truncated-gz": (
        ["train", "--arch", "{tmp}/wide.arch", "--data-dir", "{tmp}/truncated-gz"],
        "truncated-gz/train-labels-idx1-ubyte.gz: corrupt gzip stream",
    ),
    "train-empty-test-split": (
        ["train", "--arch", "{tmp}/wide.arch", "--data-dir", "{tmp}/empty-test"],
        "mnist-2 test split is empty",
    ),
    "sweep-empty-train-split": (
        ["sweep", "--arch", "{tmp}/wide.arch", "--data-dir", "{tmp}/empty-train"],
        "mnist-2 train split is empty",
    ),
    "train-too-few-classes": (["train", "--arch", "{tmp}/vun.arch", *XOR_TRAIN], "1 classes"),
    # the data fit, one class each, so the refusal is train's own
    "train-one-class": (
        ["train", "--arch", "{tmp}/one-class.arch", *ONE_CLASS_MNIST],
        "one-class.arch: training needs at least 2 classes, v+u has 1",
    ),
    # before the first run, not as a failed run (exit 1)
    "sweep-one-class": (
        ["sweep", "--arch", "{tmp}/one-class.arch", *ONE_CLASS_MNIST],
        "one-class.arch: training needs at least 2 classes, v+u has 1",
    ),
    "train-resolution-5": (
        ["train", "--arch", "{tmp}/ok.arch", "--resolution", "5"],
        "invalid choice: 5 (choose from 4, 8, 16)",
    ),
    "epochs-zero": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--epochs", "0"], "positive integer"),
    "batch-zero": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--batch", "0"], "positive integer"),
    "samples-negative": (["verify", "--arch", "{tmp}/ok.arch", "--samples", "-1"], "positive integer"),
    "classes-not-digits": (["train", "--arch", "{tmp}/ok.arch", "--classes", "3,x"], "digits"),
    "check-non-utf8-arch": (["check", "--arch", "{tmp}/binary.arch"], "not UTF-8"),
    "max-qubits-negative": (["verify", "--arch", "{tmp}/ok.arch", "--max-qubits", "-3"], "positive integer"),
    "temperature-zero": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--temperature", "0"], "--temperature must be a finite number > 0, got 0.0"),
    "temperature-nan": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--temperature", "nan"], "> 0"),
    "temperature-negative": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--temperature", "-1"], "> 0"),
    "lr-infinite": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--lr", "inf"], "> 0"),
    "sweep-lr-zero": (["sweep", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--lr", "0"], "> 0"),
    "momentum-negative": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--momentum", "-0.5"], "--momentum must be a finite number >= 0, got -0.5"),
    "lr-decay-infinite": (["sweep", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--lr-decay", "inf"], "--lr-decay must be a finite number >= 0, got inf"),
    "train-u-first": (["train", "--arch", "{tmp}/ufirst.arch", *XOR_TRAIN], "ufirst.arch: after the v/u stage"),
    # before any dataset is read: {tmp}/empty holds no MNIST files
    "sweep-no-v-layer": (
        ["sweep", "--arch", "{tmp}/un.arch", "--data-dir", "{tmp}/empty"],
        "un.arch: sweep varies v-layer repeats, and u+n has no v layer",
    ),
    "verify-v-p-u": (["verify", "--arch", "{tmp}/vpu.arch"], "vpu.arch: after the v/u stage"),
    "sweep-v-p-u": (["sweep", "--arch", "{tmp}/vpu.arch", *XOR_TRAIN], "vpu.arch: after the v/u stage"),
    # outside the template and infeasible: train checks the template first
    "train-v-u-u": (["train", "--arch", "{tmp}/vuu.arch", *XOR_TRAIN], "vuu.arch: after the v/u stage"),
    "train-v-p-u": (["train", "--arch", "{tmp}/vpu.arch", *XOR_TRAIN], "vpu.arch: after the v/u stage"),
    "eval-checkpoint-arch-list": (
        ["eval", "--checkpoint", "{tmp}/arch-list.json", "--dataset", "xor"],
        "arch-list.json: a field has the wrong type",
    ),
    "eval-checkpoint-layer-int": (
        ["eval", "--checkpoint", "{tmp}/layer-int.json", "--dataset", "xor"],
        "layer-int.json: a field has the wrong type",
    ),
    "eval-checkpoint-huge-repeat": (
        ["eval", "--checkpoint", "{tmp}/huge-repeat.json", "--dataset", "xor"],
        "huge-repeat.json: parameter shapes",
    ),
    "verify-checkpoint-input-dim-str": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/input-dim-str.json"],
        "input-dim-str.json: a field has the wrong type",
    ),
    "eval-checkpoint-nan": (
        ["eval", "--checkpoint", "{tmp}/nan.json", "--dataset", "xor"],
        "nan.json: a parameter value is not finite",
    ),
    "verify-checkpoint-nan": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/nan.json"],
        "nan.json: a parameter value is not finite",
    ),
    # 200000 nested brackets: json.load runs out of stack, not of input
    "eval-checkpoint-deep": (
        ["eval", "--checkpoint", "{tmp}/deep.json", "--dataset", "xor"],
        "deep.json: JSON nested too deeply to read",
    ),
    "verify-checkpoint-deep": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/deep.json"],
        "deep.json: JSON nested too deeply to read",
    ),
    # ok.arch's own checkpoint with "repeat": 2.0, which equals 2
    "eval-checkpoint-float-repeat": (
        ["eval", "--checkpoint", "{tmp}/float-repeat.json", "--dataset", "xor"],
        "float-repeat.json: a field has the wrong type (v-layer repeat must be an integer, got 2.0)",
    ),
    "verify-checkpoint-float-repeat": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/float-repeat.json"],
        "float-repeat.json: a field has the wrong type (v-layer repeat must be an integer, got 2.0)",
    ),
    # ok.arch's own checkpoint with no v blocks, as a v-free net saves them
    "verify-checkpoint-empty-v": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/empty-v.json"],
        "empty-v.json: parameter shapes",
    ),
    # ok.arch's own checkpoint with "version": true, which equals 1
    "eval-checkpoint-version-true": (
        ["eval", "--checkpoint", "{tmp}/version-true.json", "--dataset", "xor"],
        "version-true.json: unsupported checkpoint version True",
    ),
    "verify-checkpoint-version-true": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/version-true.json"],
        "version-true.json: unsupported checkpoint version True",
    ),
    # ok.arch's own checkpoint with an angle of "1" or true, which float() reads as 1.0
    "eval-checkpoint-angle-str": (
        ["eval", "--checkpoint", "{tmp}/angle-str.json", "--dataset", "xor"],
        'angle-str.json: a parameter value is not a number: "1"',
    ),
    "verify-checkpoint-angle-str": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/angle-str.json"],
        'angle-str.json: a parameter value is not a number: "1"',
    ),
    "eval-checkpoint-angle-true": (
        ["eval", "--checkpoint", "{tmp}/angle-true.json", "--dataset", "xor"],
        "angle-true.json: a parameter value is not a number: true",
    ),
    "verify-checkpoint-angle-true": (
        ["verify", "--arch", "{tmp}/ok.arch", "--checkpoint", "{tmp}/angle-true.json"],
        "angle-true.json: a parameter value is not a number: true",
    ),
    "train-seed-negative": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--seed", "-1"], "non-negative integer"),
    "verify-seed-negative": (["verify", "--arch", "{tmp}/ok.arch", "--seed", "-1"], "non-negative integer"),
    "train-theta-option": (["train", "--arch", "{tmp}/theta.arch", *XOR_TRAIN], "theta.arch: line 5: unknown layer option 'theta'"),
    "train-repeated-option": (["train", "--arch", "{tmp}/repeated-option.arch", *XOR_TRAIN], "repeated-option.arch: line 3: repeated layer option 'r'"),
    "train-repeated-header": (["train", "--arch", "{tmp}/repeated-header.arch", *XOR_TRAIN], "repeated-header.arch: line 7: repeated classes header"),
    # removed options, not abbreviations of --resolution or --r-min/--r-max
    "train-r": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--r", "4"], "unrecognized arguments: --r 4"),
    "sweep-r": (["sweep", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--r", "2"], "unrecognized arguments: --r 2"),
    "train-verbose": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--verbose"], "unrecognized arguments: --verbose"),
    "check-seed": (["check", "--arch", "{tmp}/ok.arch", "--seed", "1"], "unrecognized arguments: --seed 1"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT_CASES))
def test_bad_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    from qnnkit.arch import parse_architecture
    from qnnkit.model import init_parameters, save_checkpoint

    argv, reason = BAD_INPUT_CASES[case]
    if "mnist" in case and importlib.util.find_spec("mlxtend") is not None:
        pytest.skip("MNIST or its mlxtend fallback is installed")
    write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    write(tmp_path, "wide.arch", WIDE_ARCH)
    write(tmp_path, "vun.arch", VUN_ARCH)
    write(tmp_path, "ufirst.arch", U_FIRST_ARCH)
    write(tmp_path, "un.arch", UN_ARCH)
    write(tmp_path, "vpu.arch", VPU_ARCH)
    write(tmp_path, "vuu.arch", INFEASIBLE_ARCH)
    write(tmp_path, "theta.arch", THETA_ARCH)
    write(tmp_path, "repeated-option.arch", REPEATED_OPTION_ARCH)
    write(tmp_path, "repeated-header.arch", REPEATED_HEADER_ARCH)
    write(tmp_path, "one-class.arch", ONE_CLASS_ARCH)
    (tmp_path / "binary.arch").write_bytes(b"\x80\x81")
    write_bad_mnist_dirs(tmp_path)
    wide = parse_architecture(WIDE_ARCH)
    save_checkpoint(tmp_path / "wide.json", wide, init_parameters(wide))
    write_bad_checkpoints(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad option value itself
        code = exc.code
    assert_one_error_line(capsys, code, 2, reason)


def test_a_cli_run_on_zero_images_writes_only_its_error_line(tmp_path):
    # the all-zero warning of data.prepare must not reach stderr through
    # Python's last-resort handler; pytest's log capture would hide it
    # in-process, so the command runs in its own interpreter
    write(tmp_path, "one-class.arch", ONE_CLASS_ARCH)
    write_bad_mnist_dirs(tmp_path)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    argv = ["train", "--arch", "{tmp}/one-class.arch", *ONE_CLASS_MNIST, "--out", "{tmp}/out"]
    result = subprocess.run(
        [sys.executable, "-m", "qnnkit.cli", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr == (
        f"error: {tmp_path / 'one-class.arch'}: training needs at least 2 classes, v+u has 1\n"
    )


def test_the_checkpoint_reader_raises_value_error_for_every_malformed_file(tmp_path):
    # the CLI adds only the path: each message is load_checkpoint's own
    from qnnkit.model import load_checkpoint

    write_bad_checkpoints(tmp_path)
    good = json.loads((tmp_path / "ok.json").read_text())
    del good["parameters"]
    write(tmp_path, "no-parameters.json", json.dumps(good))
    good = json.loads((tmp_path / "ok.json").read_text())
    good["parameters"]["n_thetas"] = 5
    write(tmp_path, "n-thetas-int.json", json.dumps(good))
    expected = {
        "no-parameters.json": "missing field 'parameters'",
        "n-thetas-int.json": "a field has the wrong type ('int' object is not iterable)",
    }
    for argv, reason in BAD_INPUT_CASES.values():
        if "--checkpoint" in argv:
            name = Path(argv[argv.index("--checkpoint") + 1]).name
            if reason.startswith(f"{name}: "):
                expected[name] = reason.removeprefix(f"{name}: ")
    assert len(expected) == 13  # the two above and eleven in BAD_INPUT_CASES
    for name, message in expected.items():
        with pytest.raises(ValueError) as info:
            load_checkpoint(tmp_path / name)
        assert str(info.value).startswith(message), name


def test_check_takes_a_one_class_net(tmp_path, capsys):
    # train and sweep refuse it (BAD_INPUT_CASES); verify takes it in
    # test_verify_single_neuron_chain_is_exact
    assert main(["check", "--arch", str(NETS / "vun.arch"), "--out", str(tmp_path)]) == 0


def test_check_exits_one_on_v_p_u(tmp_path, capsys):
    # check judges the junctions (p -> u is path 7) and exits 1; train,
    # verify and sweep refuse the same file with exit 2 (BAD_INPUT_CASES)
    arch = write(tmp_path, "vpu.arch", VPU_ARCH)
    assert main(["check", "--arch", arch, "--out", str(tmp_path / "out")]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def assert_one_error_line(capsys, code, expected_code, reason):
    lines = capsys.readouterr().err.splitlines()
    assert code == expected_code
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert len(lines) == 1 or lines[0].startswith("usage:")
    assert reason in lines[-1]


def test_option_defaults_read_train_config_and_the_qubit_cap():
    from qnnkit.cli import _train_config
    from qnnkit.model import DEFAULT_MAX_QUBITS, TrainConfig

    parser = build_parser()
    for command in ("train", "sweep"):
        assert _train_config(parser.parse_args([command, "--arch", "a.arch"])) == TrainConfig()
    assert parser.parse_args(["verify", "--arch", "a.arch"]).max_qubits == DEFAULT_MAX_QUBITS


def test_a_range_error_names_the_option_not_the_field():
    # argparse refuses --batch 0 itself, so set the parsed value directly
    from qnnkit.cli import UsageError, _train_config

    args = build_parser().parse_args(["train", "--arch", "a.arch"])
    args.batch_size = 0
    with pytest.raises(UsageError, match="^--batch must be a positive integer, got 0$"):
        _train_config(args)


def test_every_training_option_reaches_train_config():
    from qnnkit.cli import _train_config
    from qnnkit.model import TrainConfig

    options = [
        "--epochs", "7", "--batch", "5", "--lr", "0.3", "--momentum", "0.5",
        "--temperature", "0.125", "--lr-decay", "0.75", "--keep-best", "--seed", "11",
    ]
    expected = TrainConfig(
        epochs=7, batch_size=5, lr=0.3, momentum=0.5, temperature=0.125, lr_decay=0.75,
        keep_best=True, seed=11,
    )
    assert all(getattr(expected, f) != getattr(TrainConfig(), f) for f in vars(expected))
    parser = build_parser()
    for command in ("train", "sweep"):
        assert _train_config(parser.parse_args([command, "--arch", "a.arch", *options])) == expected


def test_readme_names_every_option_and_only_real_ones():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
        if flag.startswith("--")
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sorted(o for o in options if f"`{o}`" not in readme) == []
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert sorted(named - options - {"--version", "--help"}) == []


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would be extra lines
def test_diverged_training_exits_one_with_one_error_line(tmp_path, capsys):
    # a subnormal temperature is valid input, but probs / temperature overflows
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    argv = ["train", "--arch", arch, *XOR_TRAIN, "--temperature", "1e-320", "--out", str(tmp_path / "out")]
    assert_one_error_line(capsys, main(argv), 1, "training diverged: non-finite loss at epoch 0")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_neuron_chain_is_exact(tmp_path, capsys):
    arch = write(tmp_path, "vun.arch", VUN_ARCH)
    out = tmp_path / "verify"
    code = main(["verify", "--arch", arch, "--samples", "10", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "verify.csv")
    assert len(rows) == 10
    assert all(float(r["max_abs_deviation"]) < 1e-9 for r in rows)
    assert all(r["argmax_agree"] == "1" for r in rows)


def test_verify_rejects_checkpoint_of_another_architecture(tmp_path, capsys):
    from qnnkit.arch import parse_architecture
    from qnnkit.model import init_parameters, save_checkpoint

    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    same = parse_architecture(FEASIBLE_ARCH)
    ckpt = tmp_path / "same.json"
    save_checkpoint(ckpt, same, init_parameters(same, seed=0))
    assert main(["verify", "--arch", arch, "--checkpoint", str(ckpt), "--samples", "2",
                 "--out", str(tmp_path / "same")]) == 0
    capsys.readouterr()

    other = parse_architecture(VUN_ARCH)
    ckpt = tmp_path / "vun.json"
    save_checkpoint(ckpt, other, init_parameters(other, seed=0))
    code = main(["verify", "--arch", arch, "--checkpoint", str(ckpt), "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "v" / "verify.csv").exists()


def test_verify_does_not_count_ties_as_agreement(tmp_path, capsys):
    arch = write(tmp_path, "tied.arch", TIED_ARCH)
    out = tmp_path / "verify"
    code = main(["verify", "--arch", arch, "--samples", "5", "--out", str(out)])
    assert code == 0
    assert "argmax agreement 0/5 (5 tied" in capsys.readouterr().out
    assert [r["argmax_agree"] for r in read_csv(out / "verify.csv")] == ["0"] * 5


def test_verify_respects_qubit_cap(tmp_path, capsys):
    arch = write(
        tmp_path,
        "wide.arch",
        "input_dim 16\nclasses 2\nlayer v width=4\nlayer u width=8\nlayer p width=2\n",
    )
    code = main(
        [
            "verify",
            "--arch",
            str(arch),
            "--samples",
            "1",
            "--max-qubits",
            "12",
            "--out",
            str(tmp_path / "v"),
        ]
    )
    assert code == 1
    # compiled, this net has 42 qubits; the factored simulation builds the
    # last output's table from 2^8 basis states of 8 + 2 qubits
    assert "needs 18 qubits" in capsys.readouterr().err


def test_verify_checks_the_cap_before_drawing_anything(tmp_path, capsys):
    # one input of this net alone would take 8 TiB
    arch = write(tmp_path, "huge.arch", "input_dim 1099511627776\nclasses 1\nlayer v width=40\n")
    code = main(["verify", "--arch", arch, "--samples", "1", "--out", str(tmp_path / "v")])
    assert_one_error_line(capsys, code, 1, "needs 80 qubits, cap is 24")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 2.91 TiB for an array", ""])
def test_memory_error_exits_one_with_one_error_line(tmp_path, capsys, monkeypatch, message):
    import qnnkit.cli

    def refuse(arch, seed=0):
        raise MemoryError(message)

    # train on a file with r=100000000000 reaches init_parameters like this,
    # however the host answers the allocation
    monkeypatch.setattr(qnnkit.cli, "init_parameters", refuse)
    arch = write(tmp_path, "huge.arch", FEASIBLE_ARCH.replace("r=2", "r=100000000000"))
    code = main(["train", "--arch", arch, *XOR_TRAIN, "--out", str(tmp_path / "out")])
    assert_one_error_line(capsys, code, 1, f"error: {message or 'out of memory'}")


def test_verify_runs_a_net_too_wide_to_compile_within_the_cap(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify", "--arch", str(NETS / "mnist4-vu.arch"), "--samples", "2",
                 "--out", str(out)])
    assert code == 0
    assert all(float(r["max_abs_deviation"]) <= 1e-9 for r in read_csv(out / "verify.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["compiled_qubits"], manifest["simulated_qubits"]) == (28, 14)


@pytest.mark.parametrize(
    "name, qubits", [("mixed", (22, 10, 4)), ("mnist2-vu", (10, 9, 1)), ("vun", (3, 5, 1))]
)
def test_verify_reports_the_widest_light_cone(tmp_path, name, qubits):
    # a p layer reads every stage qubit, so its outputs' cones hold all k
    # u ancillas; without one, each output reads its own stage qubit
    out = tmp_path / "verify"
    assert main(["verify", "--arch", str(NETS / f"{name}.arch"), "--samples", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    keys = ("compiled_qubits", "simulated_qubits", "observable_qubits")
    assert tuple(manifest[key] for key in keys) == qubits


@pytest.mark.parametrize("name, tied", [("mixed", True), ("mnist2-vu", False)])
def test_verify_csv_is_the_per_row_rule_on_the_batched_halves(tmp_path, capsys, name, tied):
    # verify compares each chunk as arrays; every row of verify.csv and the
    # summary are the one-row-at-a-time rule on the same draws, across a
    # chunk boundary: mixed's exact outputs tie every row, mnist2-vu's none
    from qnnkit.arch import load_architecture
    from qnnkit.cli import TIE_ATOL, VERIFY_ROWS
    from qnnkit.model import circuit_inference_batch, forward_batch, init_parameters

    samples, seed = VERIFY_ROWS + 76, 7
    out = tmp_path / "verify"
    argv = ["verify", "--arch", str(NETS / f"{name}.arch"), "--samples", str(samples)]
    assert main([*argv, "--seed", str(seed), "--out", str(out)]) == 0
    arch = load_architecture(NETS / f"{name}.arch")
    params = init_parameters(arch, seed)
    X = np.random.default_rng(seed).uniform(0.01, 1.0, size=(samples, arch.input_dim))
    halves = zip(forward_batch(arch, params, X).probs, circuit_inference_batch(arch, params, X))
    expected, worst, agree, ties = [], 0.0, 0, 0
    for i, (factorized, exact) in enumerate(halves):
        deviation = float(np.max(np.abs(factorized - exact)))
        tie = any(np.sum(p >= p.max() - TIE_ATOL) > 1 for p in (factorized, exact))
        match = int(not tie and np.argmax(factorized) == np.argmax(exact))
        expected.append({"sample": str(i), "max_abs_deviation": str(deviation), "argmax_agree": str(match)})
        worst, agree, ties = max(worst, deviation), agree + match, ties + tie
    assert read_csv(out / "verify.csv") == expected
    assert ties == (samples if tied else 0)
    assert capsys.readouterr().out == (
        f"verify: {samples} samples, max deviation {worst:.3e}, "
        f"argmax agreement {agree}/{samples} ({ties} tied, not counted)\n"
    )


@pytest.mark.parametrize("chunk", [1024, 4])
def test_verify_checks_the_inputs_of_one_draw_per_sample(tmp_path, capsys, monkeypatch, chunk):
    # verify draws its inputs as (R, d) arrays, R rows at a time: the values of R draws of d
    import qnnkit.cli
    from qnnkit.arch import load_architecture
    from qnnkit.model import circuit_inference, forward, init_parameters

    monkeypatch.setattr(qnnkit.cli, "VERIFY_ROWS", chunk)
    out = tmp_path / "verify"
    argv = ["verify", "--arch", str(NETS / "mixed.arch"), "--samples", "6", "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    arch = load_architecture(NETS / "mixed.arch")
    params = init_parameters(arch, 3)
    rng = np.random.default_rng(3)
    deviations = []
    for row in read_csv(out / "verify.csv"):
        x = rng.uniform(0.01, 1.0, size=arch.input_dim)
        deviation = np.max(np.abs(forward(arch, params, x).probs[0] - circuit_inference(arch, params, x)))
        assert float(row["max_abs_deviation"]) == pytest.approx(deviation, rel=0, abs=1e-15)
        deviations.append(deviation)
    assert len(deviations) == 6 and min(np.diff(sorted(deviations))) > 1e-6  # each input shows


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_one_row_per_r(tmp_path, capsys):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--arch",
            arch,
            "--r-min",
            "1",
            "--r-max",
            "2",
            *XOR_TRAIN,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert [r["r"] for r in rows] == ["1", "2"]


def test_sweep_single_value_gives_single_row(tmp_path):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    out = tmp_path / "sweep"
    main(
        ["sweep", "--arch", arch, "--r-min", "2", "--r-max", "2", *XOR_TRAIN,
         "--out", str(out)]
    )
    assert len(read_csv(out / "sweep.csv")) == 1


def test_sweep_row_matches_a_train_run_at_that_r(tmp_path, capsys):
    one = write(tmp_path, "r1.arch", FEASIBLE_ARCH.replace(" r=2", ""))
    main(["train", "--arch", one, *XOR_TRAIN, "--out", str(tmp_path / "t")])
    two = write(tmp_path, "r2.arch", FEASIBLE_ARCH)
    main(["sweep", "--arch", two, "--r-min", "1", "--r-max", "1", *XOR_TRAIN,
          "--out", str(tmp_path / "s")])
    trained = read_csv(tmp_path / "t" / "results.csv")[0]
    (row,) = read_csv(tmp_path / "s" / "sweep.csv")
    assert (row["train_accuracy"], row["test_accuracy"]) == (
        trained["train_accuracy"], trained["test_accuracy"]
    )


def test_sweep_keeps_the_finished_rows_when_a_run_fails(tmp_path, capsys, monkeypatch):
    import qnnkit.cli

    run = qnnkit.cli._run_training

    def fail_at_two(args, arch, train_ds, test_ds):
        if arch.layers[0].repeat == 2:
            raise FloatingPointError("no r=2 today")
        return run(args, arch, train_ds, test_ds)

    monkeypatch.setattr(qnnkit.cli, "_run_training", fail_at_two)
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    out = tmp_path / "sweep"
    code = main(["sweep", "--arch", arch, "--r-min", "1", "--r-max", "3", *XOR_TRAIN,
                 "--out", str(out)])
    assert_one_error_line(capsys, code, 1, "error: run r=2 failed: no r=2 today")
    assert [r["r"] for r in read_csv(out / "sweep.csv")] == ["1"]


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    code = main(
        ["sweep", "--arch", arch, "--r-min", "3", "--r-max", "1", "--out",
         str(tmp_path / "s")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# fuzzed architecture files: exit 0, 1 or 2, and exit 2 in one error line
# ---------------------------------------------------------------------------

# small values, the huge ones of the robustness cases, and non-numbers
_FUZZ_VALUES = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["0", "6", "8", "16", "40", "64", str(2**40), str(10**11)]),
    st.sampled_from(["x", "1.5", "0x10", "-", "2e3"]),
)
_FUZZ_JUNK = st.sampled_from(
    ["bogus 1", "layer v", "layer q width=2", "input_dim", "classes 1 2", "layer v r=2"]
)
# every state verify simulates then has at most 16 qubits (1 MiB)
_FUZZ_CAP = 16


@st.composite
def arch_files(draw):
    """Files on 1 to 40 qubits, some swapping values or adding a line for fuzz."""
    n = draw(st.sampled_from([1, 2, 3, 6, 40]))
    width = n
    layers = [("v", n, draw(st.integers(1, 3)))]
    for kind in draw(st.lists(st.sampled_from("vunp"), max_size=4)):
        width = n if kind == "v" else width if kind == "n" else draw(st.integers(1, 4))
        layers.append((kind, width, 1))
    lines = [["input_dim", str(2**n)], ["classes", str(width)]]
    lines += [["layer", kind, f"width={w}", f"r={r}"] for kind, w, r in layers]
    values = [(line, i) for line in lines for i in range(1, len(line)) if (line[0], i) != ("layer", 1)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        line, i = draw(st.sampled_from(values))
        key = line[i].split("=")[0] + "=" if "=" in line[i] else ""
        line[i] = key + draw(_FUZZ_VALUES)
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), [draw(_FUZZ_JUNK)])
    return "".join(" ".join(line) + "\n" for line in lines)


def _verify_is_cheap(text) -> bool:
    """Small enough to simulate, or refused before anything is drawn."""
    from qnnkit.arch import parse_architecture
    from qnnkit.model import pipeline

    try:
        arch = parse_architecture(text)
        plan = pipeline(arch)
    except ValueError:  # verify exits 2 at once
        return True
    small = arch.input_dim <= 64 and all(l.repeat <= 3 for l in arch.layers)
    return small or plan.simulated_qubits > _FUZZ_CAP


def _exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=arch_files())
def test_fuzzed_arch_files_keep_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        arch = write(Path(tmp), "fuzz.arch", text)
        runs = [["check", "--arch", arch]]
        if _verify_is_cheap(text):
            runs.append(["verify", "--arch", arch, "--samples", "1", "--max-qubits", str(_FUZZ_CAP)])
        for argv in runs:
            code, lines = _exit_code_and_stderr(argv + ["--out", str(Path(tmp) / "out")])
            assert code in (0, 1, 2), (argv[0], text)
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv[0], text, lines)
