"""CLI tests, driven through main() with temp directories."""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qnnkit.cli import main

NETS = Path(__file__).resolve().parent.parent / "nets"

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
    assert report["mid_circuit_measurements"] == 0
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


def test_train_refuses_infeasible_architecture(tmp_path, capsys):
    arch = write(tmp_path, "bad.arch", INFEASIBLE_ARCH)
    code = main(["train", "--arch", arch, *XOR_TRAIN, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "refusing to train" in capsys.readouterr().err


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
    from qnnkit.arch import vu_architecture
    from qnnkit.model import init_parameters, save_checkpoint

    arch = vu_architecture(4, 2, r1=1)
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

    code = main(
        [
            "eval",
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--dataset",
            "xor",
            "--out",
            str(tmp_path / "eval"),
        ]
    )
    assert code == 0
    evaluated = read_csv(tmp_path / "eval" / "results.csv")[0]
    assert float(evaluated["test_accuracy"]) == pytest.approx(
        float(trained["test_accuracy"])
    )


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
    params = init_parameters(spec, seed=0)
    params.v_thetas = params.v_thetas[:, :-1]  # every row one angle short
    ckpt = tmp_path / "short.json"
    save_checkpoint(ckpt, spec, params)
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

BAD_INPUT_CASES = {
    "check-missing-arch": (["check", "--arch", "{tmp}/none.arch"], "No such file"),
    "verify-missing-arch": (["verify", "--arch", "{tmp}/none.arch"], "No such file"),
    "train-missing-arch": (["train", "--arch", "{tmp}/none.arch", *XOR_TRAIN], "No such file"),
    "sweep-missing-arch": (["sweep", "--arch", "{tmp}/none.arch", *XOR_TRAIN], "No such file"),
    "train-missing-mnist": (["train", "--arch", "{tmp}/wide.arch", "--data-dir", "{tmp}/empty"], "MNIST"),
    "eval-missing-mnist": (["eval", "--checkpoint", "{tmp}/wide.json", "--data-dir", "{tmp}/empty"], "MNIST"),
    "train-input-dim-mismatch": (["train", "--arch", "{tmp}/wide.arch", *XOR_TRAIN], "input_dim 16"),
    "train-too-few-classes": (["train", "--arch", "{tmp}/vun.arch", *XOR_TRAIN], "1 classes"),
    "epochs-zero": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--epochs", "0"], "positive integer"),
    "batch-zero": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--batch", "0"], "positive integer"),
    "samples-negative": (["verify", "--arch", "{tmp}/ok.arch", "--samples", "-1"], "positive integer"),
    "classes-not-digits": (["train", "--arch", "{tmp}/ok.arch", "--classes", "3,x"], "digits"),
    "check-non-utf8-arch": (["check", "--arch", "{tmp}/binary.arch"], "not UTF-8"),
    "max-qubits-negative": (["verify", "--arch", "{tmp}/ok.arch", "--max-qubits", "-3"], "positive integer"),
    "temperature-zero": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--temperature", "0"], "> 0"),
    "temperature-nan": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--temperature", "nan"], "> 0"),
    "temperature-negative": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--temperature", "-1"], "> 0"),
    "lr-infinite": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--lr", "inf"], "> 0"),
    "sweep-lr-zero": (["sweep", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--lr", "0"], "> 0"),
    "momentum-negative": (["train", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--momentum", "-0.5"], ">= 0"),
    "lr-decay-infinite": (["sweep", "--arch", "{tmp}/ok.arch", *XOR_TRAIN, "--lr-decay", "inf"], ">= 0"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT_CASES))
def test_bad_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    from qnnkit.arch import parse_architecture
    from qnnkit.data import mnist_available
    from qnnkit.model import init_parameters, save_checkpoint

    argv, reason = BAD_INPUT_CASES[case]
    if "mnist" in case and mnist_available(tmp_path / "empty"):
        pytest.skip("MNIST or its mlxtend fallback is installed")
    write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    write(tmp_path, "wide.arch", WIDE_ARCH)
    write(tmp_path, "vun.arch", VUN_ARCH)
    (tmp_path / "binary.arch").write_bytes(b"\x80\x81")
    wide = parse_architecture(WIDE_ARCH)
    save_checkpoint(tmp_path / "wide.json", wide, init_parameters(wide))
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad option value itself
        code = exc.code
    assert_one_error_line(capsys, code, 2, reason)


def assert_one_error_line(capsys, code, expected_code, reason):
    lines = capsys.readouterr().err.splitlines()
    assert code == expected_code
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert len(lines) == 1 or lines[0].startswith("usage:")
    assert reason in lines[-1]


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


def test_verify_demo_path6_reports_large_deviation(tmp_path, capsys):
    arch = write(tmp_path, "vun.arch", VUN_ARCH)
    out = tmp_path / "verify"
    code = main(
        ["verify", "--arch", arch, "--samples", "2", "--demo-path6", "--out", str(out)]
    )
    assert code == 0
    demo = json.loads((out / "path6_demo.json").read_text())
    assert demo["deviation"] > 0.01
    assert "counterexample" in capsys.readouterr().out


def test_verify_respects_qubit_cap(tmp_path, capsys):
    arch = write(
        tmp_path,
        "wide.arch",
        "input_dim 16\nclasses 8\nlayer v width=4\nlayer u width=8\n",
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
    # compiled, this net has 40 qubits; the factored simulation needs 2 x 8
    assert "needs 16 qubits" in capsys.readouterr().err


def test_verify_runs_a_net_too_wide_to_compile_within_the_cap(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify", "--arch", str(NETS / "mnist4-vu.arch"), "--samples", "2",
                 "--out", str(out)])
    assert code == 0
    assert all(float(r["max_abs_deviation"]) <= 1e-9 for r in read_csv(out / "verify.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["compiled_qubits"], manifest["simulated_qubits"]) == (28, 8)


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


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    arch = write(tmp_path, "ok.arch", FEASIBLE_ARCH)
    code = main(
        ["sweep", "--arch", arch, "--r-min", "3", "--r-max", "1", "--out",
         str(tmp_path / "s")]
    )
    assert code == 2
