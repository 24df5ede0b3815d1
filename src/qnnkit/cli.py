"""Command-line front end.

Five subcommands: ``check`` (junction feasibility, no simulation),
``train`` / ``eval`` (experiment runs with CSV + checkpoint output),
``verify`` (factorized-vs-circuit deviation report) and ``sweep``
(accuracy vs v-block repetition count).

Every run writes a ``manifest.json`` (full config, seed, package
version, CSV schema version) next to its outputs; re-running with the
same manifest reproduces the metrics bit-identically. Exit codes:
0 success / feasible, 1 infeasible or failed run, 2 bad usage or
unreadable input (reported by ``main`` as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arch import ArchitectureParseError, load_architecture
from .data import make_xor_dataset, mnist_task
from .model import (
    TrainConfig,
    TrainingDiverged,
    accuracy,
    circuit_inference,
    expected_qubit_count,
    forward,
    init_parameters,
    load_checkpoint,
    path6_demo,
    save_checkpoint,
    simulated_qubit_count,
    train,
)
from .rules import validate_architecture
from .statevec import ResourceLimitError

CSV_SCHEMA_VERSION = 1

# verify: a top output matched this closely by another class is no argmax
TIE_ATOL = 1e-12

RESULTS_COLUMNS = [
    "schema",
    "architecture",
    "dataset",
    "classes",
    "resolution",
    "seed",
    "epochs",
    "train_accuracy",
    "test_accuracy",
    "final_loss",
]


class UsageError(Exception):
    """Input the user can fix; ``main`` reports it as one line, exit 2."""


def _write_manifest(out_dir: Path, command: str, config: dict, **facts) -> None:
    """``config`` is what the run was asked to do; ``facts`` go next to it."""
    plain = {
        k: v
        for k, v in config.items()
        if isinstance(v, (str, int, float, bool, dict, list, type(None)))
    }
    manifest = {
        "command": command,
        "package_version": __version__,
        "csv_schema": CSV_SCHEMA_VERSION,
        "config": plain,
        **facts,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_results(out_dir: Path, args, arch, label: str, test_acc: float, metrics=None) -> dict:
    """Write the one-row results.csv of a train run (with ``metrics``) or an eval run."""
    mnist = args.dataset == "mnist"
    last = metrics[-1] if metrics else {}
    row = {
        "schema": CSV_SCHEMA_VERSION,
        "architecture": arch.name,
        "dataset": label,
        "classes": args.classes if mnist else "0,1",
        "resolution": args.resolution if mnist else "",
        "seed": args.seed,
        "epochs": args.epochs if metrics else "",
        "train_accuracy": last.get("train_accuracy", ""),
        "test_accuracy": test_acc,
        "final_loss": last.get("train_loss", ""),
    }
    _write_csv(out_dir / "results.csv", RESULTS_COLUMNS, [row])
    return row


def _read_checkpoint(path: str):
    """(arch, params) from ``path``; a missing file is left to ``main``."""
    try:
        return load_checkpoint(path)
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _dataset(args, arch):
    """Resolve the dataset selection into (train, test, label) that fits ``arch``."""
    if args.dataset == "xor":
        train_ds = make_xor_dataset(240, seed=args.seed)
        test_ds = make_xor_dataset(120, seed=args.seed + 1)
        label = "xor"
    else:
        classes = [int(c) for c in args.classes.split(",")]
        train_ds, test_ds = mnist_task(classes, args.resolution, args.data_dir)
        label = f"mnist-{len(classes)}"
    width = train_ds.images.shape[1]
    if width != arch.input_dim:
        raise UsageError(
            f"{arch.name} takes input_dim {arch.input_dim}, but {label} rows have {width} values"
        )
    n_classes = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    if n_classes > arch.num_classes:
        raise UsageError(f"{arch.name} has {arch.num_classes} classes, {label} has {n_classes}")
    return train_ds, test_ds, label


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        momentum=args.momentum,
        temperature=args.temperature,
        lr_decay=args.lr_decay,
        keep_best=args.keep_best,
        seed=args.seed,
        verbose=args.verbose,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    arch = load_architecture(args.arch)
    report = validate_architecture(arch)
    print(report.render_text())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "check_report.json").write_text(json.dumps(report.to_dict(), indent=1))
    _write_manifest(out_dir, "check", {"arch": str(args.arch), "seed": args.seed})
    return 0 if report.passed else 1


def _run_training(args, arch, train_ds, test_ds):
    """(params, metrics) with the v repeats set to ``args.r``; None if infeasible."""
    if args.r is not None:
        for layer in arch.layers:
            if layer.kind == "v":
                layer.repeat = args.r
    report = validate_architecture(arch)
    if not report.passed:
        print(report.render_text(), file=sys.stderr)
        print("error: infeasible architecture, refusing to train", file=sys.stderr)
        return None
    # train raises TrainingDiverged on a non-finite loss, and main reports
    # it in one line; numpy's overflow warnings on the way would add more
    with np.errstate(over="ignore", invalid="ignore"):
        return train(
            arch,
            init_parameters(arch, args.seed),
            train_ds.images,
            train_ds.labels,
            _train_config(args),
            test_ds.images,
            test_ds.labels,
        )


def cmd_train(args) -> int:
    arch = load_architecture(args.arch)
    train_ds, test_ds, label = _dataset(args, arch)
    result = _run_training(args, arch, train_ds, test_ds)
    if result is None:
        return 1
    params, metrics = result

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "metrics.csv",
        ["epoch", "train_loss", "train_accuracy", "test_accuracy"],
        [{k: row.get(k, "") for k in ("epoch", "train_loss", "train_accuracy", "test_accuracy")} for row in metrics],
    )
    test_acc = accuracy(arch, params, test_ds.images, test_ds.labels)
    row = _write_results(out_dir, args, arch, label, test_acc, metrics)
    save_checkpoint(out_dir / "checkpoint.json", arch, params)
    config = dataclasses.asdict(_train_config(args))
    _write_manifest(out_dir, "train", {**vars(args), "train_config": config})
    print(
        f"{row['architecture']},{row['dataset']},{row['resolution']},"
        f"test_accuracy={test_acc:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    arch, params = _read_checkpoint(args.checkpoint)
    train_ds, test_ds, label = _dataset(args, arch)
    test_acc = accuracy(arch, params, test_ds.images, test_ds.labels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_results(out_dir, args, arch, label, test_acc)
    _write_manifest(out_dir, "eval", vars(args))
    print(f"{arch.name},{label},test_accuracy={test_acc:.4f}")
    return 0


def cmd_verify(args) -> int:
    arch = load_architecture(args.arch)
    if args.checkpoint:
        saved, params = _read_checkpoint(args.checkpoint)
        if saved != arch:
            raise UsageError(f"{args.checkpoint} holds {saved.name}, not {args.arch}")
    else:
        params = init_parameters(arch, args.seed)

    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    agree = ties = 0
    try:
        for i in range(args.samples):
            x = rng.uniform(0.01, 1.0, size=arch.input_dim)
            factorized = forward(arch, params, x).probs[0]
            exact = circuit_inference(arch, params, x, max_qubits=args.max_qubits)
            deviation = float(np.max(np.abs(factorized - exact)))
            tie = any(np.sum(p >= p.max() - TIE_ATOL) > 1 for p in (factorized, exact))
            match = int(not tie and np.argmax(factorized) == np.argmax(exact))
            rows.append(
                {"sample": i, "max_abs_deviation": deviation, "argmax_agree": match}
            )
            worst = max(worst, deviation)
            agree += match
            ties += tie
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "verify.csv", ["sample", "max_abs_deviation", "argmax_agree"], rows
    )
    _write_manifest(
        out_dir,
        "verify",
        vars(args),
        compiled_qubits=expected_qubit_count(arch),
        simulated_qubits=simulated_qubit_count(arch),
    )
    print(
        f"verify: {args.samples} samples, max deviation {worst:.3e}, "
        f"argmax agreement {agree}/{args.samples} ({ties} tied, not counted)"
    )
    if args.demo_path6:
        demo = path6_demo()
        (out_dir / "path6_demo.json").write_text(json.dumps(demo, indent=1))
        print(
            "path-6 counterexample: factorized "
            f"{demo['factorized']:.3f} vs exact {demo['exact']:.3f} "
            f"(deviation {demo['deviation']:.3f})"
        )
    return 0


def cmd_sweep(args) -> int:
    if args.r_min > args.r_max:
        raise UsageError("--r-min must be <= --r-max")
    arch = load_architecture(args.arch)
    train_ds, test_ds, _ = _dataset(args, arch)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    status = 0
    for r in range(args.r_min, args.r_max + 1):
        args.r = r
        try:
            result = _run_training(args, arch, train_ds, test_ds)
        except Exception as exc:  # abort but keep partial results
            print(f"error: run r={r} failed: {exc}", file=sys.stderr)
            status = 1
            break
        if result is None:
            status = 1
            break
        params, metrics = result
        test_acc = accuracy(arch, params, test_ds.images, test_ds.labels)
        rows.append(
            {
                "r": r,
                "train_accuracy": metrics[-1]["train_accuracy"],
                "test_accuracy": test_acc,
                "epochs": args.epochs,
                "seed": args.seed,
            }
        )
        print(f"r={r}: test_accuracy={test_acc:.4f}")
    _write_csv(
        out_dir / "sweep.csv",
        ["r", "train_accuracy", "test_accuracy", "epochs", "seed"],
        rows,
    )
    _write_manifest(out_dir, "sweep", vars(args))
    return status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type of every count option: a positive integer."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _real(text: str, zero_ok: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
        bound = ">= 0" if zero_ok else "> 0"
        raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of --lr and --temperature: a finite number > 0."""
    return _real(text, zero_ok=False)


def _nonnegative(text: str) -> float:
    """argparse type of --momentum and --lr-decay: a finite number >= 0."""
    return _real(text, zero_ok=True)


def _digits(text: str) -> str:
    """argparse type of --classes: distinct digits 0-9, kept as typed for the CSV."""
    digits = [c.strip() for c in text.split(",")]
    if len(set(digits)) != len(digits) or not all(len(c) == 1 and c.isdecimal() for c in digits):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated digits, got {text!r}")
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs", help="output directory")


def _add_dataset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=["mnist", "xor"], default="mnist")
    p.add_argument("--classes", type=_digits, default="3,6", help="comma-separated digits")
    p.add_argument("--resolution", type=int, default=4, choices=[4, 8, 16])
    p.add_argument("--data-dir", default=None, help="MNIST cache directory")


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=_count, default=30)
    p.add_argument("--lr", type=_positive, default=0.05)
    p.add_argument("--batch", type=_count, default=32)
    p.add_argument("--momentum", type=_nonnegative, default=0.9)
    p.add_argument("--temperature", type=_positive, default=0.25)
    p.add_argument("--lr-decay", type=_nonnegative, default=1.0)
    p.add_argument("--keep-best", action="store_true")
    p.add_argument("--r", type=_count, default=None, help="override v-layer repeats")
    p.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnnkit",
        description="mixed quantum neural networks: feasibility checks, "
        "training, circuit verification",
    )
    parser.add_argument("--version", action="version", version=f"qnnkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an architecture's junctions")
    p.add_argument("--arch", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("train", help="train an architecture on a dataset")
    p.add_argument("--arch", required=True)
    _add_dataset(p)
    _add_training(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_dataset(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="compare factorized model with the full circuit")
    p.add_argument("--arch", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--max-qubits", type=_count, default=24)
    p.add_argument("--demo-path6", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="train across a range of v-block repeats")
    p.add_argument("--arch", required=True)
    p.add_argument("--r-min", type=_count, default=1)
    p.add_argument("--r-max", type=_count, default=3)
    _add_dataset(p)
    _add_training(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:  # a failed run, not bad usage
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except ArchitectureParseError as exc:
        reason = f"{args.arch}: {exc}"
    except OSError as exc:  # missing or unreadable files, MNIST included
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    except UsageError as exc:
        reason = exc
    print(f"error: {reason}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
