"""Command-line front end.

Five subcommands: ``check`` (junction feasibility, no simulation),
``train`` / ``eval`` (experiment runs with CSV + checkpoint output),
``verify`` (factorized-vs-circuit deviation report) and ``sweep``
(accuracy vs v-block repetition count).

Every run writes a ``manifest.json`` (full config, package version, CSV
schema version) next to its outputs; re-running with the same manifest
reproduces the metrics bit-identically. Exit codes: 0 success /
feasible, 1 infeasible (``check``) or failed run, 2 bad usage or
unreadable input, a non-template architecture and a corrupt IDX file
included (reported by ``main`` as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arch import ArchitectureError, ArchitectureParseError, load_architecture
from .data import CROP_FOR, IdxFormatError, make_xor_dataset, mnist_task
from .model import (
    DEFAULT_MAX_QUBITS,
    ResourceLimitError,
    TrainConfig,
    TrainingDiverged,
    accuracy,
    check_trainable,
    circuit_inference_batch,
    forward_batch,
    init_parameters,
    load_checkpoint,
    pipeline,
    save_checkpoint,
    train,
)
from .rules import validate_architecture

CSV_SCHEMA_VERSION = 1

# verify: a top output matched this closely by another class is no argmax
TIE_ATOL = 1e-12
# verify draws, runs and compares its samples this many at a time, so its
# memory does not grow with --samples
VERIFY_ROWS = 1024


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
    """The header, then each row's values in column order, as csv.DictWriter
    writes them: a missing key is an empty field, an unknown one a ValueError."""
    unknown = set().union(*rows).difference(columns)
    if unknown:
        raise ValueError(f"dict contains fields not in fieldnames: {sorted(unknown)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(c, "") for c in columns] for row in rows)


def _write_results(out_dir: Path, args, arch, label: str, test_acc: float, metrics=None) -> dict:
    """Write the one-row results.csv of a train run (with ``metrics``) or an eval run."""
    mnist = args.dataset == "mnist"
    last = metrics[-1] if metrics else {}
    row = {  # in column order
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
    _write_csv(out_dir / "results.csv", list(row), [row])
    return row


def _read_checkpoint(path: str):
    """(arch, params) from ``path``; a missing file is left to ``main``."""
    try:
        return load_checkpoint(path)
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
    for split, ds in (("train", train_ds), ("test", test_ds)):
        if len(ds) == 0:
            raise UsageError(f"{label} {split} split is empty")
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
    """The TrainConfig of the training options; a range error is a usage
    error that names the option as the parser's action spells it."""
    fields = dataclasses.fields(TrainConfig)
    try:
        return TrainConfig(**{f.name: getattr(args, f.name) for f in fields})
    except ValueError as exc:
        field, rest = str(exc).split(" ", 1)
        option = next(a.option_strings[0] for a in args.training_actions if a.dest == field)
        raise UsageError(f"{option} {rest}") from None


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
    _write_manifest(out_dir, "check", {"arch": str(args.arch)})
    return 0 if report.passed else 1


def _run_training(config: TrainConfig, arch, train_ds, test_ds):
    """(params, metrics) of ``arch`` trained under ``config``."""
    # train raises TrainingDiverged on a non-finite loss, and main reports
    # it in one line; numpy's overflow warnings on the way would add more
    with np.errstate(over="ignore", invalid="ignore"):
        return train(
            arch,
            init_parameters(arch, config.seed),
            train_ds.images,
            train_ds.labels,
            config,
            test_ds.images,
            test_ds.labels,
        )


def cmd_train(args) -> int:
    config = _train_config(args)
    arch = load_architecture(args.arch)
    pipeline(arch)  # the template; whatever fits it passes the five rules
    train_ds, test_ds, label = _dataset(args, arch)
    params, metrics = _run_training(config, arch, train_ds, test_ds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ["epoch", "train_loss", "train_accuracy", "test_accuracy"]
    _write_csv(out_dir / "metrics.csv", columns, metrics)  # a missing test_accuracy stays empty
    test_acc = accuracy(arch, params, test_ds.images, test_ds.labels)
    row = _write_results(out_dir, args, arch, label, test_acc, metrics)
    save_checkpoint(out_dir / "checkpoint.json", arch, params)
    _write_manifest(out_dir, "train", {**vars(args), "train_config": dataclasses.asdict(config)})
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
    plan = pipeline(arch)
    plan.check_qubit_cap(args.max_qubits)  # before any parameter or input is drawn
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
    for start in range(0, args.samples, VERIFY_ROWS):
        # an (R, d) draw gives the values of R draws of d, in the same order
        X = rng.uniform(0.01, 1.0, size=(min(VERIFY_ROWS, args.samples - start), arch.input_dim))
        exact = circuit_inference_batch(arch, params, X, max_qubits=args.max_qubits)
        factorized = forward_batch(arch, params, X).probs
        deviation = np.max(np.abs(factorized - exact), axis=1).tolist()
        # a row whose top class ties within TIE_ATOL in either half is no agreement
        tie = np.zeros(len(X), dtype=bool)
        for p in (factorized, exact):
            tie |= np.sum(p >= p.max(axis=1, keepdims=True) - TIE_ATOL, axis=1) > 1
        match = ~tie & (np.argmax(factorized, axis=1) == np.argmax(exact, axis=1))
        rows += [
            {"sample": start + i, "max_abs_deviation": d, "argmax_agree": m}
            for i, (d, m) in enumerate(zip(deviation, match.astype(int).tolist()))
        ]
        worst = max(worst, *deviation)
        agree += int(match.sum())
        ties += int(tie.sum())

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "verify.csv", ["sample", "max_abs_deviation", "argmax_agree"], rows
    )
    _write_manifest(
        out_dir,
        "verify",
        vars(args),
        compiled_qubits=plan.compiled_qubits,
        simulated_qubits=plan.simulated_qubits,
        observable_qubits=plan.observable_qubits,
    )
    print(
        f"verify: {args.samples} samples, max deviation {worst:.3e}, "
        f"argmax agreement {agree}/{args.samples} ({ties} tied, not counted)"
    )
    return 0


def cmd_sweep(args) -> int:
    if args.r_min > args.r_max:
        raise UsageError("--r-min must be <= --r-max")
    config = _train_config(args)
    arch = load_architecture(args.arch)
    pipeline(arch)  # every r trains the same layer sequence, so check it once
    if all(l.kind != "v" for l in arch.layers):  # every r would train the same net
        raise ArchitectureError(f"sweep varies v-layer repeats, and {arch.name} has no v layer")
    train_ds, test_ds, _ = _dataset(args, arch)
    check_trainable(arch)  # a refusal is bad usage, not a failed run
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    status = 0
    for r in range(args.r_min, args.r_max + 1):
        layers = [dataclasses.replace(l, repeat=r) if l.kind == "v" else l for l in arch.layers]
        run_arch = dataclasses.replace(arch, layers=layers)
        try:
            params, metrics = _run_training(config, run_arch, train_ds, test_ds)
        except Exception as exc:  # abort but keep partial results
            print(f"error: run r={r} failed: {exc}", file=sys.stderr)
            status = 1
            break
        test_acc = accuracy(run_arch, params, test_ds.images, test_ds.labels)
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


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's generators need."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _digits(text: str) -> str:
    """argparse type of --classes: distinct digits 0-9, kept as typed for the CSV."""
    digits = [c.strip() for c in text.split(",")]
    if len(set(digits)) != len(digits) or not all(len(c) == 1 and c.isdecimal() for c in digits):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated digits, got {text!r}")
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="runs", help="output directory")


def _add_dataset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=["mnist", "xor"], default="mnist")
    p.add_argument("--classes", type=_digits, default="3,6", help="comma-separated digits")
    p.add_argument("--resolution", type=int, default=4, choices=list(CROP_FOR))
    p.add_argument("--data-dir", default=None, help="MNIST cache directory")


def _add_training(p: argparse.ArgumentParser) -> None:
    """Options whose dests are TrainConfig's fields, which checks their
    ranges; ``_train_config`` names an option out of range by its action."""
    d = TrainConfig()
    actions = (
        p.add_argument("--epochs", type=_count, default=d.epochs),
        p.add_argument("--lr", type=float, default=d.lr),
        p.add_argument("--batch", type=_count, default=d.batch_size, dest="batch_size"),
        p.add_argument("--momentum", type=float, default=d.momentum),
        p.add_argument("--temperature", type=float, default=d.temperature),
        p.add_argument("--lr-decay", type=float, default=d.lr_decay),
        p.add_argument("--keep-best", action="store_true"),
    )
    p.set_defaults(training_actions=actions)  # a tuple, so no manifest records it


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: `train --r 4` must not pass for `--resolution 4`
    parser = argparse.ArgumentParser(
        prog="qnnkit",
        allow_abbrev=False,
        description="mixed quantum neural networks: feasibility checks, "
        "training, circuit verification",
    )
    parser.add_argument("--version", action="version", version=f"qnnkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("check", help="validate an architecture's junctions")
    p.add_argument("--arch", required=True)
    p.add_argument("--out", default="runs", help="output directory")
    p.set_defaults(func=cmd_check)

    p = add_parser("train", help="train an architecture on a dataset")
    p.add_argument("--arch", required=True)
    _add_dataset(p)
    _add_training(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_dataset(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = add_parser("verify", help="compare factorized model with the full circuit")
    p.add_argument("--arch", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--max-qubits", type=_count, default=DEFAULT_MAX_QUBITS)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = add_parser("sweep", help="train across a range of v-block repeats")
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
    except (ResourceLimitError, MemoryError) as exc:  # failed runs too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (ArchitectureParseError, ArchitectureError) as exc:
        reason = f"{args.arch}: {exc}"
    except OSError as exc:  # missing or unreadable files, MNIST included
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    except (UsageError, IdxFormatError) as exc:  # the IDX message names its file
        reason = exc
    print(f"error: {reason}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
