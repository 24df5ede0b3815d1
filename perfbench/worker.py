"""One benchmark process: set up, run one workload for a fixed time, check it.

``run.py`` starts this script; it is not meant to be run by hand, though
it can be:

    python3 perfbench/worker.py --workload verify-mnist2-vu --seed 1 --seconds 5 --trace 0

It prints one JSON object as its last line of standard output. With
``--setup-only`` it sets up and reports the set-up time alone. With
``--trace 1`` it measures the workload untraced, then again with spans
around the package's public functions, and reports per-layer metrics
plus the tracing overhead.

The package is imported from ``src/`` of the checkout this file sits
in, never from anywhere else.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time includes the imports below

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qnnkit").is_dir():
    sys.exit(f"error: no qnnkit sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import qnnkit
from qnnkit import arch, data, model, rules, statevec

import synth
import tracing

_T_IMPORTED = time.perf_counter()

if Path(qnnkit.__file__).resolve().parent != SRC / "qnnkit":
    sys.exit(f"error: qnnkit was imported from {qnnkit.__file__}, not from {SRC}")

WORK_DIR = ROOT / ".perfbench"
GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# The README's regime for networks ending in a p layer.
P_LAYER_REGIME = dict(lr=0.01, temperature=1e-3, lr_decay=0.97, keep_best=True)
EPOCHS_PER_ROUND = 5
EVALS_PER_ROUND = 5
GRAD_CHECK_ROWS = 32
GRAD_EPS = 1e-6
GRAD_ATOL, GRAD_RTOL = 1e-6, 1e-4
EXACT_ATOL = 1e-9
# The verify workloads fix the circuit (parameters from seed 0, what
# `qnnkit verify` uses by default) so only the input samples vary with
# the benchmark seed and gate counts are the same for every seed.
VERIFY_PARAMS_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "verify"
    arch_file: str
    classes: tuple[int, ...]
    resolution: int
    warmup_steps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-mnist4-vup", "train", "nets/mnist4-vup.arch", (0, 3, 6, 9), 8, 1),
        # one 22-qubit sample takes ~20 s and allocates a fresh state, so
        # a warm-up sample would cost a run's worth of time and buy nothing
        Workload("verify-mixed22", "verify", "nets/mixed.arch", (3, 6), 4, 0),
        Workload("verify-mnist2-vu", "verify", "nets/mnist2-vu.arch", (3, 6), 4, 50),
    )
}


@dataclass
class Context:
    workload: Workload
    seed: int
    arch: arch.ArchitectureSpec
    params: model.ParameterStore
    train: data.Dataset
    test: data.Dataset


def setup(w: Workload, seed: int, scratch: Path) -> Context:
    """Synthetic IDX files, dataset, architecture, feasibility check, parameters."""
    data_dir = synth.write_synthetic_mnist(scratch / "mnist", seed)
    train_ds, test_ds = data.mnist_task(list(w.classes), w.resolution, data_dir)
    spec = arch.load_architecture(ROOT / w.arch_file)
    report = rules.validate_architecture(spec)
    if not report.passed:
        raise RuntimeError(f"{w.arch_file} is infeasible:\n{report.render_text()}")
    params = model.init_parameters(spec, seed if w.kind == "train" else VERIFY_PARAMS_SEED)
    return Context(w, seed, spec, params, train_ds, test_ds)


# ---------------------------------------------------------------------------
# steps: one training round, or one verified sample
# ---------------------------------------------------------------------------


@dataclass
class Step:
    wall_s: float
    cpu_s: float  # process CPU time: on a shared VM it leaves out time stolen by the host
    ops: int  # training batches or verify samples
    problem: str | None = None
    train_cpu_s: float = 0.0  # train: the model.train call alone
    eval_cpu_s: tuple[float, ...] = ()  # train: each model.accuracy call
    ref_cpu_s: float = 0.0  # reference loops run right after the step
    ref_calls: int = 0


class Stopwatch:
    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def elapsed(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


def _angle_arrays(store) -> list[np.ndarray]:
    """The real-angle parameter groups (v and n) of a ParameterStore or Gradients."""
    return [store.v_thetas, *store.n_thetas]


def gradient_error(ctx: Context, params: model.ParameterStore) -> float:
    """Largest excess of |backward - central difference| over its tolerance.

    Positive means the check failed. Angles only: binary weights train by
    straight-through estimation, which is not a derivative.
    """
    X = ctx.train.images[:GRAD_CHECK_ROWS]
    y = ctx.train.labels[:GRAD_CHECK_ROWS]
    T = P_LAYER_REGIME["temperature"]

    def loss_at(p):
        value = model.loss_batch(model.forward_batch(ctx.arch, p, X).probs, y, T)
        if not math.isfinite(value):
            raise FloatingPointError("non-finite loss in the gradient check")
        return value

    trace = model.forward_batch(ctx.arch, params, X)
    grads = model.backward_batch(ctx.arch, params, trace, y, T)
    worst = -math.inf
    for group, analytic in enumerate(_angle_arrays(grads)):
        for idx in np.ndindex(analytic.shape):
            shifted = []
            for sign in (1.0, -1.0):
                p = params.copy()
                _angle_arrays(p)[group][idx] += sign * GRAD_EPS
                shifted.append(loss_at(p))
            numeric = (shifted[0] - shifted[1]) / (2.0 * GRAD_EPS)
            excess = abs(analytic[idx] - numeric) - (GRAD_ATOL + GRAD_RTOL * abs(numeric))
            worst = max(worst, excess)
    return worst


class TrainRunner:
    """model.train with held-out evaluation each epoch, then model.accuracy."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.config = model.TrainConfig(
            epochs=EPOCHS_PER_ROUND, seed=ctx.seed, **P_LAYER_REGIME
        )
        self.batches = EPOCHS_PER_ROUND * math.ceil(len(ctx.train) / self.config.batch_size)
        self.first_rows = None
        self.unrecorded = contextlib.nullcontext  # the gradient check is not part of a step

    def step(self) -> Step:
        c = self.ctx
        round_clock = Stopwatch()
        try:
            params, rows = model.train(
                c.arch, c.params, c.train.images, c.train.labels, self.config,
                c.test.images, c.test.labels,
            )
        except Exception as exc:  # a failed round counts all its batches as failed
            return Step(*round_clock.elapsed(), self.batches, f"train raised {exc!r}")
        _, train_cpu = round_clock.elapsed()
        eval_cpu = []
        accs = []
        for _ in range(EVALS_PER_ROUND):
            clock = Stopwatch()
            accs.append(model.accuracy(c.arch, params, c.test.images, c.test.labels))
            eval_cpu.append(clock.elapsed()[1])
        step = Step(*round_clock.elapsed(), self.batches, None, train_cpu, tuple(eval_cpu))
        step.problem = self.check(params, rows, accs)
        return step

    def check(self, params, rows, accs) -> str | None:
        if not all(math.isfinite(r["train_loss"]) for r in rows):
            return "non-finite training loss"
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            return "training is not deterministic: a round differs from the first"
        best = max(r["test_accuracy"] for r in rows)
        if any(a != best for a in accs):
            return f"held-out accuracy {accs} differs from the kept best epoch's {best}"
        try:
            with self.unrecorded():
                excess = gradient_error(self.ctx, params)
        except FloatingPointError as exc:
            return str(exc)
        if excess > 0:
            return f"angle gradient differs from central differences by {excess:.3g} over tolerance"
        return None


class VerifyRunner:
    """model.forward and model.circuit_inference on one sample, compared."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.pool = np.concatenate([ctx.train.images, ctx.test.images])
        self.rng = np.random.default_rng(ctx.seed)
        self.order: list[int] = []
        golden = GOLDEN.get(ctx.workload.name)
        self.golden = self.golden_atol = None
        if golden is not None:
            if (golden["arch"], golden["params_seed"]) != (ctx.workload.arch_file, VERIFY_PARAMS_SEED):
                raise ValueError(f"golden.json does not describe workload {ctx.workload.name}")
            self.golden = np.array(golden["circuit_outputs"])
            self.golden_atol = golden["atol"]

    def next_input(self) -> np.ndarray:
        if not self.order:
            self.order = list(self.rng.permutation(len(self.pool)))
        return self.pool[self.order.pop()]

    def step(self) -> Step:
        c = self.ctx
        x = self.next_input()
        clock = Stopwatch()
        try:
            factorized = model.forward(c.arch, c.params, x).probs[0]
            exact = model.circuit_inference(c.arch, c.params, x)
        except Exception as exc:
            return Step(*clock.elapsed(), 1, f"sample raised {exc!r}")
        step = Step(*clock.elapsed(), 1)
        step.problem = self.check(factorized, exact)
        return step

    def check(self, factorized, exact) -> str | None:
        for label, out in (("factorized", factorized), ("circuit", exact)):
            if out.shape != (self.ctx.arch.num_classes,) or not np.all(np.isfinite(out)):
                return f"{label} output {out} is not {self.ctx.arch.num_classes} finite values"
            if np.any((out < -EXACT_ATOL) | (out > 1 + EXACT_ATOL)):
                return f"{label} output {out} is not a probability"
        if self.golden is not None:
            if np.max(np.abs(exact - self.golden)) > self.golden_atol:
                return f"circuit output {exact} differs from golden {self.golden}"
        elif np.max(np.abs(factorized - exact)) > EXACT_ATOL:
            return f"factorized {factorized} differs from circuit {exact}"
        return None


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _count_v_forward(tracer, args, result):
    tracer.counts["neurons.v_gate_ops"] += args[0].shape[0] * len(result[1]["ops"])


def _count_v_backward(tracer, args, result):
    tape, grad_out = args
    tracer.counts["neurons.v_gate_ops"] += np.shape(grad_out)[0] * len(tape["ops"])


def _gate_class(gate) -> str:
    if gate.arity == 1:
        return "1q"
    return gate.kind.lower()  # cx, cz or mcx


def _count_apply(tracer, args, result):
    # Computed, not measured: a gate reads and writes the amplitudes whose
    # conditioning qubits match, 2^-k of the state for k of them.
    state, gate = args[0], args[1]
    conditioned = {"1q": 0, "cx": 1, "cz": 2, "mcx": gate.arity - 1}[_gate_class(gate)]
    tracer.counts["statevec.bytes_moved_computed"] += 2 * state.amps.nbytes >> conditioned


def _count_run(tracer, args, result):
    state = args[0]
    tracer.counts["statevec.qubits"] += state.n_qubits
    tracer.counts["statevec.state_bytes"] += state.amps.nbytes


def _count_marginal(tracer, args, result):
    tracer.counts["statevec.bytes_moved_computed"] += args[0].amps.nbytes


def install_setup_spans(tracer: tracing.Tracer) -> None:
    tracer.wrap(data, "mnist_task", "data.mnist_task")
    tracer.wrap(arch, "load_architecture", "arch.load_architecture")
    tracer.wrap(rules, "validate_architecture", "rules.validate_architecture")
    tracer.wrap(model, "init_parameters", "model.init_parameters")


def install_step_spans(tracer: tracing.Tracer) -> None:
    m = model  # the module globals that train, forward and circuit_inference call
    tracer.wrap(m, "train", "model.train")
    tracer.wrap(m, "validate_architecture", "rules.validate_architecture")
    tracer.wrap(m, "accuracy", "model.accuracy")
    tracer.wrap(m, "forward_batch", "model.forward_batch")
    tracer.wrap(m, "loss_batch", "model.loss_batch")
    tracer.wrap(m, "backward_batch", "model.backward_batch")
    tracer.wrap(m, "v_stage_forward", "neurons.v_stage_forward", _count_v_forward)
    tracer.wrap(m, "v_stage_backward", "neurons.v_stage_backward", _count_v_backward)
    tracer.wrap(m, "circuit_inference", "model.circuit_inference")
    tracer.wrap(m, "build_network_circuit", "model.build_network_circuit")
    tracer.wrap(m, "amplitude_encoding_fragment", "encoding.amplitude_encoding_fragment")
    tracer.wrap(m, "build_v_block", "neurons.build_v_block")
    tracer.wrap(m, "build_u_neuron", "neurons.build_u_neuron")
    tracer.wrap(m, "build_p_neuron", "neurons.build_p_neuron")
    sv = statevec.StateVector
    tracer.wrap(sv, "run", "statevec.run", _count_run, sys_cpu=True)
    tracer.wrap(sv, "apply", lambda args: "statevec.apply_" + _gate_class(args[1]), _count_apply)
    tracer.wrap(sv, "marginal_prob_one", "statevec.marginal_prob_one", _count_marginal)


def layer_metrics(setup_tracer, tracer, steps: int, overhead_s: float) -> dict:
    """Per-layer metrics: times and counts per step, set-up layers per set-up."""
    total, own, sys_cpu = tracing.totals_by_name(tracer.spans)
    setup_total, _, _ = tracing.totals_by_name(setup_tracer.spans)
    counts = tracer.counts

    def per(value):
        return value / steps

    metrics = {
        "neurons.v_stage_forward_s": per(total["neurons.v_stage_forward"]),
        "neurons.v_stage_backward_s": per(total["neurons.v_stage_backward"]),
        "neurons.v_stage_calls": per(
            counts["calls:neurons.v_stage_forward"] + counts["calls:neurons.v_stage_backward"]
        ),
        "neurons.v_gate_ops": per(counts["neurons.v_gate_ops"]),
        "model.forward_batch_self_s": per(own["model.forward_batch"]),
        "model.backward_batch_self_s": per(own["model.backward_batch"]),
        "model.loss_batch_s": per(total["model.loss_batch"]),
        "model.accuracy_s": per(total["model.accuracy"]),
        "model.train_self_s": per(own["model.train"]),
    }
    for cls in ("1q", "cx", "cz", "mcx"):
        metrics[f"statevec.apply_{cls}_s"] = per(total[f"statevec.apply_{cls}"])
        metrics[f"statevec.apply_{cls}_count"] = per(counts[f"calls:statevec.apply_{cls}"])
    metrics.update(
        {
            "statevec.marginal_s": per(total["statevec.marginal_prob_one"]),
            "statevec.run_sys_cpu_s": per(sys_cpu["statevec.run"]),
            "statevec.qubits": per(counts["statevec.qubits"]),
            "statevec.state_bytes": per(counts["statevec.state_bytes"]),
            "statevec.bytes_moved_computed": per(counts["statevec.bytes_moved_computed"]),
            "model.build_network_circuit_self_s": per(own["model.build_network_circuit"]),
            "encoding.amplitude_encoding_fragment_s": per(total["encoding.amplitude_encoding_fragment"]),
            "neurons.build_v_block_s": per(total["neurons.build_v_block"]),
            "neurons.build_u_neuron_s": per(total["neurons.build_u_neuron"]),
            "neurons.build_p_neuron_s": per(total["neurons.build_p_neuron"]),
            "model.circuit_inference_self_s": per(own["model.circuit_inference"]),
            "data.mnist_task_s": setup_total["data.mnist_task"],
            "arch.load_s": setup_total["arch.load_architecture"],
            "rules.validate_s": setup_total["rules.validate_architecture"],
            "model.init_parameters_s": setup_total["model.init_parameters"],
            "trace.overhead_s": overhead_s,
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


# Other tenants of the shared host make the same code run up to 1.6x
# slower from one tenth of a second to the next, and the mix drifts over
# minutes, so a run's CPU-time throughput moves by 10-15% between runs.
# A fixed loop that does not touch qnnkit (interpreter work and small
# numpy kernels, like the workloads' inner loops) runs after every step
# for REFERENCE_SHARE of the step's CPU time. The calibrated throughput
# is the raw one times how much slower than REFERENCE_LOOP_S that loop
# ran: over five runs this cut the spread from about 0.08 to 0.04 on
# train-mnist4-vup and verify-mnist2-vu. The loop only tracks the speed
# of steps it runs close to, so steps longer than REFERENCE_MAX_STEP_S
# (the 20 s samples of verify-mixed22) are left uncalibrated: there it
# raised the spread from 0.03 to 0.18.
REFERENCE_SHARE = 0.1
REFERENCE_MAX_STEP_S = 5.0
REFERENCE_LOOP_S = 0.7e-3  # typical on the 2-core Xeon VM the benchmark was tuned on
_REFERENCE_ARRAYS = [np.linspace(0.0, 1.0, 16) * (k + 1) for k in range(4)]


def reference_loop() -> float:
    acc = 0.0
    for i in range(60):
        pair = (i, 0.5 * i)
        w = _REFERENCE_ARRAYS[i % 4].reshape(2, 2, 4)
        rotated = 0.6 * w[:, 0, :] - 0.8 * w[:, 1, :]
        acc += float(rotated.sum()) + pair[1] + len({j: j for j in range(i % 5)})
    return acc


def run_for(runner, seconds: float, on_step=None) -> list[Step]:
    """Steps, each followed by reference loops, until ``seconds`` have passed."""
    steps = []
    deadline = time.perf_counter() + seconds
    while True:
        step = runner.step()
        steps.append(step)
        if on_step is not None:
            on_step()
        clock = Stopwatch()
        while step.cpu_s <= REFERENCE_MAX_STEP_S:
            reference_loop()
            step.ref_calls += 1
            step.ref_cpu_s = clock.elapsed()[1]
            if step.ref_cpu_s >= REFERENCE_SHARE * step.cpu_s:
                break
        if time.perf_counter() >= deadline:
            return steps


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _quantile_report(name: str, values: list[float]) -> str:
    """Median, and p90 only where at least ten samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"{name}_p50 {statistics.median(ordered):.6g} s (n={n})"
    rank = math.ceil(0.9 * n)
    if n - rank >= 10:
        line += f"; {name}_p90 {ordered[rank - 1]:.6g} s ({n - rank} samples beyond)"
    else:
        line += f"; {name}_p90 not reported: {n - rank} samples beyond it, 10 needed"
    return line


def end_to_end(ctx: Context, steps: list[Step]) -> tuple[dict, list[str]]:
    """Calibrated throughput, and the report lines behind it.

    CPU time, not wall time: on a shared VM, wall time includes time the
    host steals from the process.
    """
    wall = [s.wall_s for s in steps]
    cpu = sum(s.cpu_s for s in steps)
    calls = sum(s.ref_calls for s in steps)
    slowdown = sum(s.ref_cpu_s for s in steps) / calls / REFERENCE_LOOP_S if calls else 1.0
    lines = [
        f"time: {sum(wall):.3f} s wall, {cpu:.3f} s CPU over {len(steps)} steps",
        f"reference loop ran {slowdown:.4f}x its reference time over {calls} calls; "
        f"calibrated = per CPU second x that (steps over {REFERENCE_MAX_STEP_S:g} s are not calibrated)",
    ]
    if ctx.workload.kind == "train":
        n_train, n_test = len(ctx.train), len(ctx.test)
        rate = len(steps) * EPOCHS_PER_ROUND * n_train / sum(s.train_cpu_s for s in steps)
        eval_times = [t for s in steps for t in s.eval_cpu_s]
        eval_rate = n_test / statistics.median(eval_times)
        lines += [
            f"train_samples_per_s {rate:.6g} 1/s per CPU second, {rate * slowdown:.6g} calibrated "
            f"({len(steps)} model.train calls, {EPOCHS_PER_ROUND} epochs x {n_train} samples, "
            f"held-out eval each epoch)",
            f"eval_samples_per_s {eval_rate:.6g} 1/s per CPU second, {eval_rate * slowdown:.6g} "
            f"calibrated (median of {len(eval_times)} model.accuracy calls on {n_test} held-out samples)",
        ]
    else:
        rate = len(steps) / cpu
        lines += [
            f"verify_samples_per_s {rate:.6g} 1/s per CPU second, {rate * slowdown:.6g} calibrated",
            _quantile_report("verify_sample_s", wall) + ", wall time",
        ]
    return {"calibrated_samples_per_s": rate * slowdown}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        setup_tracer = tracing.Tracer()
        if args.trace:
            install_setup_spans(setup_tracer)
        t0 = time.perf_counter()
        ctx = setup(w, args.seed, Path(scratch))
        setup_s = (_T_IMPORTED - _T_START) + (time.perf_counter() - t0)
        setup_tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = TrainRunner(ctx) if w.kind == "train" else VerifyRunner(ctx)
    warm_up = [runner.step() for _ in range(w.warmup_steps)]  # checked, not timed
    # a traced run measures untraced and traced halves, to report the overhead
    seconds = args.seconds / 2 if args.trace else args.seconds
    steps = run_for(runner, seconds)
    metrics, lines = end_to_end(ctx, steps)
    steps += warm_up
    lines.insert(
        0,
        f"data: synthetic MNIST-shaped IDX (28x28, seed {args.seed}), classes "
        f"{','.join(map(str, w.classes))} at {w.resolution}x{w.resolution}: "
        f"{len(ctx.train)} train / {len(ctx.test)} test; arch {w.arch_file}",
    )

    if args.trace:
        tracer = tracing.Tracer()
        per_step: list[dict] = []
        before = {}

        def snapshot():
            nonlocal before
            now = dict(tracer.counts)
            per_step.append({k: v - before.get(k, 0) for k, v in now.items()})
            before = now

        runner.unrecorded = tracer.pause
        install_step_spans(tracer)
        try:
            traced = run_for(runner, seconds, snapshot)
        finally:
            tracer.uninstall()
        overhead = statistics.median(s.cpu_s for s in traced) - statistics.median(
            s.cpu_s for s in steps
        )
        metrics = layer_metrics(setup_tracer, tracer, len(traced), overhead)
        spans_path = WORK_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        lines.append(
            f"trace: {len(tracer.spans)} spans over {len(traced)} steps written to "
            f"{spans_path.relative_to(ROOT)}; overhead {overhead:+.6g} CPU s per step "
            f"(traced minus untraced median step)"
        )
        if any(c != per_step[0] for c in per_step):
            traced.append(Step(0.0, 0.0, 1, "per-step counts differ between steps"))
        steps += traced
    else:
        metrics["peak_rss_mib"] = _peak_rss_mib()

    problems = [s.problem for s in steps if s.problem]
    attempted = sum(s.ops for s in steps)
    failed = sum(s.ops for s in steps if s.problem)
    lines += [f"problem: {p}" for p in dict.fromkeys(problems)]
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "metrics": metrics,
                "attempted": attempted,
                "failed": failed,
                "correct": not problems,
                "report": lines,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
