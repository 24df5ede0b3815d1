"""Mixed-network model: parameters, forward/backward, training, and the
single measured-only-at-the-end circuit.

Two semantics coexist on purpose:

- The *factorized* forward pass evaluates the network layer by layer on
  classical vectors (amplitudes through the v stage, per-qubit
  probabilities afterwards). It is the training-time semantics and is
  what every accuracy number refers to.
- ``build_network_circuit`` compiles the whole network into one circuit
  with no measurement anywhere except the final output qubits: the
  amplitude encoding, the only part that depends on the input, and the
  ``_oracle_fragments`` (v stage, u gadgets, n/p tail) placed on one
  register. ``circuit_inference_batch`` reads that circuit's output
  marginals for a batch of inputs by exact register-factored simulation
  of the same fragments. A row's encoded amplitudes x are real, and each
  quantity it reads is the squared norm of x H for a half H of the
  images of the 2^n encoded basis states: the real quadratic form
  x^T F x, F = Re(H H^H). Once per parameter set the oracle keeps one
  form per measured qubit, its |1> half. Without a u layer the net is one
  pure state on its n + p qubits until the final measurement, and output
  o's form is o's |1> half of the v stage and the n/p tail run together.
  With k u neurons ancilla j's form is its |1> half after the v stage and
  its u gadget, the trainer's (V w_j)(V w_j)^T / 2^n, so a row reads each
  ancilla's Pr[1] = u_j, a classical bit with Pr[0] = 1 - u_j; one real
  table of the n/p tail is built per output over the stage basis of the
  output's light cone, and each output is its table weighted by the
  product distribution of its cone's bits. ``circuit_inference`` is its
  batch of one. ``max_qubits`` therefore bounds the plan's
  ``simulated_qubits``, 2n + max(e, ceil(log2 m)) for the e qubits a run
  adds to the n encoded ones and the m forms (e = p and m outputs
  without a u layer, e = 1 and m = k with one), or with a p layer after
  a u layer 2k + the p widths if that is larger; not its
  ``compiled_qubits``.

Each factorized stage runs its neuron's batched closed form from
``neurons`` (the same forms criterion 1 checks against the gadgets) and
that form's gradient, so ``forward_batch`` and ``backward_batch`` only
pass arrays between stages and parameter slots; the circuit takes every
gate from the same module's builders. The two agree exactly through v,
u and n stages (a run of n layers is one stage: its RX gates compose to
one RX with the summed angle; likewise the v stage runs each block's
second RY layer and the next block's first as one RY layer with the
summed angles, so r blocks run r + 1 RY layers); p layers consuming
qubits that earlier gadgets have already entangled are the approximate
case, and `qnnkit verify` exists to measure that gap rather than hide
it. Stated plainly: under the current H-sandwich p gadget, a p neuron
that reads m u ancillas (or earlier p outputs) returns exactly 2^-m
through the circuit for every input, 0.0625 on ``nets/mixed.arch``,
while its factorized output varies with the input.

Binary weights train through latent real shadows: the forward pass
always consumes sign(latent), gradients pass straight through the sign
as if it were the identity, and latents are clipped to [-1, 1] so they
keep responding to updates.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .arch import ArchitectureSpec, ArchitectureError, LayerSpec
from .encoding import amplitude_encoding_fragment, normalize_rows
from .neurons import (
    binarize,
    build_n_neuron,
    build_p_neuron,
    build_u_neuron,
    build_v_block,
    n_backward_batch,
    n_forward_batch,
    p_backward_batch,
    p_forward_batch,
    u_backward_batch,
    u_forward_batch,
    v_stage_backward,
    v_stage_forward,
    v_view_backward_batch,
    v_view_forward_batch,
)
from .rules import validate_architecture
from .statevec import CircuitFragment, insert_zeros, marginals_batch, run_fused

CHECKPOINT_FORMAT = "qnnkit-checkpoint"
CHECKPOINT_VERSION = 1

# Default cap of circuit_inference and ``verify --max-qubits``, checked by
# Plan.check_qubit_cap; 24 qubits is already a 256 MiB complex array.
DEFAULT_MAX_QUBITS = 24

# circuit_inference_batch reads its rows in chunks whose widest arrays
# hold at most this many real values in all (8 MiB), or one row: per row,
# its products F x with the m forms of the memo (one per output, or one
# per u ancilla), m 2^n values, or the 2^c probabilities of the bits on
# an output's c light-cone qubits.
ORACLE_BATCH_AMPLITUDES = 2**20


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch/batch where it happened."""


class ResourceLimitError(Exception):
    """Register would exceed the configured qubit cap."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class ParameterStore:
    """All trainable state: real angles plus latent shadows of binary weights."""

    v_thetas: np.ndarray  # (blocks, 2 * n_qubits); blocks = 0 without a v layer
    uw_latent: np.ndarray | None  # (u_width, input_dim) or None
    n_thetas: list[np.ndarray] = field(default_factory=list)  # per n-layer
    pw_latent: list[np.ndarray] = field(default_factory=list)  # per p-layer

    def u_weights(self) -> np.ndarray | None:
        return None if self.uw_latent is None else binarize(self.uw_latent)

    def p_weights(self, index: int) -> np.ndarray:
        return binarize(self.pw_latent[index])

    def map(self, fn, group=list) -> "ParameterStore":
        """``fn`` of every array, in the four groups; ``group`` collects n's and p's."""
        return ParameterStore(
            fn(self.v_thetas),
            None if self.uw_latent is None else fn(self.uw_latent),
            group(fn(t) for t in self.n_thetas),
            group(fn(w) for w in self.pw_latent),
        )

    def copy(self) -> "ParameterStore":
        return self.map(np.ndarray.copy)

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        self.map(out.append)  # in group order; no u group, no u array
        return out


@dataclass(frozen=True)
class Stage:
    """One n or p stage after the v/u stage.

    ``indices`` are the stage's positions in ``ParameterStore.n_thetas`` or
    ``pw_latent``. A run of n layers is one stage that lists each layer's
    angle index, because RX(a) RX(b) = RX(a + b); a p stage lists one.
    """

    kind: str
    width: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """The template layout of an architecture; ``pipeline`` derives it once."""

    u_width: int | None
    stages: tuple[Stage, ...]
    p_width: int  # p outputs in all, one fresh qubit each
    compiled_qubits: int  # register of build_network_circuit
    simulated_qubits: int  # ceil(log2) of the largest array circuit_inference holds
    observable_qubits: int  # widest light cone c of an output on the u ancillas, 0 without u
    shapes: tuple  # of (v_thetas, uw_latent or None, n_thetas, pw_latent)

    def check_qubit_cap(self, max_qubits: int) -> None:
        """ResourceLimitError if the factored simulation needs more than ``max_qubits``."""
        if self.simulated_qubits > max_qubits:
            raise ResourceLimitError(
                f"factored simulation needs {self.simulated_qubits} qubits, cap is {max_qubits}"
            )


@functools.cache  # specs and plans are frozen, so equal specs share one plan
def pipeline(arch: ArchitectureSpec) -> Plan:
    """The plan of an architecture that fits the trainable template v* u? [np]*.

    A net with no v layer, such as QuantumFlow's u and n designs, has a v
    stage of zero blocks, (0, 2n) angles, which every walker runs like any
    other: it passes the encoded input through unchanged.

    With k u neurons on n qubits the compiled register holds k registers
    of n + 1 qubits (n without a u layer) plus the p outputs. The factored
    simulation runs, per parameter set, the images of the 2^n encoded
    basis states, each run adding e qubits to the n encoded ones: without
    a u layer one run of the whole net, e = p, and with one a run per u
    register, one at a time, e = 1 for its ancilla; 2^(2n + e)
    amplitudes. It keeps one real 2^n x 2^n form per measured qubit, m
    4^n values for the m = num_classes outputs without a u layer or the
    m = k ancillas with one, so ``images`` = 2n + max(e, ceil(log2 m)).
    An output's light cone through the n/p tail is its own u ancilla
    without a p layer and all k ancillas with one. Per parameter set, the
    table of the last output is built from 2^c basis states of its c cone
    qubits plus all p outputs, and each row holds 2^c probabilities of its
    cone's bits. ``simulated_qubits`` is the larger of ``images`` and
    2c + the p widths; no table is built without a u layer (c = 0).
    """
    kinds = "".join(l.kind for l in arch.layers)
    v = len(kinds) - len(kinds.lstrip("v"))  # the leading v layers, maybe none
    tail = v + kinds.startswith("u", v)  # the first n or p layer
    if set(kinds[tail:]) - {"n", "p"}:
        raise ArchitectureError(
            "after the v/u stage only n- and p-layers are trainable; "
            f"got sequence {list(kinds)}"
        )
    n = arch.n_qubits
    u_width = arch.layers[v].width if tail > v else None
    width = n if u_width is None else u_width
    stages: list[Stage] = []
    n_shapes: list[tuple] = []
    p_shapes: list[tuple] = []
    for layer in arch.layers[tail:]:
        group = n_shapes if layer.kind == "n" else p_shapes
        indices = (len(group),)
        group.append((layer.width,) if layer.kind == "n" else (layer.width, width))
        if layer.kind == "n" and stages and stages[-1].kind == "n":
            indices = stages.pop().indices + indices
        stages.append(Stage(layer.kind, layer.width, indices))
        width = layer.width
    p_width = sum(s.width for s in stages if s.kind == "p")
    if u_width is None:  # the run adds the p outputs; a form per output
        compiled, added, forms, cone = n + p_width, p_width, arch.num_classes, 0
    else:  # a u register's run adds its ancilla; a form per ancilla
        compiled, added, forms = u_width * (n + 1) + p_width, 1, u_width
        cone = u_width if p_width else 1
    images = 2 * n + max(added, (forms - 1).bit_length())
    simulated = max(images, 2 * cone + p_width)
    u_shape = None if u_width is None else (u_width, arch.input_dim)
    blocks = sum(l.repeat for l in arch.layers[:v])
    shapes = ((blocks, 2 * n), u_shape, tuple(n_shapes), tuple(p_shapes))
    return Plan(u_width, tuple(stages), p_width, compiled, simulated, cone, shapes)


def init_parameters(arch: ArchitectureSpec, seed: int = 0) -> ParameterStore:
    """Near-identity angles, random latent signs; deterministic in ``seed``."""
    plan = pipeline(arch)
    v_shape, u_shape, n_shapes, p_shapes = plan.shapes
    rng = np.random.default_rng(seed)
    v_thetas = rng.normal(0.0, 0.1, size=v_shape)
    uw = None if u_shape is None else rng.uniform(-1.0, 1.0, size=u_shape)
    n_thetas: list[np.ndarray] = []
    pw: list[np.ndarray] = []
    for stage in plan.stages:  # drawn in layer order
        for i in stage.indices:
            if stage.kind == "n":
                # theta = 0 is a stationary point of the n-layer (the gradient
                # carries a sin(theta) factor), so start slightly off it
                n_thetas.append(rng.normal(0.0, 0.1, size=n_shapes[i]))
            else:
                pw.append(rng.uniform(-1.0, 1.0, size=p_shapes[i]))
    return ParameterStore(v_thetas, uw, n_thetas, pw)


def _check_shapes(arch: ArchitectureSpec, plan: Plan, params: ParameterStore) -> None:
    """ValueError unless every array of ``params`` has the shape that
    ``plan``, the plan of ``arch``, gives it, and none is given where it
    gives none. The fields are read as they are: ``astuple`` would copy
    them, several times the cost on the per-batch path."""
    shapes = tuple(vars(params.map(np.shape, tuple)).values())
    if shapes != plan.shapes:
        raise ValueError(
            f"parameter shapes {shapes} do not fit {arch.name}, which needs {plan.shapes}"
        )


# ---------------------------------------------------------------------------
# factorized forward
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: per-stage activations."""

    v_tape: dict
    stages: list[dict] = field(default_factory=list)  # the first "input" is the v output

    @property
    def probs(self) -> np.ndarray:
        """(B, num_classes): the last stage's output."""
        return self.stages[-1]["output"]


def _checked_input(arch: ArchitectureSpec, x, ndim: int = 1) -> np.ndarray:
    """``x`` as floats; ValueError unless it has ``ndim`` axes, the last of
    ``arch.input_dim`` values. A sample has one axis, a batch two."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D input, got shape {x.shape}")
    if x.shape[-1] != arch.input_dim:
        raise ValueError(f"expected input dim {arch.input_dim}, got {x.shape[-1]}")
    return x


def forward_batch(
    arch: ArchitectureSpec, params: ParameterStore, X: np.ndarray
) -> ForwardTrace:
    X = _checked_input(arch, X, ndim=2)
    plan = pipeline(arch)
    _check_shapes(arch, plan, params)

    amps, v_tape = v_stage_forward(normalize_rows(X), params.v_thetas)
    trace = ForwardTrace(v_tape=v_tape)

    if plan.u_width is not None:
        acts, d = u_forward_batch(amps, params.u_weights())
        trace.stages.append({"kind": "u", "input": amps, "dot": d, "output": acts})
    else:
        # probability view of the v stage, the encoded input itself when
        # it has no blocks; with no layer after it, the first num_classes
        # qubits are the class outputs
        acts = v_view_forward_batch(amps, arch.n_qubits if plan.stages else arch.num_classes)
        trace.stages.append({"kind": "view", "input": amps, "output": acts})

    for stage in plan.stages:
        record = {"kind": stage.kind, "input": acts, "indices": stage.indices}
        if stage.kind == "n":
            record["theta"] = functools.reduce(np.add, (params.n_thetas[i] for i in stage.indices))
            record["output"] = n_forward_batch(acts, record["theta"])
        else:
            out, s, factors = p_forward_batch(acts, params.p_weights(stage.indices[0]))
            record.update(output=out, s=s, factors=factors)
        trace.stages.append(record)
        acts = record["output"]
    return trace


def forward(arch: ArchitectureSpec, params: ParameterStore, x) -> ForwardTrace:
    """Single-sample forward pass (batch of one)."""
    return forward_batch(arch, params, _checked_input(arch, x)[None])


# ---------------------------------------------------------------------------
# loss and backward
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)  # so the option checks hold for its lifetime
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    temperature: float = 0.25
    lr_decay: float = 1.0  # multiplicative per-epoch decay
    keep_best: bool = False  # return the best-test-accuracy epoch's weights
    seed: int = 0

    def __post_init__(self):
        """ValueError, its message opening with the name of the first field
        out of range; a bool is no number."""
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                which = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be a {which} integer, got {value!r}")
        if not isinstance(self.keep_best, bool):
            raise ValueError(f"keep_best must be True or False, got {self.keep_best!r}")
        for name, zero_ok in (
            ("lr", False), ("temperature", False), ("momentum", True), ("lr_decay", True)
        ):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
                bound = ">= 0" if zero_ok else "> 0"
                raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def _check_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels`` as ints; ValueError unless one whole number per row, each in
    0 .. classes - 1, and at least one row."""
    if rows == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"expected {rows} labels, one per row, got shape {labels.shape}")
    if labels.dtype.kind not in "biu" and (
        labels.dtype.kind != "f" or np.any(labels != np.round(labels))
    ):
        raise ValueError("labels must be whole numbers")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"label out of range 0..{classes - 1}")
    return labels.astype(int, copy=False)


def loss_batch(probs: np.ndarray, labels, temperature: float = TrainConfig.temperature) -> float:
    """Mean cross-entropy over softmax(probs / temperature)."""
    labels = _check_labels(labels, *probs.shape)
    sm = _softmax(probs / temperature)
    picked = sm[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def backward_batch(
    arch: ArchitectureSpec,
    params: ParameterStore,
    trace: ForwardTrace,
    labels: np.ndarray,
    temperature: float = TrainConfig.temperature,
) -> ParameterStore:
    """Exact reverse-mode gradients as a ParameterStore; binary weights get straight-through."""
    B = len(trace.probs)
    labels = _check_labels(labels, *trace.probs.shape)
    sm = _softmax(trace.probs / temperature)
    onehot = np.zeros_like(sm)
    onehot[np.arange(B), labels] = 1.0
    grad = (sm - onehot) / (temperature * B)  # dL/dprobs

    grads = params.map(np.zeros_like)

    for stage in reversed(trace.stages):
        kind, acts = stage["kind"], stage["input"]
        if kind == "p":
            index = stage["indices"][0]
            W = params.p_weights(index)
            gW, grad = p_backward_batch(grad, acts, W, stage["s"], stage["factors"])
            grads.pw_latent[index] += gW
        elif kind == "n":
            gtheta, grad = n_backward_batch(grad, acts, stage["theta"])
            for i in stage["indices"]:  # each angle of an n run moves the summed angle
                grads.n_thetas[i] += gtheta
        elif kind == "u":
            gW, grad = u_backward_batch(grad, acts, params.u_weights(), stage["dot"])
            grads.uw_latent += gW
        else:  # probability view of the v stage
            grad = v_view_backward_batch(grad, acts)

    gtheta, _ = v_stage_backward(trace.v_tape, grad)
    grads.v_thetas = gtheta
    return grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def accuracy(arch, params, X, y) -> float:
    probs = forward_batch(arch, params, X).probs
    return float(np.mean(np.argmax(probs, axis=1) == _check_labels(y, *probs.shape)))


def check_trainable(arch: ArchitectureSpec) -> None:
    """ArchitectureError unless the rule engine passes ``arch`` and it has 2+ classes."""
    report = validate_architecture(arch)
    if not report.passed:
        raise ArchitectureError(
            "refusing to train an infeasible architecture:\n" + report.render_text()
        )
    if arch.num_classes < 2:
        raise ArchitectureError(f"training needs at least 2 classes, {arch.name} has 1")


def train(
    arch: ArchitectureSpec,
    params: ParameterStore,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    config: TrainConfig | None = None,
    test_images: np.ndarray | None = None,
    test_labels: np.ndarray | None = None,
) -> tuple[ParameterStore, list[dict]]:
    """Mini-batch SGD with momentum; deterministic for a fixed config.

    ``check_trainable`` refuses ``arch`` first. Returns the trained
    parameters and one metrics row per epoch.
    """
    config = config or TrainConfig()
    check_trainable(arch)
    train_images = np.asarray(train_images)
    train_labels = _check_labels(train_labels, len(train_images), arch.num_classes)
    if test_images is not None:
        test_labels = _check_labels(test_labels, len(test_images), arch.num_classes)

    params = params.copy()
    rng = np.random.default_rng(config.seed)
    velocity = [np.zeros_like(a) for a in params.arrays()]
    metrics: list[dict] = []
    lr = config.lr
    best_params = None
    best_score = -math.inf

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_images))
        epoch_loss = 0.0
        epoch_hits = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            Xb, yb = train_images[batch], train_labels[batch]
            trace = forward_batch(arch, params, Xb)
            batch_loss = loss_batch(trace.probs, yb, config.temperature)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            grads = backward_batch(arch, params, trace, yb, config.temperature)
            for vel, param, grad in zip(velocity, params.arrays(), grads.arrays()):
                vel *= config.momentum
                vel -= lr * grad
                param += vel
            if params.uw_latent is not None:
                np.clip(params.uw_latent, -1.0, 1.0, out=params.uw_latent)
            for w in params.pw_latent:
                np.clip(w, -1.0, 1.0, out=w)
            epoch_loss += batch_loss * len(batch)
            epoch_hits += int(np.sum(np.argmax(trace.probs, axis=1) == yb))

        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / len(order),
            "train_accuracy": epoch_hits / len(order),
        }
        if test_images is not None:
            row["test_accuracy"] = accuracy(arch, params, test_images, test_labels)
        metrics.append(row)
        if config.keep_best:
            score = row.get("test_accuracy", -row["train_loss"])
            if score > best_score:
                best_score = score
                best_params = params.copy()
        lr *= config.lr_decay
    if config.keep_best:  # epoch 0 always sets it: its score is finite, above -inf
        params = best_params
    return params, metrics


# ---------------------------------------------------------------------------
# whole-network circuit
# ---------------------------------------------------------------------------


@dataclass
class NetworkCircuit:
    """A compiled network: unitary gates only, so no mid-circuit measurement.

    Measurement happens once, on ``output_qubits``, after ``fragment`` has
    run on ``fragment.qubit_span`` qubits.
    """

    fragment: CircuitFragment
    output_qubits: list[int]


def _oracle_fragments(arch: ArchitectureSpec, plan: Plan, params: ParameterStore) -> tuple:
    """(v stage, u neurons, n/p tail, output qubits): the network's
    parameter-only fragments. ``circuit_inference`` fuses them and
    ``build_network_circuit`` places them on the compiled register.

    The v stage spans n qubits and each u neuron n + 1, its ancilla last.
    The tail spans w = ``plan.u_width or n`` stage qubits, then the p
    outputs, one fresh qubit each in layer order. Stage qubit j is u
    neuron j's ancilla, or v qubit j without a u layer. n layers rotate
    the stage qubits in place; each p neuron reads them as controls and
    writes its own output. ValueError unless ``params`` fits ``arch``.
    """
    _check_shapes(arch, plan, params)
    n = arch.n_qubits
    v = CircuitFragment(n)
    for theta in params.v_thetas:
        v.extend(build_v_block(n, theta))
    u_frags = [] if plan.u_width is None else [build_u_neuron(n, w) for w in params.u_weights()]
    next_free = plan.u_width or n
    stage_qubits = list(range(next_free))
    tail = CircuitFragment(next_free + plan.p_width)
    for stage in plan.stages:
        if stage.kind == "n":
            for i in stage.indices:
                for q, theta in zip(stage_qubits, params.n_thetas[i]):
                    tail.extend(build_n_neuron(theta), {0: q})
        else:
            m = len(stage_qubits)
            targets = list(range(next_free, next_free + stage.width))
            for w, target in zip(params.p_weights(stage.indices[0]), targets):
                tail.extend(build_p_neuron(m, w), {**dict(enumerate(stage_qubits)), m: target})
            stage_qubits = targets
            next_free += stage.width
    # a v-final net reads its first num_classes qubits; every other last
    # stage is num_classes wide already
    return v, u_frags, tail, stage_qubits[: arch.num_classes]


def build_network_circuit(arch: ArchitectureSpec, params: ParameterStore, x) -> NetworkCircuit:
    """Compile the network into one measurement-free fragment on
    ``plan.compiled_qubits`` qubits: the encoding of ``x`` and the
    ``_oracle_fragments``, placed on that register.

    With k u neurons, register j holds the encoding and v stage on qubits
    j*n .. j*n + n - 1 and u neuron j's ancilla at k*n + j. A fresh
    register per u neuron repeats the known classical preparation of a
    state that cannot be copied, so u outputs stay independent. Without
    a u layer, k = 0 and one register holds the encoding and v stage.
    The tail's qubit q is qubit k*n + q.
    """
    plan = pipeline(arch)
    n = arch.n_qubits
    k = plan.u_width or 0
    v, u_frags, tail, outputs = _oracle_fragments(arch, plan, params)
    register = amplitude_encoding_fragment(_checked_input(arch, x)).extend(v)
    frag = CircuitFragment(plan.compiled_qubits)
    for j, u in enumerate(u_frags or [None]):
        mapping = {q: j * n + q for q in range(n)}
        frag.extend(register, mapping)
        if u is not None:
            frag.extend(u, {**mapping, n: k * n + j})
    frag.extend(tail, {q: k * n + q for q in range(tail.qubit_span)})
    return NetworkCircuit(frag, [k * n + q for q in outputs])


# At most one entry: the quadratic forms and readout of the last parameter set seen.
_ORACLE_MEMO: dict = {}


def _oracle_programs(arch: ArchitectureSpec, plan: Plan, params: ParameterStore) -> tuple:
    """(forms, readout) for the parameters as they are now.

    ``forms`` is a read-only real (m, 2^n, 2^n) array holding one
    ``_real_forms`` Re(H H^H) per measured qubit, H being the qubit's |1>
    half of the images of the 2^n encoded basis states, so that for a real
    encoding x its Pr[1] is x^T F x. With k u neurons, m = k: ancilla j's
    |1> half after the v stage and u gadget j, each from its own run, so
    the k registers are never held side by side, and the readout is the
    ``_tail_tables`` of the tail. Each run is unitary and x a unit vector,
    so the ancilla's |0> half needs no form: Pr[0] = 1 - Pr[1]. Without a
    u layer the v stage and the tail, joined into one fragment on n + p
    qubits, run as one pure state, m is the number of outputs, each form
    is its output qubit's |1> half, and the readout is None.

    The key is read from the arrays at every call, so an in-place update
    misses; a miss checks the parameter shapes (in ``_oracle_fragments``)
    and replaces the one entry, so a warm call pays for no check.
    """
    key = (arch, tuple((a.shape, a.dtype.str, a.tobytes()) for a in params.arrays()))
    programs = _ORACLE_MEMO.get(key)
    if programs is None:
        v, u_frags, tail, outputs = _oracle_fragments(arch, plan, params)
        size = 2**arch.n_qubits
        readout = _tail_tables(tail, outputs, plan.u_width) if u_frags else None
        forms = np.empty((len(u_frags) or len(outputs), size, size))
        if u_frags:  # one register at a time, read at its ancilla, the last qubit
            image = insert_zeros(run_fused(v, np.eye(size)), 1)
            for j, u in enumerate(u_frags):
                _real_forms(run_fused(u, image), [arch.n_qubits], forms[j:])
        else:  # one pure state until the final measurement, read at each output
            joined = CircuitFragment(tail.qubit_span).extend(v).extend(tail)
            state = run_fused(joined, insert_zeros(np.eye(size), plan.p_width))
            _real_forms(state, outputs, forms)
        forms.flags.writeable = False
        _ORACLE_MEMO.clear()
        programs = (forms, readout)
        _ORACLE_MEMO[key] = programs
    return programs


def _real_forms(run: np.ndarray, qubits: list[int], out: np.ndarray) -> None:
    """Write Re(H H^H) to ``out[i]`` for H the |1> half of qubit
    ``qubits[i]`` in ``run``, the (2^n, 2^w) images of the 2^n encoded
    basis states, qubit 0 the most significant. For a real row x, x^T F x
    is the squared norm of x H, the qubit's Pr[1]. Each form is g^T g, g
    being the real and imaginary parts of H^T stacked: one product of g
    with itself, so exactly symmetric. No half outlives the call, so a
    caller that passes one register's run holds no register once it
    returns."""
    for form, q in zip(out, qubits):
        h = run.T.reshape(2**q, 2, -1, len(form))[:, 1]
        g = np.concatenate((h.real, h.imag)).reshape(-1, len(form))
        np.matmul(g.T, g, out=form)


def _tail_tables(tail: CircuitFragment, outputs: list[int], stage_width: int) -> tuple:
    """For each group of outputs with the same light cone on the first
    ``stage_width`` qubits of ``tail``, the u ancillas: (cone, output
    positions, T), T holding one real row of 2^c values per output.
    T_o(b) is output o's probability of reading 1 when the tail starts
    from the stage basis state |b> on the c cone qubits, the first the
    most significant bit of b, with the p outputs in |0>.

    An output's light cone is the set of qubits, and the ops, reached by
    walking the tail backwards from it: an op joins when it touches a
    qubit already in the cone. The cone's ops run, fused, on the cone's
    stage basis states with its p outputs in |0>, and row o of T is
    output o's marginal of those runs.
    """
    groups: dict = {}
    for position, output in enumerate(outputs):
        cone, ops = {output}, []
        for gate, qubits in reversed(tail.ops):
            if cone.intersection(qubits):
                cone.update(qubits)
                ops.append((gate, qubits))
        order = sorted(cone)  # stage qubits first, then p outputs
        index = {q: i for i, q in enumerate(order)}
        frag = CircuitFragment(len(order))
        for gate, qubits in reversed(ops):
            frag.append(gate, *(index[q] for q in qubits))
        stage = tuple(q for q in order if q < stage_width)
        basis = insert_zeros(np.eye(2 ** len(stage)), len(order) - len(stage))
        positions, tables = groups.setdefault(stage, ([], []))
        positions.append(position)
        tables.append(marginals_batch(run_fused(frag, basis), [index[output]])[:, 0])
    readout = []
    for stage, (positions, tables) in groups.items():
        t = np.array(tables)
        t.flags.writeable = False
        readout.append((stage, positions, t))
    return tuple(readout)


def circuit_inference_batch(
    arch: ArchitectureSpec,
    params: ParameterStore,
    X: np.ndarray,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """(B, num_classes) class probabilities of the (B, N) batch ``X``, from
    exact, register-factored simulation of the network that
    ``build_network_circuit`` compiles for each row.

    Without a u layer the net is one pure state until the final
    measurement, on the n + p qubits of the v stage and the n/p tail, and
    its outputs are that state's marginals. With a u layer, after its u
    gadget a u register is touched only through its ancilla, and the u
    registers are separate copies. So each u neuron acts alone on the v
    stage's state plus its ancilla, and the register is replaced by its
    ancilla's reduced state, which is diagonal: the gadget's MCX moves one
    register basis state to ancilla 1, so ancilla j is a classical bit,
    Pr_j[1] being the squared norm of the register's |1> ancilla half and
    Pr_j[0] = 1 - Pr_j[1]. The tail's stage qubits then hold the product
    distribution P(b) = prod_j Pr_j[b_j], and output o is
    sum_b P(b) T_o(b) over o's light cone, T_o being the real table that
    ``_tail_tables`` builds once per parameter set. This is exact,
    because the tail touches only the ancillas and its p outputs start in
    |0>. ``max_qubits`` caps ``pipeline(arch).simulated_qubits``,
    ceil(log2) of the largest array held; rows run in chunks of at most
    ``ORACLE_BATCH_AMPLITUDES`` values in their widest per-row arrays.

    Only the amplitude encoding depends on the input, and it runs without
    a gate list: each row is read as x = ``normalize_rows(row)``, the real
    amplitudes that ``amplitude_encoding_fragment`` prepares in exact
    arithmetic, and the trainer's own input. The v stage, each u gadget
    and the tail are the ``_oracle_fragments`` that the compiled circuit
    places. They depend only on the parameters, and the states they give
    are linear in x. So each output marginal, and each ancilla's Pr[1], is
    the squared norm of x H for the |1> half H of the images of the 2^n
    basis states: the real quadratic form x^T F x, F = Re(H H^H).
    Once per parameter set the fragments run through ``statevec.run_fused``
    on the 2^n basis states, and ``_oracle_programs`` keeps one F per
    quantity; per row, two stacked ``np.matmul`` calls read every
    quantity, with no complex arithmetic, and one more per light cone
    reads its tables. The forms are kept with the readout in a one-entry
    memo keyed by ``arch`` and the shape, dtype and bytes of every
    parameter array, read at each call, so an in-place update is a miss.
    This pays because callers repeat parameters: ``qnnkit verify`` and
    the benchmark's verify workloads pass the same ones for every sample
    after the first, and training never calls this. Fusing and the forms
    move outputs by about 1e-15. Every step treats each row on its own,
    so a row's outputs do not depend on the rows batched with it.
    """
    plan = pipeline(arch)
    plan.check_qubit_cap(max_qubits)
    X = _checked_input(arch, X, ndim=2)
    programs = _oracle_programs(arch, plan, params)
    # per row: its products F x with every form, and a cone's distribution
    widest = max((programs[0][..., 0].size - 1).bit_length(), plan.observable_qubits)
    rows = max(1, ORACLE_BATCH_AMPLITUDES >> widest)
    out = np.empty((len(X), arch.num_classes))
    for start in range(0, len(X), rows):
        out[start : start + rows] = _oracle_rows(programs, X[start : start + rows])
    return out


def circuit_inference(
    arch: ArchitectureSpec,
    params: ParameterStore,
    x,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Class probabilities of one sample: ``circuit_inference_batch`` of a batch of one."""
    return circuit_inference_batch(arch, params, _checked_input(arch, x)[None], max_qubits)[0]


def _oracle_rows(programs: tuple, X: np.ndarray) -> np.ndarray:
    """``circuit_inference_batch`` of the rows ``X``, given the memo's
    quadratic forms and readout."""
    forms, readout = programs
    x = normalize_rows(X)[:, :, None]  # real, one column per row
    # each row's own products: F x for every form, then x^T F x
    fx = np.matmul(forms.reshape(-1, x.shape[1]), x).reshape(len(X), len(forms), -1)
    values = np.matmul(fx, x)  # (B, m, 1): each measured qubit's Pr[1]
    if readout is None:
        return values[:, :, 0]
    # the u ancillas reach the tail as classical bits: each u gadget's MCX
    # moves one register basis state, so every ancilla's reduced state is
    # diagonal, and its cone's state is the product distribution of them;
    # a register's run is unitary and x a unit vector, so Pr[0] = 1 - Pr[1]
    bits = np.concatenate((1.0 - values, values), axis=2)  # (B, k, 2): Pr[0], Pr[1]
    out = np.empty((len(X), sum(len(positions) for _, positions, _ in readout)))
    for cone, positions, t in readout:
        dist = bits[:, cone[0]]
        for j in cone[1:]:
            dist = (dist[:, :, None] * bits[:, j, None, :]).reshape(len(X), -1)
        out[:, positions] = np.matmul(dist[:, None, :], t.T)[:, 0]
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, arch: ArchitectureSpec, params: ParameterStore) -> None:
    """The JSON text is built before ``path`` is opened: a failed save, or
    parameters that do not fit ``arch``, write nothing."""
    _check_shapes(arch, pipeline(arch), params)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": asdict(arch),
        "parameters": asdict(params.map(np.ndarray.tolist)),
    }
    text = json.dumps(payload, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _numbers(value) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; ValueError on any
    other entry, such as "1" or true, which ``float`` would read as 1.0."""
    entries = [value]
    while entries:
        entry = entries.pop()
        if isinstance(entry, list):
            entries.extend(entry)
        elif type(entry) not in (int, float):
            raise ValueError(f"a parameter value is not a number: {json.dumps(entry)}")
    return np.array(value, dtype=float)


def load_checkpoint(path) -> tuple[ArchitectureSpec, ParameterStore]:
    """(arch, params) from ``path``; OSError if it cannot be read, and ValueError
    on every malformed file. Layers are read by key, so an unknown key (older
    files hold a ``theta_mode``) is ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
        if type(payload.get("version")) is not int or payload["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        arch_d = payload["architecture"]
        arch = ArchitectureSpec(
            arch_d["input_dim"],
            arch_d["num_classes"],
            [LayerSpec(l["kind"], l["width"], l["repeat"]) for l in arch_d["layers"]],
        )
        p = payload["parameters"]
        groups = (p[f.name] for f in fields(ParameterStore))
        params = ParameterStore(*groups).map(_numbers)
        if params.v_thetas.shape == (0,):  # JSON writes no v blocks, (0, 2n), as []
            params.v_thetas = params.v_thetas.reshape(0, 2 * arch.n_qubits)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    except TypeError as exc:  # a field holds the wrong JSON type
        raise ValueError(f"a field has the wrong type ({exc})") from None
    except OverflowError:  # an integer beyond the float range
        raise ValueError("a parameter value is not finite") from None
    _check_shapes(arch, pipeline(arch), params)
    if not all(np.all(np.isfinite(a)) for a in params.arrays()):
        raise ValueError("a parameter value is not finite")
    return arch, params
